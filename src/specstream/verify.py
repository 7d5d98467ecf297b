"""Ground-truth checks: approximation factor, score-log audit, stream condition number.

Everything here recomputes from exact Grams and eigenvalues. It is the
referee for the samplers, so it shares no code path with them beyond the
base linear algebra.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import AllZeroStream, DimensionMismatch, EmptyStream
from .instances import RowStream
from .leverage import leverage_scores
from .linalg import SymPsd, approx_factor, default_rank_tol
from .sketch import Sketch

# Numerical slack for the overestimate audit: logged scores may sit exactly
# on the true value up to clamp rounding.
AUDIT_SLACK = 1e-9

# online_leverage and mu eigendecompose prefix Grams in stacked batches of
# about this many matrix entries, so their memory stays flat in n.
PREFIX_BATCH_ENTRIES = 1 << 20


def verify(stream: RowStream, sketch: Sketch, scores=None) -> tuple[float, bool | None]:
    """Measure the spectral approximation factor and audit a score log.

    Returns (eps_actual, overestimate_ok). eps_actual is the largest
    relative eigenvalue deviation of the sketch Gram against the stream
    Gram on the stream's row space; rank loss shows up as 1.0 and mass
    outside the row space as inf. overestimate_ok reports whether every
    logged score dominates the true leverage score of its row (None when
    no log was supplied).
    """
    if stream.d != sketch.dim:
        raise DimensionMismatch(
            f"stream dimension {stream.d} != sketch dimension {sketch.dim}"
        )
    if stream.n == 0:
        raise EmptyStream("empty stream")
    # The sketch's Gram is formed afresh from its weights and rows: the Gram
    # a sampler accumulated while sampling is sampler state, and the referee
    # judges only what the sketch holds.
    weighted = sketch.weighted_matrix()
    eps_actual = approx_factor(stream.gram(), SymPsd(weighted.T @ weighted))

    if scores is None:
        return eps_actual, None

    logged = np.asarray(scores, dtype=float)
    if logged.shape != (stream.n,):
        raise DimensionMismatch(
            f"score log length {logged.shape} does not match stream length {stream.n}"
        )
    tau = leverage_scores(stream)
    overestimate_ok = bool(np.all(logged + AUDIT_SLACK >= tau))
    return eps_actual, overestimate_ok


def _prefix_grams(stream: RowStream):
    """Yield (start, rows, prefix Grams) batch by batch: grams[k] is the Gram
    of rows 0..start + k, summed in row order."""
    if stream.n == 0:
        raise EmptyStream("empty stream")
    a = stream.materialize()
    d = stream.d
    batch = max(1, PREFIX_BATCH_ENTRIES // (d * d))
    gram = np.zeros((d, d))
    for start in range(0, stream.n, batch):
        block = a[start:start + batch]
        grams = gram + np.cumsum(block[:, :, None] * block[:, None, :], axis=0)
        yield start, block, grams
        gram = grams[-1]


def _support(w: np.ndarray, d: int) -> np.ndarray:
    """Mask of ascending eigenvalue rows above the SymPsd rank cutoff."""
    return w > default_rank_tol(d) * np.maximum(w[:, -1:], 0.0)


def online_leverage(stream: RowStream) -> np.ndarray:
    """Exact online leverage tau_i = a_i' (A_i' A_i)+ a_i of every row.

    A_i stacks rows 0..i, so tau_i is the leverage of row i within its own
    prefix: 1 for a row that opens a new direction, 0 for a zero row, and
    the scores sum to at least rank(A). Every prefix Gram is
    eigendecomposed afresh under the same rank cutoff as SymPsd; nothing
    but the running Gram sum carries from row to row.
    """
    tau = np.empty(stream.n)
    for start, block, grams in _prefix_grams(stream):
        w, v = np.linalg.eigh(grams)
        inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=_support(w, stream.d))
        coords = np.einsum("bij,bi->bj", v, block)
        tau[start:start + len(block)] = np.einsum("bj,bj->b", coords ** 2, inv_w)
    return np.clip(tau, 0.0, 1.0)


def mu(stream: RowStream) -> float:
    """Stream condition number: top eigenvalue over worst prefix floor.

    lambda_max(A'A) divided by the smallest nonzero eigenvalue of any prefix
    Gram A_i'A_i; every prefix is eigendecomposed, under the SymPsd rank
    cutoff.
    """
    floor = math.inf
    for _, _, grams in _prefix_grams(stream):
        w = np.linalg.eigvalsh(grams)
        floor = min(floor, float(np.min(np.where(_support(w, stream.d), w, math.inf))))
    if floor == math.inf:
        raise AllZeroStream("every row is zero")
    return float(w[-1, -1]) / floor
