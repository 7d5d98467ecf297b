"""The referee: approximation factor, exact and online leverage, the
score-log audit and the stream condition number.

Everything here recomputes from exact Grams and eigenvalues. verify reads a
stream once (RowStream.block) and factors its Gram once, one SymPsd that
approx_factor and the audit's leverage both whiten by; online_leverage and mu
read a stream's prefixes batch by batch. It shares no code path with the
samplers beyond SymPsd and its rank cutoff.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import AllZeroStream, DimensionMismatch, EmptyStream, NonFiniteInput
from .instances import RowStream
from .linalg import SymPsd, default_rank_tol
from .sketch import Sketch

# Numerical slack for the overestimate audit: logged scores may sit exactly
# on the true value up to clamp rounding.
AUDIT_SLACK = 1e-9

# online_leverage and mu read the stream (RowStream.block) and eigendecompose its
# prefix Grams in stacked batches of about this many entries: memory flat in n.
PREFIX_BATCH_ENTRIES = 1 << 20


def approx_factor(gram_ref: SymPsd, gram_test: SymPsd) -> float:
    """Tightest eps with (1-eps) ref <= test <= (1+eps) ref on Im(ref).

    Computed as max |lambda - 1| over the eigenvalues of
    ref^{+/2} test ref^{+/2} restricted to the reference image. Returns
    math.inf when the test matrix has mass on Ker(ref) (no finite eps
    exists).
    """
    if gram_ref.dim != gram_test.dim:
        raise DimensionMismatch(f"dims {gram_ref.dim} vs {gram_test.dim}")
    t = gram_test.entries
    lam_t = gram_test.eigenvalues[0]
    if gram_ref.rank < gram_ref.dim:
        kern = gram_ref.eigenvectors[:, gram_ref.rank:]
        # Largest eigenvalue of the test restricted to Ker(ref); PSD cross
        # terms are bounded by the diagonal blocks, so this check suffices.
        kern_mass = float(np.max(np.linalg.eigvalsh(kern.T @ t @ kern)))
        if kern_mass > default_rank_tol(gram_test.dim) * lam_t:
            return math.inf
    if gram_ref.rank == 0:
        return 0.0
    half = _whitener(gram_ref)
    w = half.T @ t @ half
    mu = np.linalg.eigvalsh(w)
    return float(np.max(np.abs(mu - 1.0)))


def _whitener(s: SymPsd) -> np.ndarray:
    """V_r / sqrt(lambda_r) on the support of s; a row's whitened coordinates are row @ it."""
    return s.eigenvectors[:, :s.rank] / np.sqrt(s.eigenvalues[:s.rank])


def _leverage(a: np.ndarray, gram: SymPsd) -> np.ndarray:
    """Leverage of the rows a against gram, the SymPsd of their Gram, clipped to [0, 1]."""
    c = a @ _whitener(gram)
    return np.clip(np.einsum("ij,ij->i", c, c), 0.0, 1.0)


def leverage_scores(rows_in) -> np.ndarray:
    """Exact leverage scores tau_i = a_i' (A'A)+ a_i of a materialized matrix.

    Accepts an (n, d) array or anything with materialize() returning one.
    tau_i = ||c_i||^2 for whitened coordinates c = A V_r / sqrt(lambda_r) on
    the Gram's support, with no pseudo-inverse formed. The scores, clipped
    to [0, 1], sum to rank(A).
    """
    a = rows_in.materialize() if hasattr(rows_in, "materialize") else np.asarray(rows_in, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d row matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise EmptyStream("no rows to score")
    return _leverage(a, SymPsd(a.T @ a))


def verify(stream: RowStream, sketch: Sketch, scores=None) -> tuple[float, bool | None]:
    """Measure the spectral approximation factor and audit a score log.

    Returns (eps_actual, overestimate_ok). eps_actual is the largest
    relative eigenvalue deviation of the sketch Gram against the stream
    Gram on the stream's row space; rank loss shows up as 1.0 and mass
    outside the row space as inf. overestimate_ok reports whether every
    logged score dominates the true leverage score of its row (None when
    no log was supplied); a non-number in the log raises DimensionMismatch, a non-finite
    score NonFiniteInput. Both answers come from one read and one factor of the stream.
    """
    if stream.d != sketch.dim:
        raise DimensionMismatch(f"stream dimension {stream.d} != sketch dimension {sketch.dim}")
    if stream.n == 0:
        raise EmptyStream("empty stream")
    rows = stream.block(0, stream.n)
    ref = SymPsd(rows.T @ rows)
    # The sketch's Gram is formed afresh from its weights and rows: the Gram
    # a sampler accumulated while sampling is sampler state, and the referee
    # judges only what the sketch holds.
    weighted = sketch.weighted_matrix()
    eps_actual = approx_factor(ref, SymPsd(weighted.T @ weighted))

    if scores is None:
        return eps_actual, None

    try:
        logged = np.asarray(scores, dtype=float)
    except (TypeError, ValueError) as exc:  # an entry that is not one number
        raise DimensionMismatch("score log must hold one number per stream row") from exc
    if logged.shape != (stream.n,):
        raise DimensionMismatch(f"score log length {logged.shape} does not match stream length {stream.n}")
    if not np.isfinite(logged).all():
        raise NonFiniteInput("score log holds a non-finite score")
    tau = _leverage(rows, ref)
    overestimate_ok = bool(np.all(logged + AUDIT_SLACK >= tau))
    return eps_actual, overestimate_ok


def _prefix_grams(stream: RowStream):
    """Yield (start, rows, prefix Grams), one RowStream.block read a batch:
    grams[k] is the Gram of rows 0..start + k, summed in row order."""
    if stream.n == 0:
        raise EmptyStream("empty stream")
    d = stream.d
    batch = max(1, PREFIX_BATCH_ENTRIES // (d * d))
    gram = np.zeros((d, d))
    for start in range(0, stream.n, batch):
        block = stream.block(start, min(start + batch, stream.n))
        grams = gram + np.cumsum(block[:, :, None] * block[:, None, :], axis=0)
        yield start, block, grams
        gram = grams[-1]


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
        inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=SymPsd.above_cutoff(w))
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
        floor = min(floor, float(np.min(np.where(SymPsd.above_cutoff(w), w, math.inf))))
    if floor == math.inf:
        raise AllZeroStream("every row is zero")
    return float(w[-1, -1]) / floor
