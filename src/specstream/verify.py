"""Ground-truth checks: approximation factor, score-log audit, stream condition number.

Everything here recomputes from exact Grams and eigenvalues. It is the
referee for the samplers, so it shares no code path with them beyond the
base linear algebra.
"""
from __future__ import annotations

import math

import numpy as np

from . import rows as rowops
from .errors import AllZeroStream, DimensionMismatch, EmptyStream, MissingScoreLog
from .instances import RowStream
from .leverage import leverage_scores
from .linalg import SymPsd, approx_factor, default_rank_tol
from .sketch import Sketch

# Numerical slack for the overestimate audit: logged scores may sit exactly
# on the true value up to clamp rounding.
AUDIT_SLACK = 1e-9

# Streams at or below this length get the full per-prefix scan.
EXACT_SCAN_LIMIT = 5000

# online_leverage eigendecomposes prefix Grams in stacked batches of about
# this many matrix entries, so its memory stays flat in n.
PREFIX_BATCH_ENTRIES = 1 << 20


def verify(
    stream: RowStream,
    sketch: Sketch,
    scores=None,
    require_scores: bool = False,
) -> tuple[float, bool | None]:
    """Measure the spectral approximation factor and audit a score log.

    Returns (eps_actual, overestimate_ok). eps_actual is the largest
    relative eigenvalue deviation of the sketch Gram against the stream
    Gram on the stream's row space; rank loss shows up as 1.0 and mass
    outside the row space as inf. overestimate_ok reports whether every
    logged score dominates the true leverage score of its row (None when
    no log was supplied and none was required).
    """
    if stream.d != sketch.dim:
        raise DimensionMismatch(
            f"stream dimension {stream.d} != sketch dimension {sketch.dim}"
        )
    if stream.n == 0:
        raise EmptyStream("empty stream")
    eps_actual = approx_factor(stream.gram(), sketch.gram)

    if scores is None:
        if require_scores:
            raise MissingScoreLog("overestimate audit requires a score log")
        return eps_actual, None

    logged = np.asarray(scores, dtype=float)
    if logged.shape != (stream.n,):
        raise DimensionMismatch(
            f"score log length {logged.shape} does not match stream length {stream.n}"
        )
    tau = leverage_scores(stream).scores
    overestimate_ok = bool(np.all(logged + AUDIT_SLACK >= tau))
    return eps_actual, overestimate_ok


def online_leverage(stream: RowStream) -> np.ndarray:
    """Exact online leverage tau_i = a_i' (A_i' A_i)+ a_i of every row.

    A_i stacks rows 0..i, so tau_i is the leverage of row i within its own
    prefix: 1 for a row that opens a new direction, 0 for a zero row, and
    the scores sum to at least rank(A). Every prefix Gram is
    eigendecomposed afresh under the same rank cutoff as SymPsd; nothing
    but the running Gram sum carries from row to row.
    """
    if stream.n == 0:
        raise EmptyStream("empty stream")
    a = stream.materialize()
    d = stream.d
    tol = default_rank_tol(d)
    batch = max(1, PREFIX_BATCH_ENTRIES // (d * d))
    tau = np.empty(stream.n)
    gram = np.zeros((d, d))
    for start in range(0, stream.n, batch):
        block = a[start:start + batch]
        grams = gram + np.cumsum(block[:, :, None] * block[:, None, :], axis=0)
        w, v = np.linalg.eigh(grams)  # ascending, so w[:, -1] is lambda_max
        support = w > tol * np.maximum(w[:, -1:], 0.0)
        inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=support)
        coords = np.einsum("bij,bi->bj", v, block)
        tau[start:start + len(block)] = np.einsum("bj,bj->b", coords ** 2, inv_w)
        gram = grams[-1]
    return np.clip(tau, 0.0, 1.0)


def _min_nonzero_eig(w: np.ndarray, rank_tol: float) -> float | None:
    """Smallest eigenvalue above the rank cutoff; None for a zero spectrum."""
    lam_max = float(w[-1])
    if lam_max <= 0.0:
        return None
    nz = w[w > rank_tol * lam_max]
    if nz.size == 0:
        return None
    return float(nz[0])


def _mu_exact(stream: RowStream, rank_tol: float) -> float:
    gram = np.zeros((stream.d, stream.d))
    denom = math.inf
    for i in range(stream.n):
        rowops.add_outer(gram, stream.row(i), 1.0)
        w = np.linalg.eigvalsh(gram)
        m = _min_nonzero_eig(w, rank_tol)
        if m is not None:
            denom = min(denom, m)
    if not math.isfinite(denom):
        raise AllZeroStream("every row is zero")
    lam_max = float(np.linalg.eigvalsh(gram)[-1])
    return lam_max / denom


def _mu_checkpoint(stream: RowStream, rank_tol: float, residual_tol: float) -> float:
    """Prefix minimum evaluated only where it can move.

    Adding a row never decreases any eigenvalue, so within a fixed-rank
    stretch the smallest nonzero eigenvalue is minimized at the stretch's
    first prefix. Evaluating at every rank change is therefore exact; the
    doubling checkpoints are redundant confirmation at sizes d, 2d, 4d, ...
    """
    d = stream.d
    gram = np.zeros((d, d))
    basis: list[np.ndarray] = []
    denom = math.inf
    next_mark = d

    def probe():
        nonlocal denom
        w = np.linalg.eigvalsh(gram)
        m = _min_nonzero_eig(w, rank_tol)
        if m is not None:
            denom = min(denom, m)

    for i in range(stream.n):
        row = stream.row(i)
        rowops.add_outer(gram, row, 1.0)
        dense = rowops.densify(row, d)
        nrm = float(np.linalg.norm(dense))
        rank_changed = False
        if nrm > 0.0:
            resid = dense.copy()
            for _ in range(2):
                for q in basis:
                    resid -= (q @ resid) * q
            rnorm = float(np.linalg.norm(resid))
            if rnorm > residual_tol * nrm:
                basis.append(resid / rnorm)
                rank_changed = True
        if rank_changed:
            probe()
        elif i + 1 == next_mark:
            probe()
        if i + 1 >= next_mark:
            next_mark *= 2
    if not math.isfinite(denom):
        raise AllZeroStream("every row is zero")
    lam_max = float(np.linalg.eigvalsh(gram)[-1])
    return lam_max / denom


def mu(stream: RowStream, mode: str = "auto", exact_limit: int = EXACT_SCAN_LIMIT) -> float:
    """Stream condition number: top eigenvalue over worst prefix floor.

    Scans prefix Grams A_i^T A_i and returns lambda_max(A^T A) divided by
    the smallest nonzero eigenvalue seen over all prefixes. mode picks the
    scan: "exact" visits every prefix, "checkpoint" only rank changes and
    doubling marks, "auto" switches on exact_limit.
    """
    if stream.n == 0:
        raise EmptyStream("empty stream")
    if mode not in ("auto", "exact", "checkpoint"):
        raise ValueError(f"unknown mu mode {mode!r}")
    tol = default_rank_tol(stream.d)
    if mode == "auto":
        mode = "exact" if stream.n <= exact_limit else "checkpoint"
    if mode == "exact":
        return _mu_exact(stream, tol)
    return _mu_checkpoint(stream, tol, residual_tol=1e-8)
