"""Reference facts about the benchmark's streams, computed in plain numpy.

Nothing here calls specstream. Every sketch the samplers return is checked
against the stream it came from with numbers derived apart from the
program: the exact Gram spectrum, the exact leverage scores, the doubling
schedule and the resparsify capacity, each restated from its definition.
"""
from __future__ import annotations

import math

import numpy as np

# The program's verify() must reproduce the reference approximation factor
# to this relative tolerance.
EPS_AGREE_REL = 1e-9

# A logged score may sit on the exact leverage up to rounding.
SCORE_SLACK = 1e-9

# Gram eigenvalues at or below this share of the largest count as zero. The
# benchmark's streams have a wide gap there: the kd Laplacian's kernel sits
# at ~1e-13 relative, its other eigenvalues are all equal.
RANK_REL_TOL = 1e-10


def dense_row(row, d: int) -> np.ndarray:
    """A stream row as a dense vector; sparse rows are (indices, values)."""
    if isinstance(row, tuple):
        out = np.zeros(d)
        out[row[0]] = row[1]
        return out
    return np.array(row, dtype=float)


class Reference:
    """Rows, Gram whitening and exact leverage of one stream."""

    def __init__(self, stream):
        self.n, self.d = stream.n, stream.d
        self.a = np.array([dense_row(stream.row(i), self.d) for i in range(self.n)])
        w, v = np.linalg.eigh(self.a.T @ self.a)
        support = w > RANK_REL_TOL * w[-1]
        # half' G half is the identity on the row space of G.
        self.half = v[:, support] / np.sqrt(w[support])
        self.kernel = v[:, ~support]
        coords = self.a @ self.half
        self.leverage = np.einsum("ij,ij->i", coords, coords)

    def eps_actual(self, weights: np.ndarray, rows: np.ndarray) -> float:
        """Largest |eigenvalue - 1| of the sketch Gram whitened by the stream Gram.

        Infinite when the sketch has mass off the stream's row space.
        """
        m = rows * weights[:, None]
        s = m.T @ m
        top = float(np.linalg.eigvalsh(s)[-1]) if m.size else 0.0
        if self.kernel.shape[1]:
            off = float(np.linalg.eigvalsh(self.kernel.T @ s @ self.kernel)[-1])
            if off > RANK_REL_TOL * top:
                return math.inf
        mu = np.linalg.eigvalsh(self.half.T @ s @ self.half)
        return float(np.max(np.abs(mu - 1.0)))


def check_sketch(ref: Reference, sketch, eps: float, verified, scores=None) -> list[str]:
    """Names of the checks one sampler output misses; empty when it passes.

    verified is the (eps_actual, overestimate_ok) pair the program's
    verify() returned for the same sketch and score log.
    """
    idx = np.asarray(sketch.indices, dtype=np.int64)
    weights = np.asarray(sketch.weights, dtype=float)
    if idx.size and (idx[0] < 0 or idx[-1] >= ref.n or np.any(np.diff(idx) <= 0)):
        return ["indices"]
    misses = []
    rows = np.array([dense_row(r, ref.d) for r in sketch.rows]).reshape(-1, ref.d)
    if not np.array_equal(rows, ref.a[idx]):
        misses.append("rows")
    if np.any(weights < 1.0):
        misses.append("weights")
    eps_ref = ref.eps_actual(weights, rows)
    if not eps_ref <= eps:
        misses.append("eps")
    eps_prog, audit_prog = verified
    if not (eps_ref == eps_prog or abs(eps_prog - eps_ref) <= EPS_AGREE_REL * abs(eps_ref)):
        misses.append("verify-eps")
    if scores is not None:
        logged = np.asarray(scores, dtype=float)
        dominates = logged.shape == ref.leverage.shape and bool(
            np.all(logged + SCORE_SLACK >= ref.leverage)
        )
        if not dominates:
            misses.append("scores")
        if audit_prog is not dominates:
            misses.append("verify-audit")
    return misses


def doubling_boundaries(n: int, d: int) -> int:
    """Count of block boundaries (2^i - 1) K below n, K = max(d, ceil(d ln d))."""
    k = max(d, math.ceil(d * math.log(d)))
    count = 0
    while (2 ** (count + 1) - 1) * k < n:
        count += 1
    return count


def resparsify_capacity(capacity_mult: float, beta: float, d: int) -> int:
    """C = ceil(capacity_mult * beta^-2 * d * ln d); the plug holds at most 2C rows."""
    return math.ceil(capacity_mult * beta ** -2 * d * math.log(d))
