"""Sign-projection acceleration for relative-leverage scoring.

A frozen sketch M with Gram G gets a k x d score matrix N = Pi M G+ built
once per block; then a' G+ a is approximated by ||N a||^2 at cost
proportional to nnz(a) * k. Kernel membership cannot be read from ||N a||^2,
so every score runs an exact projector residual test first.
"""
from __future__ import annotations

import math

import numpy as np

from . import rows as rowops
from .errors import EmptySketch
from .linalg import DEFAULT_ORTHO_TOL, pinv
from .randomness import MASK64
from .sketch import Sketch

DEFAULT_JL_C = 8.0
DEFAULT_DISTORTION = 0.5
MIN_PROJECTION_ROWS = 4


class JlScorer:
    """Frozen score operator: relative scores q/(q+1) from projected forms."""

    def __init__(self, n_matrix, projector, k: int, distortion: float, ortho_tol: float):
        self.n_matrix = n_matrix
        self.projector = projector
        self.k = int(k)
        self.distortion = float(distortion)
        self.ortho_tol = float(ortho_tol)
        self.dim = projector.shape[0]
        self.ops = 0

    def quad(self, row) -> float:
        """Projected estimate of a' G+ a (no kernel handling)."""
        self.ops += rowops.nnz(row) * (self.k + self.dim)
        y = rowops.matvec(self.n_matrix, row)
        return float(y @ y)

    def score(self, row) -> float:
        """Relative score: exact kernel test, then q_hat / (q_hat + 1)."""
        if not rowops.on_image(self.projector, row, self.ortho_tol):
            return 1.0
        q = self.quad(row)
        return q / (q + 1.0)


def projection_rows(n_hint: int, c_jl: float = DEFAULT_JL_C) -> int:
    if c_jl < DEFAULT_JL_C:
        raise ValueError(f"c_jl must be >= {DEFAULT_JL_C}, got {c_jl}")
    return max(MIN_PROJECTION_ROWS, math.ceil(c_jl * math.log(max(int(n_hint), 2))))


def jl_build(
    sketch: Sketch,
    n_hint: int,
    seed: int,
    c_jl: float = DEFAULT_JL_C,
    distortion: float = DEFAULT_DISTORTION,
    ortho_tol: float = DEFAULT_ORTHO_TOL,
    debug_identity: bool = False,
) -> JlScorer:
    """Build the score operator for a frozen sketch.

    Pi has independent +/-1/sqrt(k) entries drawn from the seed; with
    debug_identity=True, Pi is the identity and the estimate collapses to
    the exact quadratic form for rows on the image.
    """
    if sketch.n_rows == 0:
        raise EmptySketch("cannot build a score operator from an empty sketch")
    p = pinv(sketch.gram)
    m = sketch.weighted_matrix()
    if debug_identity:
        k = sketch.n_rows
        pi = np.eye(k)
    else:
        k = projection_rows(n_hint, c_jl)
        gen = np.random.Generator(np.random.Philox(key=np.array([seed & MASK64, 0], dtype=np.uint64)))
        pi = (2.0 * gen.integers(0, 2, size=(k, sketch.n_rows)) - 1.0) / math.sqrt(k)
    n_matrix = pi @ m @ p.matrix
    return JlScorer(n_matrix, p.projector, k, distortion, ortho_tol)


def jl_score(scorer: JlScorer, row) -> float:
    """Module-level convenience wrapper around JlScorer.score."""
    return scorer.score(row)
