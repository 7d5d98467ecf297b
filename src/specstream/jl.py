"""Sign-projection acceleration for relative-leverage scoring.

A frozen sketch M with Gram G gets a k x d score matrix N = Pi M G+ built
once per block; then a' G+ a is approximated by ||N a||^2, and a block of
b rows costs one b x d by d x k product in place of a b x d by d x d one.
Kernel membership cannot be read from ||N a||^2, so every score takes its
kernel verdict from the exact test on pinv(G), which forms no residual when
G has full rank.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import EmptySketch
from .leverage import relative_of
from .linalg import PInv, on_image_rows, pinv
from .randomness import MASK64
from .sketch import Sketch

# Projection rows: k = max(MIN_PROJECTION_ROWS, ceil(JL_C * ln n_hint)).
JL_C = 8.0
MIN_PROJECTION_ROWS = 4

# Relative error the projected form is allowed; block samplers inflate a
# projected score by 1 / (1 - JL_DISTORTION) to keep it an overestimate.
JL_DISTORTION = 0.5


class JlScorer:
    """Frozen score operator: relative scores q/(q+1) from projected forms."""

    def __init__(self, n_matrix, p: PInv, k: int):
        self.n_matrix = n_matrix
        self.pinv = p
        self.k = int(k)

    def scores(self, block) -> np.ndarray:
        """Relative scores of a dense (b, d) block: the exact kernel test,
        then q_hat / (q_hat + 1) with q_hat = ||N a||^2."""
        y = block @ self.n_matrix.T
        return relative_of(on_image_rows(self.pinv, block), np.einsum("ij,ij->i", y, y))

    def score(self, row) -> float:
        """scores() of one dense row."""
        return float(self.scores(np.asarray(row, dtype=float)[None, :])[0])


def projection_rows(n_hint: int) -> int:
    return max(MIN_PROJECTION_ROWS, math.ceil(JL_C * math.log(max(int(n_hint), 2))))


def jl_build(sketch: Sketch, n_hint: int, seed: int) -> JlScorer:
    """Build the score operator for a frozen sketch.

    Pi has independent +/-1/sqrt(k) entries drawn from the seed.
    """
    if sketch.n_rows == 0:
        raise EmptySketch("cannot build a score operator from an empty sketch")
    p = pinv(sketch.gram)
    m = sketch.weighted_matrix()
    k = projection_rows(n_hint)
    gen = np.random.Generator(np.random.Philox(key=np.array([seed & MASK64, 0], dtype=np.uint64)))
    pi = (2.0 * gen.integers(0, 2, size=(k, sketch.n_rows)) - 1.0) / math.sqrt(k)
    n_matrix = pi @ m @ p.matrix
    return JlScorer(n_matrix, p, k)

