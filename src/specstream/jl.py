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
from .linalg import PInv, on_image_rows, pinv, relative_of
from .randomness import philox
from .rows import dimension
from .sketch import Sketch

# Projection rows: k = max(MIN_PROJECTION_ROWS, ceil(JL_C * ln n_hint)).
JL_C = 8.0
MIN_PROJECTION_ROWS = 4

# Relative error the projected form is allowed; block samplers inflate a
# projected score by 1 / (1 - JL_DISTORTION) to keep it an overestimate.
JL_DISTORTION = 0.5


class JlScorer:
    """Frozen score operator: relative scores q/(q+1) from projected forms."""

    def __init__(self, n_matrix, p: PInv):
        self.n_matrix, self.pinv = n_matrix, p

    def scores(self, block) -> np.ndarray:
        """Relative scores of a dense (b, d) block: the exact kernel test,
        then q_hat / (q_hat + 1) with q_hat = ||N a||^2."""
        y = block @ self.n_matrix.T
        return relative_of(on_image_rows(self.pinv, block), np.einsum("ij,ij->i", y, y))

    def score(self, row) -> float:
        """scores() of one dense row."""
        return float(self.scores(np.asarray(row, dtype=float)[None, :])[0])


def projection_rows(n_hint: int) -> int:
    return max(MIN_PROJECTION_ROWS, math.ceil(JL_C * math.log(max(dimension(n_hint, name="n_hint"), 2))))


def signs(seed: int, k: int, m: int) -> np.ndarray:
    """(k, m) +/-1/sqrt(k) entries equal to (2x - 1)/sqrt(k) for x = Generator(philox(
    seed, 0)).integers(0, 2, (k, m)): x_t is the top bit of 32-bit output t, the
    low, then high half of raw word t // 2, read by shifts to stay byte-order free."""
    words = philox(seed, 0).random_raw(-(-k * m // 2))
    bits = np.repeat(words, 2)
    bits[0::2] <<= np.uint64(32)
    bits &= np.uint64(1 << 63)
    bits ^= np.array(-1.0 / math.sqrt(k)).view(np.uint64)
    return bits[:k * m].view(np.float64).reshape(k, m)


def jl_build(sketch: Sketch, n_hint: int, seed: int) -> JlScorer:
    """Build the score operator for a frozen sketch; Pi is signs(seed, k, m)."""
    if sketch.n_rows == 0:
        raise EmptySketch("cannot build a score operator from an empty sketch")
    p = pinv(sketch.gram)
    m = sketch.weighted_matrix()
    return JlScorer(signs(seed, projection_rows(n_hint), sketch.n_rows) @ m @ p.matrix, p)

