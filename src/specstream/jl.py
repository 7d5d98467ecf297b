"""Frozen score operators for the block samplers, and the sign projection.

A block scores row a by q = ||N a||^2 for N frozen with U, the image basis of
the rows taken: N = W', the frozen sketch M's whitener (online.whitener,
G+ = W W'), gives a' G+ a, and N = Pi M G+, Pi a k x m sign matrix, an
estimate at one b x d by d x k product per block. The kernel verdicts come
from U as it stood (ImageBasis.on_image; none formed when U is full).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import EmptySketch
from .linalg import relative_of
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
    """Frozen score operator: relative scores q/(q+1) from forms q = ||N a||^2,
    with kernel verdicts from image, an online.ImageBasis frozen with N."""

    def __init__(self, n_matrix, image):
        self.n_matrix, self.image = n_matrix, image

    def scores(self, block) -> np.ndarray:
        """Relative scores of a dense (b, d) block: the kernel test on the
        frozen image, then q / (q + 1) with q = ||N a||^2."""
        y = block @ self.n_matrix.T
        return relative_of(self.image.on_image(block), np.einsum("ij,ij->i", y, y))

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


def jl_build(sketch: Sketch, g_pinv, image, n_hint: int, seed: int) -> JlScorer:
    """The score operator N = Pi M G+ of a frozen sketch M, for its G+ = g_pinv
    and the image its verdicts read; Pi is signs(seed, k, m)."""
    if sketch.n_rows == 0:
        raise EmptySketch("cannot build a score operator from an empty sketch")
    m = sketch.weighted_matrix()
    return JlScorer(signs(seed, projection_rows(n_hint), sketch.n_rows) @ m @ g_pinv, image)
