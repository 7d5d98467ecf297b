"""Leverage scores: exact, relative-to-a-sketch, and uniform overestimates.

The relative score of a row against a matrix B uses the closed form
q / (q + 1) with q = a' (B'B)+ a when a is orthogonal to Ker(B), and is
exactly 1 otherwise. The definitional stacked-matrix form appears only as a
test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rows as rowops
from .errors import DimensionMismatch, EmptyStream
from .linalg import DEFAULT_ORTHO_TOL, PInv, SymPsd, pinv

SCORE_KINDS = ("exact", "relative", "overestimate")

# Producers may overshoot [0, 1] by floating-point noise only.
CLAMP_SLACK = 1e-9


@dataclass(frozen=True)
class ScoreVector:
    """Scores in [0, 1] with their kind and the source matrix shape."""

    scores: np.ndarray
    kind: str
    source_dims: tuple[int, int]

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}")

    @property
    def total(self) -> float:
        return float(np.sum(self.scores))


def leverage_scores(rows_in) -> ScoreVector:
    """Exact leverage scores tau_i = a_i' (A'A)+ a_i of a materialized matrix.

    Accepts an (n, d) array or anything with materialize() returning one.
    The scores sum to rank(A).
    """
    a = rows_in.materialize() if hasattr(rows_in, "materialize") else np.asarray(rows_in, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d row matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise EmptyStream("no rows to score")
    p = pinv(SymPsd(a.T @ a))
    tau = np.einsum("ij,jk,ik->i", a, p.matrix, a)
    return ScoreVector(np.clip(tau, 0.0, 1.0), "exact", a.shape)


def relative_leverage(b_pinv: PInv, row, ortho_tol: float = DEFAULT_ORTHO_TOL) -> float:
    """Relative leverage of row against the matrix behind b_pinv.

    q / (q + 1) on the image, exactly 1 off it. Rows may be dense or sparse.
    """
    if rowops.on_image(b_pinv.projector, row, ortho_tol):
        q = max(rowops.quad_form(b_pinv.matrix, row), 0.0)
        return q / (q + 1.0)
    return 1.0


def uniform_overestimate(sample_pinv: PInv, row, ortho_tol: float = DEFAULT_ORTHO_TOL) -> float:
    """Leverage overestimate from a uniformly sampled submatrix.

    min(a' (S'S)+ a, 1) when a is orthogonal to Ker(S), else 1.
    """
    if rowops.on_image(sample_pinv.projector, row, ortho_tol):
        q = max(rowops.quad_form(sample_pinv.matrix, row), 0.0)
        return min(q, 1.0)
    return 1.0
