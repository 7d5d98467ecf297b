"""Leverage scores: exact and relative to a sketch.

The relative score of a row against a matrix B uses the closed form
q / (q + 1) with q = a' (B'B)+ a when a is orthogonal to Ker(B), and is
exactly 1 otherwise. The definitional stacked-matrix form appears only as a
test oracle.
"""
from __future__ import annotations

import numpy as np

from . import rows as rowops
from .errors import DimensionMismatch, EmptyStream
from .linalg import PInv, SymPsd, on_image, on_image_rows, pinv


def leverage_scores(rows_in) -> np.ndarray:
    """Exact leverage scores tau_i = a_i' (A'A)+ a_i of a materialized matrix.

    Accepts an (n, d) array or anything with materialize() returning one.
    The scores, clipped to [0, 1], sum to rank(A).
    """
    a = rows_in.materialize() if hasattr(rows_in, "materialize") else np.asarray(rows_in, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d row matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise EmptyStream("no rows to score")
    p = pinv(SymPsd(a.T @ a))
    tau = np.einsum("ij,jk,ik->i", a, p.matrix, a)
    return np.clip(tau, 0.0, 1.0)


def relative_score(p: PInv, row) -> tuple[bool, float]:
    """(row on the image of X, relative score of row against X), for p = pinv(X).

    The score is row' (X + row row')+ row: q / (q + 1) with q = row' X+ row
    on the image, exactly 1 off it, for a dense row.
    """
    if not on_image(p, row):
        return False, 1.0
    q = max(rowops.quad_form(p.matrix, row), 0.0)
    return True, q / (q + 1.0)


def quad_forms(p: PInv, block) -> np.ndarray:
    """row' X+ row, clamped at 0, for every row of a dense (b, d) block."""
    return np.maximum(np.einsum("ij,ij->i", block @ p.matrix, block), 0.0)


def relative_of(on, q) -> np.ndarray:
    """Relative scores from kernel verdicts on and quadratic forms q >= 0."""
    return np.where(on, q / (q + 1.0), 1.0)


def relative_scores(p: PInv, block, q=None) -> np.ndarray:
    """relative_score of every row of a dense (b, d) block, with one product.

    q, when given, estimates the rows' quadratic forms in place of the
    exact ones; the kernel verdict is always exact.
    """
    if q is None:
        q = quad_forms(p, block)
    return relative_of(on_image_rows(p, block), q)


def relative_leverage(b_pinv: PInv, row) -> float:
    """Relative leverage of row against the matrix behind b_pinv."""
    return relative_score(b_pinv, row)[1]
