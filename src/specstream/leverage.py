"""Leverage scores: exact and relative to a sketch.

The relative score of a row a against a PSD matrix X, a' (X + aa')+ a, has
the closed form q / (q + 1) with q = a' X+ a when a lies on the image of
X, and is exactly 1 otherwise. relative_of applies it to kernel verdicts
and forms a caller took; relative_scores takes both for a block of rows
with one product. The definitional stacked-matrix form appears only as a
test oracle.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EmptyStream
from .linalg import PInv, SymPsd, on_image_rows


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
    s = SymPsd(a.T @ a)
    c = a @ (s.eigenvectors[:, :s.rank] / np.sqrt(s.eigenvalues[:s.rank]))
    return np.clip(np.einsum("ij,ij->i", c, c), 0.0, 1.0)


def quad_forms(p: PInv, block) -> np.ndarray:
    """row' X+ row, clamped at 0, for every row of a dense (b, d) block."""
    return np.maximum(np.einsum("ij,ij->i", block @ p.matrix, block), 0.0)


def relative_of(on, q) -> np.ndarray:
    """Relative scores from kernel verdicts on and quadratic forms q >= 0."""
    return np.where(on, q / (q + 1.0), 1.0)


def relative_scores(p: PInv, block) -> np.ndarray:
    """Relative score of every row of a dense (b, d) block against the
    matrix X behind p = pinv(X), with one product."""
    return relative_of(on_image_rows(p, block), quad_forms(p, block))


def relative_leverage(b_pinv: PInv, row) -> float:
    """relative_scores of one dense row."""
    return float(relative_scores(b_pinv, np.asarray(row, dtype=float)[None])[0])
