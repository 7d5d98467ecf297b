"""Row payload helpers: a row is a dense 1-d array or a sparse (idx, val) pair.

Sparse payloads carry strictly increasing int64 column indices and float64
values. All helpers accept either form so samplers and scorers can stay
sparse-aware where the cost model depends on nnz.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch


def is_sparse(row) -> bool:
    return isinstance(row, tuple)


def sparse_row(idx, val, dim: int):
    """Validated sparse payload."""
    idx = np.asarray(idx, dtype=np.int64)
    val = np.asarray(val, dtype=float)
    if idx.shape != val.shape or idx.ndim != 1:
        raise DimensionMismatch("index/value arrays must be 1-d and equal length")
    if idx.size:
        if idx[0] < 0 or idx[-1] >= dim:
            raise DimensionMismatch(f"column index out of range for dim {dim}")
        if np.any(np.diff(idx) <= 0):
            raise DimensionMismatch("column indices must be strictly increasing")
    return (idx, val)


def densify(row, dim: int):
    if is_sparse(row):
        out = np.zeros(dim)
        idx, val = row
        out[idx] = val
        return out
    return np.asarray(row, dtype=float)


def dense_rows(rows, dim: int):
    """(len(rows), dim) array of sparse payloads, scattered in one index gather."""
    out = np.zeros((len(rows), dim))
    if rows:
        counts = [idx.size for idx, _ in rows]
        at = np.repeat(np.arange(len(rows)), counts)
        out[at, np.concatenate([idx for idx, _ in rows])] = np.concatenate([val for _, val in rows])
    return out


def nnz(row) -> int:
    if is_sparse(row):
        return int(row[0].size)
    return int(np.count_nonzero(row))


def norm(row) -> float:
    vals = row[1] if is_sparse(row) else row
    return float(np.linalg.norm(vals))


def is_zero(row) -> bool:
    if is_sparse(row):
        return row[1].size == 0 or not np.any(row[1])
    return not np.any(row)


def quad_form(matrix, row) -> float:
    """row' matrix row, touching only the nonzero block for sparse rows."""
    if is_sparse(row):
        idx, val = row
        if idx.size == 0:
            return 0.0
        return float(val @ (matrix[np.ix_(idx, idx)] @ val))
    r = np.asarray(row, dtype=float)
    return float(r @ (matrix @ r))


def matvec(matrix, row):
    """matrix @ row as a dense vector; O(rows(matrix) * nnz) for sparse rows."""
    if is_sparse(row):
        idx, val = row
        if idx.size == 0:
            return np.zeros(matrix.shape[0])
        return matrix[:, idx] @ val
    return matrix @ np.asarray(row, dtype=float)


def kernel_residual(projector, row) -> float:
    """||row - projector row||, formed entrywise for both row kinds.

    The residual vector is built before its norm is taken, so residuals
    near rounding level stay resolvable; expanding ||v||^2 - 2 v'Pv + ||Pv||^2
    instead cancels below about sqrt(machine eps) relative.
    """
    r = matvec(projector, row)  # a fresh array; its sign does not change the norm
    if is_sparse(row):
        idx, val = row
        r[idx] -= val
    else:
        r -= row
    return float(np.linalg.norm(r))


def add_outer(gram, row, scale: float) -> None:
    """gram += scale * row row', in place."""
    if is_sparse(row):
        idx, val = row
        if idx.size:
            gram[np.ix_(idx, idx)] += scale * np.outer(val, val)
        return
    r = np.asarray(row, dtype=float)
    gram += scale * np.outer(r, r)
