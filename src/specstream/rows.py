"""Row payload helpers: a row is a dense 1-d array or a sparse (idx, val) pair.

Sparse payloads carry strictly increasing int64 column indices and float64
values. They are a storage format only: streams, sketches and files keep
them, and everything that scores a row or tests it against a kernel takes
it dense (densify, dense_rows).
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput


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


def checked_dense(row, dim: int):
    """densify for one row handed to a sampler's per-row entry.

    A stream validates its rows once; a row arriving on its own is checked
    here, before it reaches any sampler state: a dense row must have width
    dim, a sparse one valid column indices, and every value must be finite.
    """
    if is_sparse(row):
        out = densify(sparse_row(row[0], row[1], dim), dim)
    else:
        out = np.asarray(row, dtype=float)
        if out.shape != (dim,):
            raise DimensionMismatch(f"row of shape {out.shape} does not fit dimension {dim}")
    if not np.isfinite(out).all():
        raise NonFiniteInput("row holds a NaN or infinite value")
    return out


def dense_rows(rows, dim: int):
    """(len(rows), dim) array of sparse payloads, scattered in one index gather."""
    out = np.zeros((len(rows), dim))
    if rows:
        counts = [idx.size for idx, _ in rows]
        at = np.repeat(np.arange(len(rows)), counts)
        out[at, np.concatenate([idx for idx, _ in rows])] = np.concatenate([val for _, val in rows])
    return out


def quad_form(matrix, row) -> float:
    """row' matrix row for a dense row."""
    return float(row @ (matrix @ row))


def kernel_residual(projector, row) -> float:
    """||row - projector row|| for a dense row, formed entrywise.

    The residual vector is built before its norm is taken, so residuals
    near rounding level stay resolvable; expanding ||v||^2 - 2 v'Pv + ||Pv||^2
    instead cancels below about sqrt(machine eps) relative.
    """
    return float(np.linalg.norm(projector @ row - row))


def add_outer(gram, row, scale: float) -> None:
    """gram += scale * row row', in place."""
    if is_sparse(row):
        idx, val = row
        if idx.size:
            gram[np.ix_(idx, idx)] += scale * np.outer(val, val)
        return
    r = np.asarray(row, dtype=float)
    gram += scale * np.outer(r, r)
