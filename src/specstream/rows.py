"""Row helpers: a row is a dense 1-d array or a sparse (idx, val) pair.

Sparse rows carry strictly increasing int64 column indices and float64
values, and a sparse stream holds them as CSR arrays (SparseRows). They are
a storage and file format only: samplers and sketches take rows dense.
"""
from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, RowNormOutOfRange

_TINY = np.finfo(float).tiny  # the least normal float


class SparseRows:
    """Sparse rows as CSR arrays: row i holds columns indices[indptr[i]:indptr[i + 1]]
    with values data[indptr[i]:indptr[i + 1]].

    A row's (idx, val) views are built when it is read; a slice shares the
    arrays and an index array gathers its rows in one step.
    """

    def __init__(self, indptr, indices, data):
        self.indptr, self.indices, self.data = indptr, indices, data

    @classmethod
    def of_pairs(cls, pairs) -> "SparseRows":
        """Rows from a sequence of (idx, val) pairs."""
        pairs = [(np.asarray(i, dtype=np.int64), np.asarray(v, dtype=float)) for i, v in pairs]
        if any(i.ndim != 1 or i.shape != v.shape for i, v in pairs):
            raise DimensionMismatch("index/value arrays must be 1-d and equal length")
        return cls(np.cumsum([0] + [i.size for i, _ in pairs]),
                   np.concatenate([np.empty(0, np.int64)] + [i for i, _ in pairs]),
                   np.concatenate([np.empty(0)] + [v for _, v in pairs]))

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, key):
        if isinstance(key, slice):
            lo, hi, step = key.indices(len(self))
            if step == 1:
                s, e = self.indptr[lo], self.indptr[max(hi, lo)]
                return SparseRows(self.indptr[lo:max(hi, lo) + 1] - s, self.indices[s:e], self.data[s:e])
            key = np.arange(lo, hi, step)
        if isinstance(key, np.ndarray):
            counts = np.diff(self.indptr)[key]
            indptr = np.cumsum(np.concatenate(([0], counts)))
            at = np.repeat(self.indptr[key] - indptr[:-1], counts) + np.arange(indptr[-1])
            return SparseRows(indptr, self.indices[at], self.data[at])
        i = range(len(self))[key]  # IndexError past the end ends iteration
        s, e = self.indptr[i], self.indptr[i + 1]
        return self.indices[s:e], self.data[s:e]

    def _entry_rows(self) -> np.ndarray:
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def dense(self, dim: int) -> np.ndarray:
        """(len(self), dim) array of the rows, scattered in one index assignment."""
        out = np.zeros((len(self), dim))
        out[self._entry_rows(), self.indices] = self.data
        return out

    def check(self, dim: int) -> None:
        """Raise DimensionMismatch unless these are rows of width dim: every
        column in [0, dim) and strictly increasing within its row (a row may
        start below the column the previous row ended on)."""
        indptr, indices = self.indptr, self.indices
        if indices.ndim != 1 or indices.shape != self.data.shape:
            raise DimensionMismatch("index/value arrays must be 1-d and equal length")
        if len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
            raise DimensionMismatch("row pointers must rise from 0 to the entry count")
        if indices.size and (indices.min() < 0 or indices.max() >= dim):
            raise DimensionMismatch(f"column index out of range for dim {dim}")
        # offset by row * dim, the columns rise overall exactly when they rise in every row
        if np.any(np.diff(indices + self._entry_rows() * dim) <= 0):
            raise DimensionMismatch("column indices must be strictly increasing")


def is_sparse(row) -> bool:
    return isinstance(row, tuple)


def sparse_row(idx, val, dim: int):
    """Validated sparse payload."""
    idx, val = np.asarray(idx, dtype=np.int64), np.asarray(val, dtype=float)
    SparseRows(np.array([0, idx.size]), idx, val).check(dim)
    return (idx, val)


def densify(row, dim: int):
    """Dense float copy of a row; a sparse row's columns are checked first."""
    if is_sparse(row):
        idx, val = sparse_row(row[0], row[1], dim)
        out = np.zeros(dim)
        out[idx] = val
        return out
    return np.asarray(row, dtype=float)


def source_index(i, name: str = "source index") -> int:
    """i as an int; DimensionMismatch unless it is one (operator.index)."""
    try:
        return operator.index(i)
    except TypeError:
        raise DimensionMismatch(f"{name} {i!r} is not an integer") from None


def dimension(dim, least: int = 1, name: str = "dimension") -> int:
    """dim as an int >= least; DimensionMismatch naming it otherwise (source_index's check)."""
    if (d := source_index(dim, name)) < least:
        raise DimensionMismatch(f"{name} {d} is below {least}")
    return d


def checked_run(block, dim: int, lo: int, last_index: int):
    """(lo as an int, dense float block, last index taken) for a run that an
    add_rows entry takes at source index lo after last_index; an empty run
    takes no index.

    Every entry checks its run here before any state changes and indexes it
    from the lo returned; a per-row entry's row is a one-row run, densify(row)[None].
    A row holding a NaN or inf raises NonFiniteInput, and a nonzero row whose
    squared norm is not a normal float (below np.finfo(float).tiny, where
    its products lose their bits, or past the largest) RowNormOutOfRange,
    each naming the first such row; zero rows pass.
    """
    lo, block = source_index(lo), np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[1] != dim:
        raise DimensionMismatch(f"block {block.shape} does not fit dim {dim}")
    if len(block) and lo <= last_index:
        raise DimensionMismatch(f"row index {lo} not increasing")
    sq = np.einsum("ij,ij->i", block, block)  # one pass; NaN or inf for a row holding one
    if len(block) and not (_TINY <= sq.min() and sq.max() < np.inf):
        off = np.flatnonzero(~((sq >= _TINY) & (sq < np.inf)) & np.any(block != 0.0, axis=1))
        if off.size:
            i = int(off[0])
            if not np.isfinite(block[i]).all():
                raise NonFiniteInput(f"row {lo + i} holds a NaN or infinite value")
            raise RowNormOutOfRange(f"row {lo + i} has squared norm {sq[i]:.3e}, not a normal float")
    return lo, block, lo + len(block) - 1 if len(block) else last_index


# Only the benchmark's tracer reaches quad_form, kernel_residual and add_outer: it patches them.
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
    """gram += scale * row row', in place, for a dense or sparse row."""
    r = densify(row, len(gram))
    gram += scale * np.outer(r, r)
