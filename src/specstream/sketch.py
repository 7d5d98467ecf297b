"""Weighted row sketches with provenance and an accumulated Gram, and the
record a sampler run reports beside its sketch."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rows as rowops
from .errors import DimensionMismatch
from .linalg import SymPsd


class Sketch:
    """Ordered weighted subset of stream rows.

    Entries are (source_index, weight, row) with strictly increasing source
    indices; a sampled row enters with weight 1/sqrt(p). The Gram of the
    weighted rows is accumulated on append, and a dense copy of the rows is
    kept beside their payloads for weighted_matrix.
    """

    def __init__(self, dim: int):
        if dim <= 0:
            raise DimensionMismatch("sketch dimension must be positive")
        self.dim = int(dim)
        self.indices: list[int] = []
        self.weights: list[float] = []
        self.rows: list = []
        self._gram = np.zeros((dim, dim))
        self._gram_sym: SymPsd | None = None
        self._dense = np.empty((0, dim))  # rows 0..n_rows-1 in use

    def _store(self, block) -> None:
        """Copy dense rows after the held ones, doubling the store when full."""
        n, m = self.n_rows, len(block)
        if n + m > len(self._dense):
            grown = np.empty((max(n + m, 2 * len(self._dense)), self.dim))
            grown[:n] = self._dense[:n]
            self._dense = grown
        self._dense[n:n + m] = block

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def append(self, index: int, weight: float, row) -> None:
        index = int(index)
        if self.indices and index <= self.indices[-1]:
            raise DimensionMismatch(
                f"source indices must increase: {index} after {self.indices[-1]}"
            )
        dense = rowops.densify(row, self.dim)
        if dense.shape != (self.dim,):
            raise DimensionMismatch(f"row does not fit dimension {self.dim}")
        self._store(dense[None, :])
        self.indices.append(index)
        self.weights.append(float(weight))
        self.rows.append(row)
        rowops.add_outer(self._gram, dense, weight * weight)
        self._gram_sym = None

    def append_rows(self, indices, weights, block, rows) -> None:
        """append for many rows at once: block holds them as a dense (m, d)
        array, rows their payloads; the Gram takes one product."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return
        if np.any(np.diff(indices) <= 0) or (self.indices and indices[0] <= self.indices[-1]):
            raise DimensionMismatch("source indices must increase")
        if np.shape(block) != (indices.size, self.dim) or len(rows) != indices.size:
            raise DimensionMismatch(f"rows do not fit dimension {self.dim}")
        weights = np.asarray(weights, dtype=float)
        scaled = block * weights[:, None]
        self._gram += scaled.T @ scaled
        self._store(block)
        self.indices.extend(indices.tolist())
        self.weights.extend(weights.tolist())
        self.rows.extend(rows)
        self._gram_sym = None

    @property
    def gram(self) -> SymPsd:
        """Gram of the weighted rows, rebuilt lazily after appends."""
        if self._gram_sym is None:
            self._gram_sym = SymPsd(self._gram)
        return self._gram_sym

    def gram_matrix(self) -> np.ndarray:
        """Raw accumulated Gram array (read-only by convention)."""
        return self._gram

    def weighted_matrix(self) -> np.ndarray:
        """Dense m x d matrix of rows scaled by their weights."""
        return self._dense[:self.n_rows] * np.asarray(self.weights)[:, None]

    def __iter__(self):
        return iter(zip(self.indices, self.weights, self.rows))

    def __repr__(self):
        return f"Sketch(dim={self.dim}, n_rows={self.n_rows})"


@dataclass
class RunStats:
    """What one sampler run reports beside its sketch.

    Every runner fills the first six fields: scores is the audit's score
    log (None for the barrier), max_working_rows the sketch's row count, or
    the plug's peak, and saturated counts the rows whose sampling
    probability was capped at 1 (for the block samplers, the seed block
    too). probs and gap_history come from the barrier sampler, the rest from
    the block samplers.
    """

    scores: np.ndarray | None
    score_total: float
    pinv_recomputes: int
    max_working_rows: int
    drift_events: int = 0
    saturated: int = 0
    probs: np.ndarray | None = None
    gap_history: list | None = None
    schedule: object = None
    block_sums: list[float] | None = None
    frozen_pinvs: list | None = None
    exact_scores: np.ndarray | None = None
    jl_scores: np.ndarray | None = None
    capacity_rows: int | None = None
    resparsify_passes: int | None = None
    resparsify_retries: int | None = None
