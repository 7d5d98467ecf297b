"""Weighted row sketches with provenance and an accumulated Gram, and the
record a sampler run reports beside its sketch."""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import rows as rowops
from .errors import DimensionMismatch, InvalidWeight, NonFiniteInput
from .linalg import SymPsd


class Sketch:
    """Ordered weighted subset of stream rows: the one store of weighted rows.

    Entries are (source_index, weight, dense row) with strictly increasing
    source indices and finite weights > 0; a sampled row enters with weight
    1/sqrt(p). Indices, weights and rows are numpy columns in a store that
    doubles when full; the Gram of the weighted rows takes one product per
    append_rows, _fold or _keep; append_rows checks its rows, and samplers
    _fold the rows they checked at entry. A sketch file takes a sparse
    row's entries from the stream the sketch was drawn from (io.write_sketch).
    """

    def __init__(self, dim: int):
        self.dim = dim = rowops.dimension(dim)
        self.n_rows = 0  # entries 0..n_rows-1 of the columns are in use
        self._gram = np.zeros((dim, dim))
        self._gram_sym: SymPsd | None = None
        self._indices = np.empty(0, dtype=np.int64)
        self._weights = np.empty(0)
        self._dense = np.empty((0, dim))

    @property
    def indices(self) -> list[int]:
        return self._indices[:self.n_rows].tolist()

    @property
    def weights(self) -> list[float]:
        return self._weights[:self.n_rows].tolist()

    @property
    def rows(self) -> np.ndarray:
        """(n_rows, d) view of the dense rows, valid until the next change."""
        return self._dense[:self.n_rows]

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indices, weights, dense rows) as views, valid until the next change."""
        n = self.n_rows
        return self._indices[:n], self._weights[:n], self._dense[:n]

    def append(self, index: int, weight: float, row) -> None:
        """append_rows for one row, dense or sparse."""
        self.append_rows([index], [weight], rowops.densify(row, self.dim)[None])

    def append_rows(self, indices, weights, block) -> None:
        """Append rows at once, held in block as a dense (m, d) array; the
        Gram takes one product. Raises before any state changes unless the
        indices are a 1-d integer array, >= 0 and increasing past the held
        ones, every row is finite and every weight is finite and > 0."""
        indices = np.asarray(indices)
        n, m = self.n_rows, indices.size
        if indices.ndim != 1 or m and indices.dtype.kind not in "iu":
            raise DimensionMismatch("source indices must be a 1-d integer array")
        if m == 0:
            return
        if int(indices[0]) < 0 or (indices[1:] <= indices[:-1]).any() or (
                n and indices[0] <= self._indices[n - 1]):
            raise DimensionMismatch("source indices must be >= 0 and increase")
        weights = np.asarray(weights, dtype=float)
        if np.shape(block) != (m, self.dim) or weights.shape != (m,):
            raise DimensionMismatch(f"rows do not fit dimension {self.dim}")
        if not np.isfinite(block).all():
            raise NonFiniteInput("sketch row holds a NaN or infinite value")
        if not ((weights > 0.0) & (weights < np.inf)).all():
            raise InvalidWeight("sketch weights must be finite and > 0")
        self._fold(indices, weights, block)

    def _fold(self, indices, weights, block) -> None:
        """append_rows' store write and Gram product, for m >= 0 rows that pass its checks."""
        n, m = self.n_rows, len(indices)
        if n + m > len(self._dense):
            size = max(n + m, 2 * len(self._dense))
            self._indices, self._weights, self._dense = (
                np.concatenate((a[:n], np.empty((size - n,) + a.shape[1:], a.dtype)))
                for a in (self._indices, self._weights, self._dense))
        self._indices[n:n + m] = indices
        self._weights[n:n + m] = weights
        self._dense[n:n + m] = block
        self.n_rows = n + m
        scaled = block * weights[:, None]
        self._gram += scaled.T @ scaled
        self._gram_sym = None

    def _keep(self, pos, weights) -> None:
        """Keep only the entries at pos, an increasing integer array of held
        positions, in order, at new finite weights > 0, one each; the Gram
        is formed again with one product."""
        m = self.n_rows = len(pos)
        self._indices[:m] = self._indices[pos]
        self._weights[:m] = weights
        self._dense[:m] = self._dense[pos]
        scaled = self._dense[:m] * self._weights[:m, None]
        self._gram = scaled.T @ scaled
        self._gram_sym = None

    @property
    def gram(self) -> SymPsd:
        """Gram of the weighted rows, rebuilt lazily after a change."""
        if self._gram_sym is None:
            self._gram_sym = SymPsd(self._gram)
        return self._gram_sym

    def gram_matrix(self) -> np.ndarray:
        """Raw accumulated Gram array (read-only by convention)."""
        return self._gram

    def weighted_matrix(self) -> np.ndarray:
        """Dense m x d matrix of rows scaled by their weights."""
        _, weights, dense = self.columns()
        return dense * weights[:, None]

    def __repr__(self):
        return f"Sketch(dim={self.dim}, n_rows={self.n_rows})"


@dataclass(kw_only=True)
class RunCounters:
    """A run's counters, declared once: RunStats reports them, each bench
    CSV row carries them as columns and the CLI sidecar's summary line
    carries those that are not None."""

    score_total: float
    pinv_recomputes: int
    max_working_rows: int
    drift_events: int = 0
    saturated: int = 0
    resparsify_passes: int | None = None

    def counters(self) -> dict:
        """The counters by name, in declared order."""
        return {f.name: getattr(self, f.name) for f in fields(RunCounters)}


@dataclass(kw_only=True)
class RunStats(RunCounters):
    """What one sampler run reports beside its sketch.

    Runners hand in their logs as lists of per-run arrays, joined here into
    one entry per row: probs, the p each row's coin was flipped against (a
    kept row weighs 1/sqrt(p)), and scores, the log verify audits (None for
    the barrier). score_total sums the scores (the barrier's probs), and
    saturated counts the rows at p = 1. max_working_rows is the sketch's
    row count, or the plug's peak; resparsify_passes is None without a
    resparsify plug. A block run adds frozen_pinvs and its schedule, the
    rows it froze at: its per-block score mass is np.add.reduceat(scores, [0, *schedule]).
    """

    score_total: float = field(init=False)
    saturated: int = field(init=False)
    scores: np.ndarray | None = None
    probs: np.ndarray
    schedule: tuple[int, ...] | None = None
    frozen_pinvs: list | None = None

    def __post_init__(self):
        self.scores, self.probs = (None if log is None else np.concatenate([np.empty(0), *log])
                                   for log in (self.scores, self.probs))
        self.score_total = float(np.sum(self.probs if self.scores is None else self.scores))
        self.saturated = int(np.count_nonzero(self.probs == 1.0))
