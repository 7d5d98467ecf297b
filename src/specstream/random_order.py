"""Random-order block samplers with frozen scoring sketches.

The seed block (first K rows) passes through verbatim; afterwards the stream
is cut into doubling blocks and every row in a block is scored against one
matrix frozen at the block boundary, so the pseudo-inverse is recomputed
only O(log n) times. One BlockSampler covers both variants: the scaled one
freezes its own sketch, the improved one freezes a pluggable constant-factor
approximation fed with every arriving row.

Rows arrive in runs (add_rows), each a dense (b, d) array. A run is split
at the end of the seed block and at every freeze boundary, and each segment
costs one product against the frozen pseudo-inverse (or the JL score
matrix), one IndexedUniforms.take_range for its coins, one Gram product to
fold its kept rows into the sketch, and one add_rows into the plug. The
resparsify plug splits its runs again where its buffer reaches 2C, so every
pass fires on the row it would fire on one row at a time. step and add are
one-row runs.
"""
from __future__ import annotations

import math

import numpy as np

from . import rows as rowops
from .errors import (
    CapacityCollapse,
    ConstApproxFailure,
    DimensionMismatch,
    EmptyStream,
)
from .instances import RowStream
from .jl import JL_DISTORTION, JlScorer, jl_build
from .linalg import PInv, SymPsd, pinv, quad_forms, relative_scores
from .online import feed, sampling_constant
from .randomness import IndexedUniforms, derive_seed, philox
from .sketch import RunStats, Sketch

# Leading constant of c = C * eps^-2 * ln d for the block samplers.
DEFAULT_SCALED_C_MULT = 6.0

# Score multiplier of the improved variant (the plug is a constant-factor
# approximation, so the margin does not depend on eps).
PLUG_MULTIPLIER = 2.0


def seed_block_size(d: int) -> int:
    """K = max(d, ceil(d ln d)), d >= 2: rows passed through before scoring starts."""
    d = rowops.dimension(d, least=2)
    return max(d, math.ceil(d * math.log(d)))


class BlockSampler:
    """Random-order block sampler, with or without a constant-factor plug.

    Without a plug, each block is scored against the sampler's own sketch
    frozen at the block boundary, with multiplier 1 + eps. With a plug
    (approx), every row is fed to it and each block is scored against the
    plug's query() frozen at the boundary, with multiplier PLUG_MULTIPLIER.
    The sampler is itself a plug: add_rows() consumes a run of rows, query()
    exposes the current sketch, and peak_rows is its row count.

    A plug implements add_rows(lo, block), query() and peak_rows (the most
    rows it has held), the run's working set; a plug whose query() has
    another dim is refused at construction. A block freezes on its first
    row, boundary b is followed by 2b + K, and boundaries records each
    freeze's row, so a run's schedule and pinv count report what it did.
    """

    def __init__(
        self,
        dim: int,
        eps: float,
        seed: int,
        approx=None,
        c_mult: float = DEFAULT_SCALED_C_MULT,
        use_jl: bool = False,
        n_hint: int | None = None,
    ):
        self.dim = dim = rowops.dimension(dim)
        self.c = sampling_constant(eps, dim, c_mult)
        if use_jl and n_hint is None:
            raise ValueError("JL scoring needs n_hint to size the projection")
        self.n_hint = None if n_hint is None else rowops.dimension(n_hint, name="n_hint")
        self.rng = IndexedUniforms(seed)
        if approx is not None and (plug_dim := approx.query().dim) != dim:
            raise DimensionMismatch(f"plug of dimension {plug_dim} for dim {dim}")
        self.k = seed_block_size(dim)
        self.multiplier = (1.0 + eps) if approx is None else PLUG_MULTIPLIER
        self.approx = approx
        self.use_jl = bool(use_jl)
        self.sketch = Sketch(dim)
        self.count = 0
        self.next_boundary = self.k
        self.boundaries: list[int] = []
        self.frozen: PInv | None = None
        self.jl: JlScorer | None = None
        # one array per segment
        self.scores: list[np.ndarray] = []
        self.frozen_pinvs: list[np.ndarray] = []
        self.saturated = 0
        self.last_index = -1
        # Gram of every row fed to the plug; only its rank is read, to catch
        # a plug that loses a direction.
        self._fed_gram = None if approx is None else np.zeros((dim, dim))

    # -- ConstApprox contract -------------------------------------------------
    @property
    def peak_rows(self) -> int:
        """The sketch only grows, so the rows it holds are its peak."""
        return self.sketch.n_rows

    def add(self, index: int, row) -> None:
        self.step(index, row)

    def query(self) -> Sketch:
        """Current sketch; valid until the next add."""
        return self.sketch

    # -------------------------------------------------------------------------

    def step(self, index: int, row) -> bool:
        """Take one row (dense or sparse); True when it was kept."""
        return bool(self.add_rows(index, rowops.densify(row, self.dim)[None])[0])

    def add_rows(self, lo: int, block) -> np.ndarray:
        """Take a run of rows with source indices lo, lo + 1, ...

        block is the dense (b, d) array of the rows; the run is checked
        (rows.checked_run) before any state changes. Returns the kept mask.
        """
        lo, block, self.last_index = rowops.checked_run(block, self.dim, lo, self.last_index)
        kept = np.empty(len(block), dtype=bool)
        start = 0
        while start < len(block):
            j = self.count
            if j == self.next_boundary:
                self._freeze()
                self.boundaries.append(j)
                self.next_boundary = 2 * j + self.k
            # the seed block ends where the first boundary is
            stop = start + min(len(block) - start, self.next_boundary - j)
            kept[start:stop] = self._segment(lo + start, block[start:stop])
            start = stop
        return kept

    def _segment(self, lo: int, seg) -> np.ndarray:
        """Score, flip and fold rows that share one frozen matrix, then feed them."""
        j = self.count
        if j < self.k:
            lev = p = np.ones(len(seg))
            keep = np.ones(len(seg), dtype=bool)
        else:
            lev = self._levels(seg)
            p = np.minimum(self.c * lev, 1.0)
            keep = self.rng.take_range(j, j + len(seg)) < p
        self.scores.append(lev)
        self.saturated += int(np.count_nonzero(p == 1.0))
        pos = np.flatnonzero(keep)
        if pos.size:  # checked at entry, and each p beat its coin, so p > 0
            self.sketch._fold(lo + pos, 1.0 / np.sqrt(p[pos]), seg[pos])
        self.count += len(seg)
        if self.approx is not None:
            self.approx.add_rows(lo, seg)
            self._fed_gram += seg.T @ seg
        return keep

    def _levels(self, seg) -> np.ndarray:
        """Capped sampling scores of in-block rows."""
        if self.jl is None:
            raw = relative_scores(self.frozen, seg)
        else:
            raw = self.jl.scores(seg) / (1.0 - JL_DISTORTION)
        return np.minimum(self.multiplier * raw, 1.0)

    def _snapshot(self) -> Sketch:
        """Sketch to freeze: the plug's, checked against the rank fed to it."""
        if self.approx is None:
            return self.sketch
        snapshot = self.approx.query()
        fed_rank = SymPsd(self._fed_gram).rank
        got = snapshot.gram.rank
        if got < fed_rank:
            raise ConstApproxFailure(
                f"plug rank {got} below fed rank {fed_rank} at row {self.count}"
            )
        return snapshot

    def _freeze(self):
        snapshot = self._snapshot()
        if self.use_jl:
            # the scorer holds the pseudo-inverse of the same Gram
            self.jl = jl_build(snapshot, self.n_hint, derive_seed(self.rng.seed, len(self.frozen_pinvs) + 1))
            self.frozen = self.jl.pinv
        else:
            self.frozen = pinv(snapshot.gram)
        self.frozen_pinvs.append(self.frozen.matrix)

    def finalize(self) -> tuple[Sketch, RunStats]:
        scores = np.concatenate(self.scores) if self.scores else np.empty(0)
        return self.sketch, RunStats(
            scores=scores,
            pinv_recomputes=len(self.frozen_pinvs),
            max_working_rows=self.peak_rows if self.approx is None else self.approx.peak_rows,
            saturated=self.saturated,
            schedule=tuple(self.boundaries),
            frozen_pinvs=self.frozen_pinvs,
            resparsify_passes=getattr(self.approx, "passes", None),
        )


# The scaled (no plug) and improved (plugged) names stay public: tests and
# the benchmark's tracer reach the sampler through both.
ScaledSampler = ImprovedSampler = BlockSampler


def scaled_sampling(stream: RowStream, eps: float, seed: int, approx=None,
                    **config) -> tuple[Sketch, RunStats]:
    """Run the block sampler over a whole stream (online.feed), with an optional plug."""
    if stream.n == 0:
        raise EmptyStream("empty stream")
    config.setdefault("n_hint", stream.n)
    return feed(BlockSampler(stream.d, eps, seed, approx, **config), stream).finalize()


class ResparsifyApprox:
    """Bounded-memory plug: resample the buffer by its own leverage scores.

    Holds at most 2C weighted rows with C = ceil(capacity_mult * beta^-2 *
    d * ln d). Reaching 2C triggers a resparsify pass: every held row is
    scored by the buffer Gram's pseudo-inverse, kept with p = min(c_beta *
    tau, 1), and surviving weights compound by 1/sqrt(p). A pass expects
    at most C survivors, so one that keeps 2C raises CapacityCollapse.
    The buffer is a Sketch, so a pass scores it with one product and keeps
    its survivors in place with another. passes counts the passes made.
    """

    def __init__(self, capacity_mult: float, beta: float, seed: int, dim: int):
        if not 0.0 < beta < 0.5:
            raise ValueError(f"beta must be in (0, 1/2), got {beta}")
        if not 4.0 <= capacity_mult < math.inf:
            raise ValueError(f"capacity_mult must be finite and >= 4, got {capacity_mult}")
        self.dim = dim = rowops.dimension(dim, least=2)  # the resparsify plug needs d >= 2
        self.seed = rowops.source_index(seed, "seed")
        self.c_beta = sampling_constant(beta, dim, capacity_mult)
        self.capacity_rows = math.ceil(self.c_beta * dim)
        self.buffer = Sketch(dim)
        self.passes = 0
        self.peak_rows = 0
        self.last_index = -1

    @property
    def n_rows(self) -> int:
        return self.buffer.n_rows

    def add(self, index: int, row) -> None:
        self.add_rows(index, rowops.densify(row, self.dim)[None])

    def add_rows(self, lo: int, block) -> None:
        """Append a checked run of rows at weight 1, split where the buffer reaches 2C."""
        lo, block, self.last_index = rowops.checked_run(block, self.dim, lo, self.last_index)
        full = 2 * self.capacity_rows
        start = 0
        while start < len(block):
            stop = start + min(len(block) - start, full - self.n_rows)
            self.buffer._fold(np.arange(lo + start, lo + stop), np.ones(stop - start), block[start:stop])
            self.peak_rows = max(self.peak_rows, self.n_rows)
            if self.n_rows >= full:
                self._resparsify()
            start = stop

    def _resparsify(self):
        _, w, held = self.buffer.columns()
        tau = np.minimum(w * w * quad_forms(pinv(self.buffer.gram), held), 1.0)
        probs = np.minimum(self.c_beta * tau, 1.0)
        # Pass k keys its draws (seed, 2k), the key seeded runs have always
        # drawn it on, so they keep their draws; the odd keys stay unused.
        draws = np.random.Generator(philox(self.seed, 2 * self.passes)).random(len(held))
        pos = np.flatnonzero(draws < probs)
        if pos.size >= 2 * self.capacity_rows:
            raise CapacityCollapse(
                f"buffer stuck at {len(held)} rows with capacity {self.capacity_rows}"
            )
        self.buffer._keep(pos, w[pos] / np.sqrt(probs[pos]))
        self.passes += 1

    def query(self) -> Sketch:
        """The held rows folded afresh with one product, for a block sampler to freeze."""
        sk = Sketch(self.dim)
        sk._fold(*self.buffer.columns())
        return sk


def improved_scaled_sampling(stream: RowStream, eps: float, seed: int, approx,
                             **config) -> tuple[Sketch, RunStats]:
    """Run the block sampler over a whole stream with a given plug."""
    return scaled_sampling(stream, eps, seed, approx, **config)
