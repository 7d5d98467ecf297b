"""Random-order block samplers with frozen scoring sketches.

The seed block (first K rows) passes through verbatim; afterwards the stream
is cut into doubling blocks and every row in a block is scored against one
matrix frozen at the block boundary, so the pseudo-inverse is recomputed
only O(log n) times. One BlockSampler covers both variants: the scaled one
freezes its own sketch, the improved one freezes a pluggable constant-factor
approximation fed with every arriving row.

Rows arrive in runs (add_rows): a dense (b, d) array plus the rows'
payloads. A run is split at the end of the seed block and at every freeze
boundary, and each segment costs one product against the frozen
pseudo-inverse (or the JL score matrix), one IndexedUniforms.take_range for
its coins, one Gram product to fold its kept rows into the sketch, and one
add_rows into the plug. The resparsify plug splits its runs again where its
buffer reaches 2C, so every pass fires on the row it would fire on one row
at a time. step and add are one-row runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
from .leverage import relative_scores
from .linalg import PInv, SymPsd, pinv
from .online import sampling_constant
from .randomness import CHUNK, MASK64, IndexedUniforms, derive_seed
from .sketch import RunStats, Sketch

# Leading constant of c = C * eps^-2 * ln d for the block samplers.
DEFAULT_SCALED_C_MULT = 6.0

# Score multiplier of the improved variant (the plug is a constant-factor
# approximation, so the margin does not depend on eps).
PLUG_MULTIPLIER = 2.0


def seed_block_size(d: int) -> int:
    """K = max(d, ceil(d ln d)): rows passed through before scoring starts."""
    if d < 2:
        raise DimensionMismatch("block samplers need d >= 2")
    return max(d, math.ceil(d * math.log(d)))


@dataclass(frozen=True)
class BlockSchedule:
    """Seed block size, scored-block boundaries (2^i - 1)K, and their count."""

    k: int
    boundaries: tuple[int, ...]
    alpha: int

    @classmethod
    def for_stream(cls, n: int, d: int):
        k = seed_block_size(d)
        bounds = []
        b = k
        while b < n:
            bounds.append(b)
            b = 2 * b + k
        return cls(k, tuple(bounds), len(bounds))


class BlockSampler:
    """Random-order block sampler, with or without a constant-factor plug.

    Without a plug, each block is scored against the sampler's own sketch
    frozen at the block boundary, with multiplier 1 + eps. With a plug
    (approx), every row is fed to it and each block is scored against the
    plug's query() frozen at the boundary, with multiplier PLUG_MULTIPLIER.
    The sampler is itself a plug: add_rows() consumes a run of rows, query()
    exposes the current sketch.

    A plug implements add_rows(lo, block, rows) and query(); peak_rows, when
    present, is read as the rows it holds at most.
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
        jl_audit: bool = False,
    ):
        if not 0.0 < eps <= 0.5:
            raise ValueError(f"eps must be in (0, 1/2], got {eps}")
        if not 0.0 < c_mult < math.inf:
            raise ValueError(f"c_mult must be finite and > 0, got {c_mult}")
        if use_jl and n_hint is None:
            raise ValueError("JL scoring needs n_hint to size the projection")
        self.dim = int(dim)
        self.eps = float(eps)
        self.k = seed_block_size(dim)
        self.c = sampling_constant(eps, max(dim, 2), c_mult)
        self.multiplier = (1.0 + eps) if approx is None else PLUG_MULTIPLIER
        self.seed = int(seed)
        self.approx = approx
        self.use_jl = bool(use_jl)
        self.jl_audit = bool(jl_audit)
        self.n_hint = n_hint
        self.sketch = Sketch(dim)
        self.rng = IndexedUniforms(seed)
        self.count = 0
        self.next_boundary = self.k
        self.frozen: PInv | None = None
        self.jl: JlScorer | None = None
        self.freeze_rows: list[int] = []
        # one array per segment
        self.scores: list[np.ndarray] = []
        self.exact_scores: list[np.ndarray] = []
        self.jl_scores: list[np.ndarray] = []
        self.block_sums: list[float] = [0.0]
        self.frozen_pinvs: list[np.ndarray] = []
        self.max_working_rows = 0
        self.saturated = 0
        self.last_index = -1
        # Gram of every row fed to the plug; only its rank is read, to catch
        # a plug that loses a direction.
        self._fed_gram = None if approx is None else np.zeros((dim, dim))

    # -- ConstApprox contract -------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.sketch.n_rows

    def add(self, index: int, row) -> None:
        self.step(index, row)

    def query(self) -> Sketch:
        """Current sketch; valid until the next add."""
        return self.sketch

    # -------------------------------------------------------------------------

    def step(self, index: int, row) -> bool:
        """Take one row (dense or sparse); True when it was kept."""
        return bool(self.add_rows(index, rowops.densify(row, self.dim)[None], [row])[0])

    def add_rows(self, lo: int, block, rows) -> np.ndarray:
        """Take a run of rows with source indices lo, lo + 1, ...

        block is the dense (b, d) array of the rows and rows their payloads,
        which the sketch keeps as given; the run is checked
        (rows.checked_run) before any state changes. Returns the kept mask.
        """
        block, self.last_index = rowops.checked_run(block, rows, self.dim, lo, self.last_index)
        kept = np.empty(len(block), dtype=bool)
        start = 0
        while start < len(block):
            j = self.count
            if j == self.next_boundary:
                self._freeze(j)
                self.next_boundary = 2 * self.next_boundary + self.k
            # the seed block ends where the first boundary is
            stop = start + min(len(block) - start, self.next_boundary - j)
            kept[start:stop] = self._segment(lo + start, block[start:stop], rows[start:stop])
            start = stop
        return kept

    def _segment(self, lo: int, seg, rows) -> np.ndarray:
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
        self.block_sums[-1] += float(np.sum(lev))
        pos = np.flatnonzero(keep)
        self.sketch.append_rows(lo + pos, 1.0 / np.sqrt(p[pos]), seg[pos],
                                [rows[i] for i in pos.tolist()])
        self.count += len(seg)
        if self.approx is not None:
            self._feed(lo, seg, rows)
        return keep

    def _levels(self, seg) -> np.ndarray:
        """Capped sampling scores of in-block rows."""
        if self.jl is None:
            raw = relative_scores(self.frozen, seg)
        else:
            raw = self.jl.scores(seg)
            if self.jl_audit:
                self.jl_scores.append(raw)
                self.exact_scores.append(relative_scores(self.frozen, seg))
            raw = raw / (1.0 - JL_DISTORTION)
        return np.minimum(self.multiplier * raw, 1.0)

    def _feed(self, lo: int, seg, rows) -> None:
        self.approx.add_rows(lo, seg, rows)
        self._fed_gram += seg.T @ seg
        held = getattr(self.approx, "peak_rows", None)
        if held is None:
            held = self.approx.n_rows
        self.max_working_rows = max(self.max_working_rows, int(held))

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

    def _freeze(self, j: int):
        snapshot = self._snapshot()
        self.freeze_rows.append(j)
        self.block_sums.append(0.0)
        if self.use_jl:
            # the scorer holds the pseudo-inverse of the same Gram
            self.jl = jl_build(snapshot, self.n_hint, derive_seed(self.seed, len(self.freeze_rows)))
            self.frozen = self.jl.pinv
        else:
            self.frozen = pinv(snapshot.gram)
        self.frozen_pinvs.append(self.frozen.matrix)

    def finalize(self) -> tuple[Sketch, RunStats]:
        freezes = tuple(self.freeze_rows)
        scores = np.concatenate(self.scores) if self.scores else np.empty(0)
        return self.sketch, RunStats(
            scores=scores,
            score_total=float(np.sum(scores)),
            pinv_recomputes=len(freezes),
            max_working_rows=self.sketch.n_rows if self.approx is None else self.max_working_rows,
            saturated=self.saturated,
            schedule=BlockSchedule(self.k, freezes, len(freezes)),
            block_sums=self.block_sums,
            frozen_pinvs=self.frozen_pinvs,
            exact_scores=np.concatenate(self.exact_scores) if self.exact_scores else None,
            jl_scores=np.concatenate(self.jl_scores) if self.jl_scores else None,
            capacity_rows=getattr(self.approx, "capacity_rows", None),
            resparsify_passes=getattr(self.approx, "passes", None),
            resparsify_retries=getattr(self.approx, "retries", None),
        )


# The scaled (no plug) and improved (plugged) names stay public: tests and
# the benchmark's tracer reach the sampler through both.
ScaledSampler = ImprovedSampler = BlockSampler


def scaled_sampling(stream: RowStream, eps: float, seed: int, approx=None,
                    **config) -> tuple[Sketch, RunStats]:
    """Run the block sampler over a whole stream, with an optional plug.

    The stream is fed in runs of CHUNK rows, each densified on its own
    (RowStream.block), so working memory stays O(CHUNK * d).
    """
    if stream.n == 0:
        raise EmptyStream("empty stream")
    config.setdefault("n_hint", stream.n)
    sampler = BlockSampler(stream.d, eps, seed, approx, **config)
    for lo in range(0, stream.n, CHUNK):
        block, rows = stream.block(lo, min(lo + CHUNK, stream.n))
        sampler.add_rows(lo, block, rows)
    return sampler.finalize()


class ResparsifyApprox:
    """Bounded-memory plug: resample the buffer by its own leverage scores.

    Holds at most 2C weighted rows with C = ceil(capacity_mult * beta^-2 *
    d * ln d). Reaching 2C triggers a resparsify pass: every held row is
    scored by the buffer Gram's pseudo-inverse, kept with p = min(c_beta *
    tau, 1), and surviving weights compound by 1/sqrt(p). A pass that fails
    to shrink the buffer is retried once with doubled c_beta, then fails.
    The buffer is a Sketch, so a pass scores it with one product and keeps
    its survivors in place with another. passes and retries count the
    passes made and the retries among them.
    """

    def __init__(self, capacity_mult: float, beta: float, seed: int, dim: int):
        if not 0.0 < beta < 0.5:
            raise ValueError(f"beta must be in (0, 1/2), got {beta}")
        if not 4.0 <= capacity_mult < math.inf:
            raise ValueError(f"capacity_mult must be finite and >= 4, got {capacity_mult}")
        if dim < 2:
            raise DimensionMismatch("resparsify plug needs d >= 2")
        self.capacity_mult = float(capacity_mult)
        self.beta = float(beta)
        self.seed = int(seed)
        self.dim = int(dim)
        self.c_beta = sampling_constant(beta, dim, capacity_mult)
        self.capacity_rows = math.ceil(self.c_beta * dim)
        self.buffer = Sketch(dim)
        self.passes = 0
        self.retries = 0
        self.peak_rows = 0
        self.last_index = -1

    @property
    def n_rows(self) -> int:
        return self.buffer.n_rows

    def add(self, index: int, row) -> None:
        self.add_rows(index, rowops.densify(row, self.dim)[None], [row])

    def add_rows(self, lo: int, block, rows) -> None:
        """Append a checked run of rows at weight 1, split where the buffer reaches 2C."""
        block, self.last_index = rowops.checked_run(block, rows, self.dim, lo, self.last_index)
        full = 2 * self.capacity_rows
        start = 0
        while start < len(block):
            stop = start + min(len(block) - start, full - self.n_rows)
            self.buffer.append_rows(np.arange(lo + start, lo + stop), np.ones(stop - start),
                                    block[start:stop], rows[start:stop])
            self.peak_rows = max(self.peak_rows, self.n_rows)
            if self.n_rows >= full:
                self._resparsify()
            start = stop

    def _resparsify(self):
        _, w, held = self.buffer.columns()
        n = len(held)
        p_g = pinv(self.buffer.gram)
        q = np.maximum(np.einsum("ij,ij->i", held @ p_g.matrix, held), 0.0)
        tau = np.minimum(w * w * q, 1.0)
        for attempt in range(2):
            if attempt:
                self.retries += 1
            c_eff = self.c_beta * (2.0 ** attempt)
            probs = np.minimum(c_eff * tau, 1.0)
            key = np.array([self.seed & MASK64, 2 * self.passes + attempt], dtype=np.uint64)
            draws = np.random.Generator(np.random.Philox(key=key)).random(n)
            pos = np.flatnonzero(draws < probs)
            if pos.size < 2 * self.capacity_rows:
                self.buffer.keep(pos, w[pos] / np.sqrt(probs[pos]))
                self.passes += 1
                return
        raise CapacityCollapse(
            f"buffer stuck at {n} rows with capacity {self.capacity_rows}"
        )

    def query(self) -> Sketch:
        """The held rows folded afresh with one product, for a block sampler to freeze."""
        sk = Sketch(self.dim)
        sk.append_rows(*self.buffer.columns(), list(self.buffer.rows))
        return sk


def improved_scaled_sampling(stream: RowStream, eps: float, seed: int, approx,
                             **config) -> tuple[Sketch, RunStats]:
    """Run the block sampler over a whole stream with a given plug."""
    return scaled_sampling(stream, eps, seed, approx, **config)
