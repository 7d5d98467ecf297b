"""Random-order block samplers with frozen scoring sketches.

The seed block (first K rows) passes through verbatim; afterwards the stream
is cut into doubling blocks and every row in a block is scored against one
matrix frozen at the block boundary, so the pseudo-inverse is recomputed
only O(log n) times. One BlockSampler covers both variants: the scaled one
freezes its own sketch, the improved one freezes a pluggable constant-factor
approximation fed with every arriving row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rows as rowops
from .errors import (
    CapacityCollapse,
    ConstApproxFailure,
    DimensionMismatch,
    EmptyStream,
)
from .instances import RowStream
from .jl import DEFAULT_DISTORTION, DEFAULT_JL_C, JlScorer, jl_build
from .leverage import relative_leverage
from .linalg import DEFAULT_ORTHO_TOL, PInv, SymPsd, pinv
from .randomness import MASK64, IndexedUniforms, derive_seed
from .sketch import Sketch

# Leading constant of c = C * eps^-2 * ln d for the block samplers.
DEFAULT_SCALED_C_MULT = 6.0

# Score multiplier of the improved variant (the plug is a constant-factor
# approximation, so the margin does not depend on eps).
DEFAULT_IMPROVED_MULTIPLIER = 2.0


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
    def for_stream(cls, n: int, d: int, k: int | None = None):
        kk = seed_block_size(d) if k is None else int(k)
        if kk < 1:
            raise DimensionMismatch("seed block size must be positive")
        bounds = []
        b = kk
        while b < n:
            bounds.append(b)
            b = 2 * b + kk
        return cls(kk, tuple(bounds), len(bounds))


@dataclass
class BlockDiagnostics:
    scores: np.ndarray
    score_total: float
    block_sums: list[float]
    pinv_recomputes: int
    schedule: BlockSchedule
    frozen_pinvs: list = field(default_factory=list)
    exact_scores: np.ndarray | None = None
    jl_scores: np.ndarray | None = None
    max_working_rows: int | None = None
    capacity_rows: int | None = None


class BlockSampler:
    """Random-order block sampler, with or without a constant-factor plug.

    Without a plug, each block is scored against the sampler's own sketch
    frozen at the block boundary, with multiplier 1 + eps. With a plug
    (approx), every row is fed to it and each block is scored against the
    plug's query() frozen at the boundary, with multiplier
    DEFAULT_IMPROVED_MULTIPLIER. The sampler is itself a plug: add() consumes
    a row, query() exposes the current sketch, beta equals eps.
    """

    capacity_rows: int | None = None

    def __init__(
        self,
        dim: int,
        eps: float,
        seed: int,
        approx=None,
        c_mult: float = DEFAULT_SCALED_C_MULT,
        multiplier: float | None = None,
        k: int | None = None,
        ortho_tol: float = DEFAULT_ORTHO_TOL,
        rank_tol: float | None = None,
        use_jl: bool = False,
        jl_c: float = DEFAULT_JL_C,
        jl_distortion: float = DEFAULT_DISTORTION,
        n_hint: int | None = None,
        jl_audit: bool = False,
    ):
        if not 0.0 < eps <= 0.5:
            raise ValueError(f"eps must be in (0, 1/2], got {eps}")
        if use_jl and n_hint is None:
            raise ValueError("JL scoring needs n_hint to size the projection")
        if multiplier is None:
            multiplier = (1.0 + eps) if approx is None else DEFAULT_IMPROVED_MULTIPLIER
        self.dim = int(dim)
        self.eps = float(eps)
        self.k = seed_block_size(dim) if k is None else int(k)
        self.c = c_mult * eps ** -2 * math.log(max(dim, 2))
        self.multiplier = float(multiplier)
        self.seed = int(seed)
        self.approx = approx
        self.ortho_tol = float(ortho_tol)
        self.rank_tol = rank_tol
        self.use_jl = bool(use_jl)
        self.jl_c = float(jl_c)
        self.jl_distortion = float(jl_distortion)
        self.jl_audit = bool(jl_audit)
        self.n_hint = n_hint
        self.sketch = Sketch(dim, rank_tol=rank_tol)
        self.rng = IndexedUniforms(seed)
        self.count = 0
        self.next_boundary = self.k
        self.frozen: PInv | None = None
        self.jl: JlScorer | None = None
        self.freeze_rows: list[int] = []
        self.scores: list[float] = []
        self.exact_scores: list[float] = []
        self.jl_scores: list[float] = []
        self.block_sums: list[float] = [0.0]
        self.frozen_pinvs: list[np.ndarray] = []
        self.max_working_rows = 0
        # Gram of every row fed to the plug; only its rank is read, to catch
        # a plug that loses a direction.
        self._fed_gram = None if approx is None else np.zeros((dim, dim))

    # -- ConstApprox contract -------------------------------------------------
    @property
    def beta(self) -> float:
        return self.eps

    @property
    def n_rows(self) -> int:
        return self.sketch.n_rows

    def add(self, index: int, row) -> None:
        self.step(index, row)

    def query(self) -> Sketch:
        """Current sketch; valid until the next add."""
        return self.sketch

    # -------------------------------------------------------------------------

    def _feed(self, index: int, row) -> None:
        self.approx.add(index, row)
        rowops.add_outer(self._fed_gram, row, 1.0)
        held = getattr(self.approx, "peak_rows", None)
        if held is None:
            held = self.approx.n_rows
        self.max_working_rows = max(self.max_working_rows, int(held))

    def _snapshot(self) -> Sketch:
        """Sketch to freeze: the plug's, checked against the rank fed to it."""
        if self.approx is None:
            return self.sketch
        snapshot = self.approx.query()
        fed_rank = SymPsd(self._fed_gram, rank_tol=self.rank_tol).rank
        got = snapshot.gram.rank
        if got < fed_rank:
            raise ConstApproxFailure(
                f"plug rank {got} below fed rank {fed_rank} at row {self.count}"
            )
        return snapshot

    def _freeze(self, j: int):
        snapshot = self._snapshot()
        self.frozen = pinv(snapshot.gram)
        self.freeze_rows.append(j)
        self.block_sums.append(0.0)
        self.frozen_pinvs.append(self.frozen.matrix)
        if self.use_jl:
            self.jl = jl_build(
                snapshot,
                self.n_hint,
                derive_seed(self.seed, len(self.freeze_rows)),
                c_jl=self.jl_c,
                distortion=self.jl_distortion,
                ortho_tol=self.ortho_tol,
            )

    def _level(self, row) -> float:
        """Capped sampling score of one in-block row."""
        if self.jl is None:
            raw = relative_leverage(self.frozen, row, self.ortho_tol)
        else:
            raw = self.jl.score(row)
            if self.jl_audit:
                self.jl_scores.append(raw)
                self.exact_scores.append(relative_leverage(self.frozen, row, self.ortho_tol))
            raw = raw / (1.0 - self.jl_distortion)
        return min(self.multiplier * raw, 1.0)

    def step(self, index: int, row) -> bool:
        j = self.count
        self.count += 1
        if j < self.k:
            self.sketch.append(index, 1.0, row)
            self.scores.append(1.0)
            self.block_sums[0] += 1.0
            sampled = True
        else:
            if j == self.next_boundary:
                self._freeze(j)
                self.next_boundary = 2 * self.next_boundary + self.k
            lev = self._level(row)
            self.scores.append(lev)
            self.block_sums[-1] += lev
            p = min(self.c * lev, 1.0)
            sampled = self.rng.take(j) < p
            if sampled:
                self.sketch.append(index, 1.0 / math.sqrt(p), row)
        if self.approx is not None:
            self._feed(index, row)
        return sampled

    def finalize(self) -> tuple[Sketch, BlockDiagnostics]:
        freezes = tuple(self.freeze_rows)
        diag = BlockDiagnostics(
            scores=np.asarray(self.scores),
            score_total=float(np.sum(self.scores)),
            block_sums=self.block_sums,
            pinv_recomputes=len(freezes),
            schedule=BlockSchedule(self.k, freezes, len(freezes)),
            frozen_pinvs=self.frozen_pinvs,
            exact_scores=np.asarray(self.exact_scores) if self.exact_scores else None,
            jl_scores=np.asarray(self.jl_scores) if self.jl_scores else None,
            max_working_rows=None if self.approx is None else self.max_working_rows,
            capacity_rows=getattr(self.approx, "capacity_rows", None),
        )
        return self.sketch, diag


# The scaled (no plug) and improved (plugged) names stay public: tests and
# the benchmark's tracer reach the sampler through both.
ScaledSampler = ImprovedSampler = BlockSampler


def scaled_sampling(stream: RowStream, eps: float, seed: int, approx=None,
                    **config) -> tuple[Sketch, BlockDiagnostics]:
    """Run the block sampler over a whole stream, with an optional plug."""
    if stream.n == 0:
        raise EmptyStream("empty stream")
    config.setdefault("n_hint", stream.n)
    sampler = BlockSampler(stream.d, eps, seed, approx, **config)
    for i in range(stream.n):
        sampler.step(i, stream.row(i))
    return sampler.finalize()


class PassThroughApprox:
    """Trivial plug keeping every row at weight 1 (beta = 0)."""

    beta = 0.0
    capacity_rows: int | None = None

    def __init__(self, dim: int, rank_tol: float | None = None):
        self.sketch = Sketch(dim, rank_tol=rank_tol)
        self.peak_rows = 0

    @property
    def n_rows(self) -> int:
        return self.sketch.n_rows

    def add(self, index: int, row) -> None:
        self.sketch.append(index, 1.0, row)
        self.peak_rows = self.sketch.n_rows

    def query(self) -> Sketch:
        return self.sketch


class ResparsifyApprox:
    """Bounded-memory plug: resample the buffer by its own leverage scores.

    Holds at most 2C weighted rows with C = ceil(capacity_mult * beta^-2 *
    d * ln d). Reaching 2C triggers a resparsify pass: every held row is
    scored by the buffer Gram's pseudo-inverse, kept with p = min(c_beta *
    tau, 1), and surviving weights compound by 1/sqrt(p). A pass that fails
    to shrink the buffer is retried once with doubled c_beta, then fails.
    """

    def __init__(self, capacity_mult: float, beta: float, seed: int, dim: int | None = None,
                 rank_tol: float | None = None):
        if not 0.0 < beta < 0.5:
            raise ValueError(f"beta must be in (0, 1/2), got {beta}")
        if capacity_mult < 4.0:
            raise ValueError(f"capacity_mult must be >= 4, got {capacity_mult}")
        self.capacity_mult = float(capacity_mult)
        self.beta = float(beta)
        self.seed = int(seed)
        self.rank_tol = rank_tol
        self.dim: int | None = None
        self.capacity_rows: int | None = None
        self.c_beta: float | None = None
        self.buffer: list[tuple[int, float, object]] = []
        self._gram = None
        self._passes = 0
        self.peak_rows = 0
        if dim is not None:
            self._init_dim(int(dim))

    def _init_dim(self, dim: int):
        if dim < 2:
            raise DimensionMismatch("resparsify plug needs d >= 2")
        self.dim = dim
        logd = math.log(dim)
        self.capacity_rows = math.ceil(self.capacity_mult * self.beta ** -2 * dim * logd)
        self.c_beta = self.capacity_mult * self.beta ** -2 * logd
        self._gram = np.zeros((dim, dim))

    @property
    def n_rows(self) -> int:
        return len(self.buffer)

    def add(self, index: int, row) -> None:
        if self.dim is None:
            if rowops.is_sparse(row):
                raise DimensionMismatch(
                    "dimension cannot be inferred from a sparse row; pass dim"
                )
            self._init_dim(int(np.asarray(row).shape[0]))
        self.buffer.append((int(index), 1.0, row))
        rowops.add_outer(self._gram, row, 1.0)
        self.peak_rows = max(self.peak_rows, len(self.buffer))
        if len(self.buffer) >= 2 * self.capacity_rows:
            self._resparsify()

    def _resparsify(self):
        p_g = pinv(SymPsd(self._gram, rank_tol=self.rank_tol))
        tau = np.empty(len(self.buffer))
        for i, (_, w, row) in enumerate(self.buffer):
            tau[i] = min(w * w * max(rowops.quad_form(p_g.matrix, row), 0.0), 1.0)
        for attempt in range(2):
            c_eff = self.c_beta * (2.0 ** attempt)
            probs = np.minimum(c_eff * tau, 1.0)
            key = np.array([self.seed & MASK64, 2 * self._passes + attempt], dtype=np.uint64)
            draws = np.random.Generator(np.random.Philox(key=key)).random(len(self.buffer))
            keep = draws < probs
            if int(np.count_nonzero(keep)) < 2 * self.capacity_rows:
                new_buffer = []
                self._gram = np.zeros((self.dim, self.dim))
                for i, (idx, w, row) in enumerate(self.buffer):
                    if keep[i]:
                        w_new = w / math.sqrt(probs[i])
                        new_buffer.append((idx, w_new, row))
                        rowops.add_outer(self._gram, row, w_new * w_new)
                self.buffer = new_buffer
                self._passes += 1
                return
        raise CapacityCollapse(
            f"buffer stuck at {len(self.buffer)} rows with capacity {self.capacity_rows}"
        )

    def query(self) -> Sketch:
        sk = Sketch(self.dim, rank_tol=self.rank_tol)
        for idx, w, row in self.buffer:
            sk.append(idx, w, row)
        return sk


def resparsify_const_approx(capacity_mult: float, beta: float, seed: int,
                            dim: int | None = None) -> ResparsifyApprox:
    """Factory for the bounded-memory plug (dimension may be inferred lazily)."""
    return ResparsifyApprox(capacity_mult, beta, seed, dim=dim)


def improved_scaled_sampling(stream: RowStream, eps: float, seed: int, approx,
                             **config) -> tuple[Sketch, BlockDiagnostics]:
    """Run the block sampler over a whole stream with a given plug."""
    return scaled_sampling(stream, eps, seed, approx, **config)
