"""Online row samplers: the relative-leverage sampler and the barrier variant.

Both consume rows one at a time and keep a weighted sketch whose Gram stays
a (1 +/- eps) spectral approximation of the prefix seen so far. Sampling
decisions come from counter-based uniforms keyed by (seed, row index).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rows as rowops
from .errors import BarrierViolation, DimensionMismatch, NotPsd
from .instances import RowStream
from .linalg import (
    DEFAULT_ORTHO_TOL,
    PInv,
    SymPsd,
    pinv,
    pinv_quad_form,
    pinv_rank1_update,
)
from .randomness import IndexedUniforms
from .sketch import Sketch

# Leading constant of c = C * eps^-2 * ln d, per the source analysis.
DEFAULT_ONLINE_C_MULT = 3.0

# Maintained pseudo-inverse is checked against a fresh recompute this often.
PINV_VERIFY_EVERY = 64
PINV_DRIFT_TOL = 1e-6

# Barrier sandwich violations are tolerated up to this relative slack.
BARRIER_TOL = 1e-7


def sampling_constant(eps: float, d: int, c_mult: float) -> float:
    return c_mult * eps ** -2 * math.log(d)


class OnlineState:
    """Mutable state of the online sampler; single-owner, mutated in place."""

    def __init__(
        self,
        dim: int,
        eps: float,
        seed: int,
        c_mult: float = DEFAULT_ONLINE_C_MULT,
        ortho_tol: float = DEFAULT_ORTHO_TOL,
        rank_tol: float | None = None,
        verify_every: int = PINV_VERIFY_EVERY,
    ):
        if not 0.0 < eps <= 0.5:
            raise ValueError(f"eps must be in (0, 1/2], got {eps}")
        if dim < 1:
            raise DimensionMismatch("dimension must be positive")
        self.dim = int(dim)
        self.eps = float(eps)
        self.c = sampling_constant(eps, max(dim, 2), c_mult)
        self.sketch = Sketch(dim, rank_tol=rank_tol)
        self.pinv = PInv(0, np.zeros((dim, dim)), np.zeros((dim, dim)))
        self.rng = IndexedUniforms(seed)
        self.ortho_tol = float(ortho_tol)
        self.verify_every = int(verify_every)
        self.scores: list[float] = []
        self.score_total = 0.0
        self.last_index = -1
        self.pinv_recomputes = 0
        self.drift_events = 0
        self._updates_since_verify = 0

    def _recompute_pinv(self):
        self.pinv = pinv(self.sketch.gram)
        self.pinv_recomputes += 1
        self._updates_since_verify = 0

    def _verify_pinv(self):
        fresh = pinv(self.sketch.gram)
        scale = np.linalg.norm(fresh.matrix)
        drift = np.linalg.norm(self.pinv.matrix - fresh.matrix)
        if drift > PINV_DRIFT_TOL * scale:
            self.drift_events += 1
            self.pinv = fresh
            self.pinv_recomputes += 1
        self._updates_since_verify = 0


def online_step(state: OnlineState, row, index: int) -> bool:
    """Score one row, flip its coin, and fold it into the sketch if kept.

    The score is min((1 + eps) * q / (q + 1), 1) against the current sketch
    Gram; the kept row enters with weight 1/sqrt(p). Exactly-zero rows score
    zero and are never sampled.
    """
    index = int(index)
    if index <= state.last_index:
        raise DimensionMismatch(f"row index {index} not increasing")
    state.last_index = index
    on_image = rowops.on_image(state.pinv.projector, row, state.ortho_tol)
    if on_image:
        q = max(rowops.quad_form(state.pinv.matrix, row), 0.0)
        rel = q / (q + 1.0)
    else:
        rel = 1.0
    lev = min((1.0 + state.eps) * rel, 1.0)
    state.scores.append(lev)
    state.score_total += lev
    p = min(state.c * lev, 1.0)
    sampled = state.rng.take(index) < p
    if sampled:
        state.sketch.append(index, 1.0 / math.sqrt(p), row)
        if on_image:
            state.pinv = pinv_rank1_update(
                state.pinv, rowops.densify(row, state.dim), 1.0 / p, state.ortho_tol
            )
            state._updates_since_verify += 1
            if state._updates_since_verify >= state.verify_every:
                state._verify_pinv()
        else:
            # New direction: the image grew, Sherman-Morrison does not apply.
            state._recompute_pinv()
    return sampled


@dataclass
class OnlineDiagnostics:
    scores: np.ndarray
    score_total: float
    pinv_recomputes: int
    drift_events: int


def run_online(
    stream: RowStream,
    eps: float,
    seed: int,
    c_mult: float = DEFAULT_ONLINE_C_MULT,
    ortho_tol: float = DEFAULT_ORTHO_TOL,
    rank_tol: float | None = None,
    verify_every: int = PINV_VERIFY_EVERY,
) -> tuple[Sketch, OnlineDiagnostics]:
    """Run the online sampler over a whole stream."""
    state = OnlineState(
        stream.d, eps, seed,
        c_mult=c_mult, ortho_tol=ortho_tol, rank_tol=rank_tol, verify_every=verify_every,
    )
    for i in range(stream.n):
        online_step(state, stream.row(i), i)
    diag = OnlineDiagnostics(
        scores=np.asarray(state.scores),
        score_total=state.score_total,
        pinv_recomputes=state.pinv_recomputes,
        drift_events=state.drift_events,
    )
    return state.sketch, diag


class BarrierState:
    """State of the barrier sampler: sketch Gram fenced between two barriers."""

    def __init__(
        self,
        dim: int,
        eps: float,
        seed: int,
        rank_tol: float | None = None,
        audit: bool = False,
    ):
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        if dim < 1:
            raise DimensionMismatch("dimension must be positive")
        self.dim = int(dim)
        self.eps = float(eps)
        self.c_upper = 2.0 / eps + 1.0
        self.c_lower = 3.0 / eps - 1.0
        self.sketch = Sketch(dim, rank_tol=rank_tol)
        self.upper = np.zeros((dim, dim))
        self.lower = np.zeros((dim, dim))
        self.rng = IndexedUniforms(seed)
        self.rank_tol = rank_tol
        self.audit = bool(audit)
        self.probs: list[float] = []
        self.gap_history: list[tuple[float, float]] = []
        self.last_index = -1
        self.pinv_recomputes = 0


def barrier_step(state: BarrierState, row, index: int) -> bool:
    """One step of the barrier sampler.

    Probability combines pseudo-inverse quadratic forms of the two shifted
    gaps, each recomputed from scratch; barriers advance by (1 +/- eps) a a'
    whether or not the row is kept. Raises BarrierViolation if the sandwich
    lower <= gram <= upper fails beyond relative tolerance after the update.
    """
    index = int(index)
    if index <= state.last_index:
        raise DimensionMismatch(f"row index {index} not increasing")
    state.last_index = index
    a = rowops.densify(row, state.dim)
    outer = np.outer(a, a)
    gram = state.sketch.gram_matrix()  # live array: appends update it in place
    try:
        x_upper = SymPsd(state.upper - gram + outer, rank_tol=state.rank_tol)
        x_lower = SymPsd(gram - state.lower + outer, rank_tol=state.rank_tol)
    except NotPsd as exc:
        raise BarrierViolation(f"gap matrix indefinite at row {index}") from exc
    state.pinv_recomputes += 2
    p = min(
        state.c_upper * pinv_quad_form(x_upper, a)
        + state.c_lower * pinv_quad_form(x_lower, a),
        1.0,
    )
    state.probs.append(p)
    sampled = state.rng.take(index) < p
    if sampled:
        state.sketch.append(index, 1.0 / math.sqrt(p), row)
    state.upper += (1.0 + state.eps) * outer
    state.lower += (1.0 - state.eps) * outer
    upper_gap = float(np.min(np.linalg.eigvalsh(state.upper - gram)))
    lower_gap = float(np.min(np.linalg.eigvalsh(gram - state.lower)))
    if state.audit:
        state.gap_history.append((upper_gap, lower_gap))
    slack = BARRIER_TOL * max(float(np.trace(state.upper)), 1e-300)
    if upper_gap < -slack or lower_gap < -slack:
        raise BarrierViolation(
            f"sandwich failed at row {index}: gaps {upper_gap:.3e}, {lower_gap:.3e}"
        )
    return sampled


@dataclass
class BarrierDiagnostics:
    probs: np.ndarray
    score_total: float
    pinv_recomputes: int
    gap_history: list = field(default_factory=list)


def run_barrier(
    stream: RowStream,
    eps: float,
    seed: int,
    rank_tol: float | None = None,
    audit: bool = False,
) -> tuple[Sketch, BarrierDiagnostics]:
    """Run the barrier sampler over a whole stream."""
    state = BarrierState(stream.d, eps, seed, rank_tol=rank_tol, audit=audit)
    for i in range(stream.n):
        barrier_step(state, stream.row(i), i)
    diag = BarrierDiagnostics(
        probs=np.asarray(state.probs),
        score_total=float(np.sum(state.probs)),
        pinv_recomputes=state.pinv_recomputes,
        gap_history=state.gap_history,
    )
    return state.sketch, diag
