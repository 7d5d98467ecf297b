"""Online row samplers: the relative-leverage sampler and the barrier variant.

Both consume rows in stream order and keep a weighted sketch whose Gram
stays a (1 +/- eps) spectral approximation of the prefix seen so far.
Sampling decisions come from counter-based uniforms keyed by (seed, row
index).

The relative-leverage sampler takes rows in runs (OnlineState.add_rows;
run_online feeds ONLINE_RUN rows at a time, online_step one). A run is
scored against the current pseudo-inverse with one product and its coins
come from one take_range; only rows whose coin beats that score can be
kept, since a kept row only lowers later rows' forms. Each kept row takes
one Sherman-Morrison step and lowers the rest of the run's forms with one
O(d b) product; a rebuild rescores the rest. The decisions are those of the
row-at-a-time rule.
"""
from __future__ import annotations

import math

import numpy as np

from . import rows as rowops
from .errors import BarrierViolation, DegenerateUpdate, DimensionMismatch, NotPsd
from .instances import RowStream
from .leverage import quad_forms, relative_of, relative_score
from .linalg import PInv, SymPsd, on_image_rows, pinv, sherman_morrison
from .randomness import IndexedUniforms
from .sketch import RunStats, Sketch

# Leading constant of c = C * eps^-2 * ln d, per the source analysis.
DEFAULT_ONLINE_C_MULT = 3.0

# Rows run_online scores with one product. A kept row costs O(d * run) to
# correct the rest of its run, and a rebuild rescores that rest.
ONLINE_RUN = 128

# Maintained pseudo-inverse is checked against a fresh recompute this often.
PINV_VERIFY_EVERY = 64
PINV_DRIFT_TOL = 1e-6

# Barrier sandwich violations are tolerated up to this relative slack.
BARRIER_TOL = 1e-7


def sampling_constant(eps: float, d: int, c_mult: float) -> float:
    return c_mult * eps ** -2 * math.log(d)


class KeptPinv:
    """Pseudo-inverse of a PSD matrix X that changes by rank-one terms k a a'.

    An update along a row on the image of X applies Sherman-Morrison in
    O(d^2). A row off the image (the image grows) or a collapsing
    denominator (the rank drops) rebuilds it from `source()`, which returns
    the current X as a SymPsd. Every PINV_VERIFY_EVERY rank-one updates it
    is compared with a fresh rebuild and replaced when it drifted.
    """

    def __init__(self, dim: int, source):
        self.pinv = PInv(0, np.zeros((dim, dim)), np.zeros((dim, dim)))
        self.source = source
        self.recomputes = 0
        self.drift_events = 0
        self._updates_since_verify = 0

    def score(self, row) -> tuple[bool, float]:
        """(dense row on the image, its relative score): q / (q + 1) with q = row' X+ row, or 1 off it.

        This is row' (X + row row')+ row, computed without the rank-one update.
        """
        return relative_score(self.pinv, row)

    def update(self, a, k: float, on_image: bool):
        """Follow X += k a a' for a dense a; on_image is score's verdict on a.

        Returns (Pa, coef) when X+ took the Sherman-Morrison step
        X+ - coef Pa Pa' with Pa = X+ a, and None when it was rebuilt.
        """
        if not on_image:
            self.recompute()
            return None
        try:
            self.pinv, pa, coef = sherman_morrison(self.pinv, a, k)
        except DegenerateUpdate:
            self.recompute()
            return None
        self._updates_since_verify += 1
        if self._updates_since_verify >= PINV_VERIFY_EVERY:
            fresh = pinv(self.source())
            drift = np.linalg.norm(self.pinv.matrix - fresh.matrix)
            self._updates_since_verify = 0
            if drift > PINV_DRIFT_TOL * np.linalg.norm(fresh.matrix):
                self.drift_events += 1
                self.pinv = fresh
                self.recomputes += 1
                return None
        return pa, coef

    def recompute(self) -> None:
        self.pinv = pinv(self.source())
        self.recomputes += 1
        self._updates_since_verify = 0


class OnlineState:
    """Mutable state of the online sampler; single-owner, mutated in place."""

    def __init__(
        self,
        dim: int,
        eps: float,
        seed: int,
        c_mult: float = DEFAULT_ONLINE_C_MULT,
    ):
        if not 0.0 < eps <= 0.5:
            raise ValueError(f"eps must be in (0, 1/2], got {eps}")
        if not 0.0 < c_mult < math.inf:
            raise ValueError(f"c_mult must be finite and > 0, got {c_mult}")
        if dim < 1:
            raise DimensionMismatch("dimension must be positive")
        self.dim = int(dim)
        self.eps = float(eps)
        self.c = sampling_constant(eps, max(dim, 2), c_mult)
        self.sketch = Sketch(dim)
        self.kept = KeptPinv(dim, self._gram)
        self.rng = IndexedUniforms(seed)
        self.scores: list[np.ndarray] = []  # one array per run
        self.saturated = 0
        self.last_index = -1
        # the run being walked, and its kept rows not yet in the sketch
        self._run = None
        self._pending: list[int] = []
        self._pending_p: list[float] = []

    def add_rows(self, lo: int, block, rows) -> np.ndarray:
        """Take a run of rows with source indices lo, lo + 1, ...

        block is the dense (b, d) array of the rows and rows their payloads,
        which the sketch keeps as given; the run is checked
        (rows.checked_run) before any state changes. Each row scores
        min((1 + eps) q / (q + 1), 1) against the sketch Gram before it (1
        off its image) and is kept on its coin with p = min(c * score, 1), at
        weight 1/sqrt(p); exactly-zero rows score zero and are never kept.
        Returns the kept mask.
        """
        block, self.last_index = rowops.checked_run(block, rows, self.dim, lo, self.last_index)
        lo, b = int(lo), len(block)
        if b == 0:
            return np.zeros(0, dtype=bool)
        coins = self.rng.take_range(lo, lo + b)
        on, q = np.empty(b, dtype=bool), np.empty(b)
        kept = np.zeros(b, dtype=bool)
        self._run = (lo, block, rows)
        start = 0
        while start < b:
            start = self._walk(block, coins, start, on, q, kept)
        self._flush()
        self._run = None
        lev, p = self._levels(on, q)
        self.scores.append(lev)
        self.saturated += int(np.count_nonzero(p == 1.0))
        return kept

    def _walk(self, block, coins, start: int, on, q, kept) -> int:
        """Score rows start.. of the run against the current pseudo-inverse
        into on and q, and decide them in order; returns where to rescore
        from after a rebuild, or the run's length."""
        pinv_now = self.kept.pinv
        seg = block[start:]
        on[start:] = on_image_rows(pinv_now, seg)
        q[start:] = quad_forms(pinv_now, seg)
        # a Sherman-Morrison step lowers q, so a row whose coin failed stays dropped
        candidates = np.flatnonzero(coins[start:] < self._levels(on[start:], q[start:])[1])
        for i in (start + candidates).tolist():
            p = self._probability(bool(on[i]), float(q[i]))
            if not coins[i] < p:
                continue
            kept[i] = True
            self._pending.append(i)
            self._pending_p.append(p)
            step = self.kept.update(block[i], 1.0 / p, bool(on[i]))
            if step is None:
                return i + 1
            pa, coef = step
            rest = q[i + 1:]
            rest -= coef * (block[i + 1:] @ pa) ** 2
            np.maximum(rest, 0.0, out=rest)
        return len(block)

    def _levels(self, on, q):
        """Capped scores and sampling probabilities of rows with kernel
        verdicts on and quadratic forms q."""
        lev = np.minimum((1.0 + self.eps) * relative_of(on, q), 1.0)
        return lev, np.minimum(self.c * lev, 1.0)

    def _probability(self, on: bool, q: float) -> float:
        """_levels' probability for one row. Float arithmetic gives the same
        value; the walk calls it once per candidate, where numpy's per-call
        cost on one element is most of the work."""
        lev = min((1.0 + self.eps) * (q / (q + 1.0) if on else 1.0), 1.0)
        return min(self.c * lev, 1.0)

    def _flush(self) -> None:
        """Fold the run's pending kept rows into the sketch with one product."""
        if not self._pending:
            return
        lo, block, rows = self._run
        pos = np.array(self._pending)
        weights = 1.0 / np.sqrt(np.array(self._pending_p))
        self.sketch.append_rows(lo + pos, weights, block[pos], [rows[i] for i in self._pending])
        self._pending, self._pending_p = [], []

    def _gram(self) -> SymPsd:
        """The kept pseudo-inverse's source: the sketch Gram with every kept row in."""
        self._flush()
        return self.sketch.gram


def online_step(state: OnlineState, row, index: int) -> bool:
    """Take one row (dense or sparse) as a one-row run; True when it was kept.

    The row is checked before any state changes.
    """
    return bool(state.add_rows(index, rowops.densify(row, state.dim)[None], [row])[0])


def run_online(
    stream: RowStream,
    eps: float,
    seed: int,
    c_mult: float = DEFAULT_ONLINE_C_MULT,
) -> tuple[Sketch, RunStats]:
    """Run the online sampler over a whole stream, ONLINE_RUN rows at a time."""
    state = OnlineState(stream.d, eps, seed, c_mult=c_mult)
    for lo in range(0, stream.n, ONLINE_RUN):
        block, rows = stream.block(lo, min(lo + ONLINE_RUN, stream.n))
        state.add_rows(lo, block, rows)
    scores = np.concatenate(state.scores) if state.scores else np.empty(0)
    return state.sketch, RunStats(
        scores=scores,
        score_total=float(np.sum(scores)),
        pinv_recomputes=state.kept.recomputes,
        max_working_rows=state.sketch.n_rows,
        drift_events=state.kept.drift_events,
        saturated=state.saturated,
    )


class BarrierState:
    """State of the barrier sampler: sketch Gram fenced between two barriers.

    Each gap, upper - gram and gram - lower, keeps its pseudo-inverse in a
    KeptPinv; a rebuild forms the gap afresh from the barriers and the
    sketch Gram.
    """

    def __init__(
        self,
        dim: int,
        eps: float,
        seed: int,
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
        self.sketch = Sketch(dim)
        self.upper = np.zeros((dim, dim))
        self.lower = np.zeros((dim, dim))
        gram = self.sketch.gram_matrix()  # live array: appends update it in place
        self.upper_pinv = KeptPinv(dim, lambda: self._gap_psd(self.upper - gram))
        self.lower_pinv = KeptPinv(dim, lambda: self._gap_psd(gram - self.lower))
        self.rng = IndexedUniforms(seed)
        self.audit = bool(audit)
        self.probs: list[float] = []
        self.gap_history: list[tuple[float, float]] = []
        self.last_index = -1

    def _gap_psd(self, gap) -> SymPsd:
        try:
            return SymPsd(gap)
        except NotPsd as exc:
            raise BarrierViolation(f"gap matrix indefinite at row {self.last_index}") from exc


def sandwich_holds(gaps, slack: float) -> bool:
    """True when every gap + slack I is positive definite: min eig(gap) > -slack.

    gaps is one (d, d) matrix or a stack of them. One batched Cholesky
    factorisation, O(d^3 / 3) per gap, stands in for an eigendecomposition.
    """
    try:
        np.linalg.cholesky(gaps + slack * np.eye(gaps.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def barrier_step(state: BarrierState, row, index: int) -> bool:
    """One step of the barrier sampler, O(d^2) apart from one Cholesky per gap.

    The probability is c_u a'(X_u + aa')+ a + c_l a'(X_l + aa')+ a, capped at
    1, for the gaps X_u = upper - gram and X_l = gram - lower; each term is
    q / (q + 1) with q = a' X+ a from the gap's kept pseudo-inverse, or 1 off
    its image. The barriers advance by (1 +/- eps) a a' whether or not the
    row is kept, so the gaps change by k a a' with k_u = (1 + eps) - s/p and
    k_l = s/p - (1 - eps) (s = 1 if kept), and the kept pseudo-inverses
    follow by Sherman-Morrison. Raises BarrierViolation if the sandwich
    lower <= gram <= upper fails beyond relative tolerance after the update.
    """
    block, state.last_index = rowops.checked_run(rowops.densify(row, state.dim)[None], [row],
                                                 state.dim, index, state.last_index)
    a, index = block[0], state.last_index
    on_upper, rel_upper = state.upper_pinv.score(a)
    on_lower, rel_lower = state.lower_pinv.score(a)
    p = min(state.c_upper * rel_upper + state.c_lower * rel_lower, 1.0)
    state.probs.append(p)
    sampled = state.rng.take(index) < p
    if sampled:
        state.sketch.append(index, 1.0 / math.sqrt(p), row)
    outer = np.outer(a, a)
    state.upper += (1.0 + state.eps) * outer
    state.lower += (1.0 - state.eps) * outer
    gram = state.sketch.gram_matrix()  # live array: appends update it in place
    gaps = np.stack((state.upper - gram, gram - state.lower))
    if state.audit:
        state.gap_history.append(tuple(np.linalg.eigvalsh(gaps)[:, 0].tolist()))
    slack = BARRIER_TOL * max(float(np.trace(state.upper)), 1e-300)
    if not sandwich_holds(gaps, slack):
        upper_gap, lower_gap = np.linalg.eigvalsh(gaps)[:, 0]
        raise BarrierViolation(
            f"sandwich failed at row {index}: gaps {upper_gap:.3e}, {lower_gap:.3e}"
        )
    taken = 1.0 / p if sampled else 0.0
    state.upper_pinv.update(a, (1.0 + state.eps) - taken, on_upper)
    state.lower_pinv.update(a, taken - (1.0 - state.eps), on_lower)
    return sampled


def run_barrier(
    stream: RowStream,
    eps: float,
    seed: int,
    audit: bool = False,
) -> tuple[Sketch, RunStats]:
    """Run the barrier sampler over a whole stream."""
    state = BarrierState(stream.d, eps, seed, audit=audit)
    for i in range(stream.n):
        barrier_step(state, stream.row(i), i)
    kept = (state.upper_pinv, state.lower_pinv)
    probs = np.asarray(state.probs)
    return state.sketch, RunStats(
        scores=None,
        score_total=float(np.sum(probs)),
        pinv_recomputes=sum(k.recomputes for k in kept),
        max_working_rows=state.sketch.n_rows,
        drift_events=sum(k.drift_events for k in kept),
        saturated=int(np.count_nonzero(probs == 1.0)),
        probs=probs,
        gap_history=state.gap_history,
    )
