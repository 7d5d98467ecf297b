"""Online row samplers: the relative-leverage sampler and the barrier variant.

Both consume rows in stream order, in runs (add_rows; run_online and
run_barrier feed ONLINE_RUN rows at a time, online_step and barrier_step
one), and keep a weighted sketch whose Gram stays a (1 +/- eps) spectral
approximation of the prefix seen so far. Sampling decisions come from
counter-based uniforms keyed by (seed, row index), one take_range per run.

The relative-leverage sampler scores a run against the current
pseudo-inverse with one product. Only rows whose coin beats that score can
be kept, since a kept row only lowers later rows' forms; each kept row
takes one Sherman-Morrison step and lowers the rest of the run's forms with
one O(d b) product, and a rebuild rescores the rest. The barrier sampler
walks every row, since each moves both gaps: one product with the stacked
gap pseudo-inverses gives both gaps' forms, which serve as the score and as
the step both gaps take in place. The Gram of the rows seen and the sketch
Grams after every row (one cumsum each) and the sandwich checks (one
stacked Cholesky) are batched per run. Both make the decisions of the
row-at-a-time rule.
"""
from __future__ import annotations

import math

import numpy as np

from . import rows as rowops
from .errors import BarrierViolation, DimensionMismatch, NotPsd
from .instances import RowStream
from .leverage import quad_forms, relative_of
from .linalg import UPDATE_DENOM_FLOOR, PInv, SymPsd, on_image, on_image_rows, pinv
from .randomness import IndexedUniforms
from .sketch import RunStats, Sketch

# Leading constant of c = C * eps^-2 * ln d, per the source analysis.
DEFAULT_ONLINE_C_MULT = 3.0

# Rows run_online and run_barrier take as one run. A kept online row costs
# O(d * run) to correct the rest of its run, and a rebuild rescores that rest.
ONLINE_RUN = 128

# Maintained pseudo-inverse is checked against a fresh recompute this often.
PINV_VERIFY_EVERY = 64
PINV_DRIFT_TOL = 1e-6

# Barrier sandwich violations are tolerated up to this relative slack.
BARRIER_TOL = 1e-7


def sampling_constant(eps: float, d: int, c_mult: float) -> float:
    """c = c_mult eps^-2 ln d: the rate law of the online, block and resparsify samplers."""
    return c_mult * eps ** -2 * math.log(d)


class KeptPinv:
    """Pseudo-inverse of a PSD matrix X that changes by rank-one terms k a a'.

    It owns pinv.matrix (its own array or the view passed as matrix). To
    follow X += k a a', the caller takes pa = X+ a and q = a' pa, gets coef
    from step_coef, steps X+ -= coef pa pa' in place, O(d^2), and reports
    the step by stepped(). A row off the image (the image grows) or a
    collapsing denominator (the rank drops) rebuilds X+ from `source()`, the
    current X as a SymPsd; every PINV_VERIFY_EVERY steps a rebuild replaces
    it if it has drifted.
    """

    def __init__(self, dim: int, source, matrix=None):
        matrix = np.zeros((dim, dim)) if matrix is None else matrix
        self.pinv = PInv(0, matrix, np.zeros((dim, dim)))
        self.source = source
        self.recomputes = 0
        self.drift_events = 0
        self._updates_since_verify = 0

    def relative(self, a, q: float) -> tuple[bool, float]:
        """(dense a on the image, its relative score a' (X + aa')+ a): q / (q +
        1) from the form q = a' X+ a the caller took, or 1 off the image."""
        q = max(q, 0.0)
        return (True, q / (q + 1.0)) if on_image(self.pinv, a) else (False, 1.0)

    def step_coef(self, k: float, q: float, on_image: bool):
        """coef of the step X+ -= coef pa pa' that follows X += k a a' (q = a'
        X+ a), which the caller takes and then reports by stepped(); None
        after a rebuild, for a off the image or |1 + k q| < UPDATE_DENOM_FLOOR."""
        denom = 1.0 + k * q
        if on_image and abs(denom) >= UPDATE_DENOM_FLOOR:
            return k / denom
        self.recompute()
        return None

    def stepped(self) -> bool:
        """Count a step taken; every PINV_VERIFY_EVERY steps check it against
        a rebuild. False when the rebuild replaced a drifted pseudo-inverse."""
        self._updates_since_verify += 1
        if self._updates_since_verify < PINV_VERIFY_EVERY:
            return True
        fresh = pinv(self.source())
        drift = np.linalg.norm(self.pinv.matrix - fresh.matrix)
        self._updates_since_verify = 0
        if drift > PINV_DRIFT_TOL * np.linalg.norm(fresh.matrix):
            self.drift_events += 1
            self.recompute(fresh)
            return False
        return True

    def recompute(self, fresh: PInv | None = None) -> None:
        """Rebuild into the owned matrix, from fresh = pinv(source()) if given."""
        fresh = pinv(self.source()) if fresh is None else fresh
        self.pinv.matrix[...] = fresh.matrix
        self.pinv = PInv(fresh.source_rank, self.pinv.matrix, fresh.projector)
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
            a, y = block[i], self.kept.pinv.matrix
            pa = y @ a
            coef = self.kept.step_coef(1.0 / p, float(a @ pa), bool(on[i]))
            if coef is None:
                return i + 1
            y -= (pa[:, None] * pa) * coef
            if not self.kept.stepped():
                return i + 1
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
        state.add_rows(lo, *stream.block(lo, min(lo + ONLINE_RUN, stream.n)))
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

    The barriers are (1 + eps) and (1 - eps) times seen, the Gram of the
    rows seen, which a run advances with one cumsum. Each gap, (1 + eps)
    seen - gram and gram - (1 - eps) seen, keeps its pseudo-inverse in a
    KeptPinv that owns one half of a (2, d, d) stack, so one product scores
    a row against both and one in-place update steps both. _gaps forms the
    gaps both for a rebuild, at the row being walked, and for the sandwich
    check. A BarrierViolation leaves the state mid-run: do not reuse it.
    """

    def __init__(self, dim: int, eps: float, seed: int):
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        if dim < 1:
            raise DimensionMismatch("dimension must be positive")
        self.dim = int(dim)
        self.eps = float(eps)
        self.c_upper, self.c_lower = 2.0 / eps + 1.0, 3.0 / eps - 1.0
        self.sketch = Sketch(dim)
        self.seen = np.zeros((dim, dim))
        self._pinvs = np.zeros((2, dim, dim))  # the gaps' kept pseudo-inverses
        self.upper_pinv = KeptPinv(dim, lambda: self._gap_psd(0), self._pinvs[0])
        self.lower_pinv = KeptPinv(dim, lambda: self._gap_psd(1), self._pinvs[1])
        self.rng = IndexedUniforms(seed)
        self.probs: list[np.ndarray] = []  # one array per run
        self.last_index = -1
        self._run = None  # (lo, block, seen after each row, probs, kept) of the run walked
        self._at = 0  # the row of it being walked
        self._row_gaps = (-1, None)  # (row, its (2, d, d) gaps) as _gap_psd last formed them

    def add_rows(self, lo: int, block, rows) -> np.ndarray:
        """Take a run of rows with source indices lo, lo + 1, ...

        block and rows are as for OnlineState.add_rows, and the run is
        checked before any state changes. Row a is kept on its coin with p =
        min(c_u a'(X_u + aa')+ a + c_l a'(X_l + aa')+ a, 1) for the gaps X_u =
        (1 + eps) seen - gram and X_l = gram - (1 - eps) seen before it, at
        weight 1/sqrt(p); each term is q / (q + 1) with q = a' X+ a from the
        gap's kept pseudo-inverse, or 1 off its image. seen advances by aa',
        kept or not, so the gaps change by k aa' with k_u = (1 + eps) - s/p
        and k_l = s/p - (1 - eps) (s = 1 if kept), and the kept
        pseudo-inverses follow by Sherman-Morrison. Raises BarrierViolation
        for the first row after which either gap has an eigenvalue below
        -BARRIER_TOL * (1 + eps) trace(seen), and also when a rebuild finds
        its gap indefinite beyond the SymPsd floor. Returns the kept mask.
        """
        block, self.last_index = rowops.checked_run(block, rows, self.dim, lo, self.last_index)
        lo, b = int(lo), len(block)
        if b == 0:
            return np.zeros(0, dtype=bool)
        coins = self.rng.take_range(lo, lo + b)
        # seen after every row, summed in row order as one row at a time would
        seen = np.cumsum(np.concatenate((self.seen[None], block[:, :, None] * block[:, None, :])),
                         axis=0)[1:]
        probs, kept = np.empty(b), np.zeros(b, dtype=bool)
        self._run, self._row_gaps = (lo, block, seen, probs, kept), (-1, None)
        try:
            self._walk(block, coins.tolist(), probs, kept)
        except BarrierViolation:
            self._checked_gaps(self._at + 1)  # an earlier row fails first
            raise
        self._checked_gaps(b)
        pos = np.flatnonzero(kept)
        self.sketch.append_rows(lo + pos, 1.0 / np.sqrt(probs[pos]), block[pos],
                                [rows[i] for i in pos.tolist()])
        self.seen = seen[-1].copy()
        self.probs.append(probs)
        self._run = None
        return kept

    def _walk(self, block, coins, probs, kept) -> None:
        """Decide the run's rows in order into probs and kept, with both gap
        pseudo-inverses following each row. One product gives both gaps' forms
        q = a' X+ a, which serve as score and as Sherman-Morrison denominator;
        one stacked step follows, by 0 for a gap that just rebuilt."""
        ys, upper, lower = self._pinvs, self.upper_pinv, self.lower_pinv
        for j, a in enumerate(block):
            self._at = j
            pu = ys @ a
            q_upper, q_lower = np.vecdot(pu, a).tolist()  # a BLAS dot each, as a 1-D a @ pu
            on_upper, rel_upper = upper.relative(a, q_upper)
            on_lower, rel_lower = lower.relative(a, q_lower)
            p = probs[j] = min(self.c_upper * rel_upper + self.c_lower * rel_lower, 1.0)
            kept[j] = keep = coins[j] < p
            taken = 1.0 / p if keep else 0.0
            coef_upper = upper.step_coef((1.0 + self.eps) - taken, q_upper, on_upper)
            coef_lower = lower.step_coef(taken - (1.0 - self.eps), q_lower, on_lower)
            coefs = np.array((coef_upper or 0.0, coef_lower or 0.0))  # 0 for a gap just rebuilt
            ys -= (pu[:, :, None] * pu[:, None, :]) * coefs[:, None, None]
            if coef_upper is not None:
                upper.stepped()
            if coef_lower is not None:
                lower.stepped()

    def _gaps(self, stop: int, start: int = 0) -> np.ndarray:
        """The (stop - start, 2, d, d) gaps (1 + eps) seen - gram and gram - (1 - eps) seen after
        the run's rows start..stop - 1, the grams one cumsum of the kept rows' weighted outers."""
        _, block, seen, probs, kept = self._run
        pos = np.flatnonzero(kept[:stop])
        wa = block[pos] / np.sqrt(probs[pos])[:, None]
        terms = np.concatenate((self.sketch.gram_matrix()[None], wa[:, :, None] * wa[:, None, :]))
        grams, seen = np.cumsum(terms, axis=0)[np.cumsum(kept[:stop])[start:]], seen[start:stop]
        gaps = np.empty((stop - start, 2, self.dim, self.dim))
        np.subtract((1.0 + self.eps) * seen, grams, out=gaps[:, 0])
        np.subtract(grams, (1.0 - self.eps) * seen, out=gaps[:, 1])
        return gaps

    def _checked_gaps(self, n: int) -> None:
        """Raise BarrierViolation for the first of the run's first n rows
        after which the sandwich fails."""
        lo, seen, gaps = self._run[0], self._run[2][:n], self._gaps(n)
        slack = BARRIER_TOL * np.maximum((1.0 + self.eps) * np.trace(seen, axis1=1, axis2=2), 1e-300)
        if not sandwich_holds(gaps, slack[:, None]):
            for j in range(n):
                if not sandwich_holds(gaps[j], slack[j]):
                    upper_gap, lower_gap = np.linalg.eigvalsh(gaps[j])[:, 0]
                    raise BarrierViolation(f"sandwich failed at row {lo + j}: "
                                           f"gaps {upper_gap:.3e}, {lower_gap:.3e}")

    def _gap_psd(self, i: int) -> SymPsd:
        """Gap i (0 upper, 1 lower) at the row being walked; both gaps of a row
        are formed once, for every rebuild and drift check it takes."""
        lo, j = self._run[0], self._at
        if self._row_gaps[0] != j:
            self._row_gaps = (j, self._gaps(j + 1, j)[0])
        try:
            return SymPsd(self._row_gaps[1][i])
        except NotPsd as exc:
            raise BarrierViolation(f"gap matrix indefinite at row {lo + j}") from exc


def sandwich_holds(gaps, slack) -> bool:
    """True when every gap + slack I is positive definite: min eig(gap) > -slack.

    gaps is one (d, d) matrix or a stack of them, and slack one number or
    one per gap (shaped like the stack's leading axes). One batched Cholesky
    factorisation, O(d^3 / 3) per gap, stands in for an eigendecomposition.
    """
    shift = np.asarray(slack, dtype=float)[..., None, None] * np.eye(gaps.shape[-1])
    try:
        np.linalg.cholesky(gaps + shift)
    except np.linalg.LinAlgError:
        return False
    return True


def barrier_step(state: BarrierState, row, index: int) -> bool:
    """Take one row (dense or sparse) as a one-row run; True when it was kept.

    The row is checked before any state changes.
    """
    return bool(state.add_rows(index, rowops.densify(row, state.dim)[None], [row])[0])


def run_barrier(
    stream: RowStream,
    eps: float,
    seed: int,
) -> tuple[Sketch, RunStats]:
    """Run the barrier sampler over a whole stream, ONLINE_RUN rows at a time."""
    state = BarrierState(stream.d, eps, seed)
    for lo in range(0, stream.n, ONLINE_RUN):
        state.add_rows(lo, *stream.block(lo, min(lo + ONLINE_RUN, stream.n)))
    kept = (state.upper_pinv, state.lower_pinv)
    probs = np.concatenate(state.probs) if state.probs else np.empty(0)
    return state.sketch, RunStats(
        scores=None,
        score_total=float(np.sum(probs)),
        pinv_recomputes=sum(k.recomputes for k in kept),
        max_working_rows=state.sketch.n_rows,
        drift_events=sum(k.drift_events for k in kept),
        saturated=int(np.count_nonzero(probs == 1.0)),
        probs=probs,
    )
