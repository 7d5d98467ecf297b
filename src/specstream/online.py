"""Online row samplers: the relative-leverage sampler and the barrier variant.

Both consume dense rows in stream order through add_rows (online_step and
barrier_step take one row) and keep a weighted sketch whose Gram stays a
(1 +/- eps) spectral approximation of the prefix seen so far. Sampling
decisions come from counter-based uniforms keyed by (seed, row index), one
take_range per add_rows. Every runner hands its stream to feed, CHUNK rows
per add_rows, and both states walk a block in runs of ONLINE_RUN rows from
its first row.

The relative-leverage sampler scores a run against the current
pseudo-inverse with one product. Its kernel verdicts hold while that
pseudo-inverse does, so they are taken once for the rest of the block, and
after a rebuild for the rest of the run. Only rows whose coin beats their
score can be kept, since a kept row only lowers later rows' forms: one
comparison against coin thresholds taken once per block picks a superset of
them, and each candidate's p is recomputed exactly. A kept row takes
one gemv (X+ a), one dot, a Sherman-Morrison step in place and one gemv
that lowers the rest of the run's forms, each (the step's outer too) one
ndarray.dot into a preallocated buffer: @'s BLAS routine, dispatched more
cheaply. Run scoring keeps @ (quad_forms, on_image_rows), faster on the
block samplers' 4096-row blocks. A rebuild rescores the rest of the run.
The forms are clamped at 0 once per block and where a candidate's is read:
each correction subtracts a term >= 0, so a form that goes negative stays so
and clamps to the 0 that a clamp after every step gives. The barrier walks every
row, since each moves both gaps: one .dot per gap pseudo-inverse and one
vecdot give both gaps' forms, the score and the step both take in place.
Each gap's kernel verdicts come from one on_image_rows per run, taken again
for the rest of it after a rebuild or a drift replacement.
Per run, one cumsum into a preallocated buffer gives the Gram of the rows
seen after every row, and one of the kept rows' outers, extended in place,
the sketch Grams. A rebuild or drift check forms the one gap it reads; the
sandwich check forms both gaps after every row as one stack and factors it,
shifted in place, with one batched Cholesky.
Both make the decisions of the row-at-a-time rule. A drift check keeps a
certified pseudo-inverse (KeptPinv.certified) and otherwise installs a rebuild.
"""
from __future__ import annotations

import math

import numpy as np

from . import rows as rowops
from .errors import BarrierViolation, NotPsd
from .instances import RowStream
from .linalg import (
    UPDATE_DENOM_FLOOR, PInv, SymPsd, default_rank_tol, on_image_rows, pinv, quad_forms, relative_of,
)
from .randomness import CHUNK, IndexedUniforms
from .sketch import RunStats, Sketch

# Leading constant of c = C * eps^-2 * ln d, per the source analysis.
DEFAULT_ONLINE_C_MULT = 3.0

# Rows both states walk as one run. A kept online row costs
# O(d * run) to correct the rest of its run, and a rebuild rescores that rest.
ONLINE_RUN = 128

# Maintained pseudo-inverse is certified, or else rebuilt, this often.
PINV_VERIFY_EVERY = 64
PINV_DRIFT_TOL = 1e-6

# Barrier sandwich violations are tolerated up to this relative slack.
BARRIER_TOL = 1e-7


def sampling_constant(eps: float, d: int, c_mult: float) -> float:
    """c = c_mult eps^-2 ln max(d, 2): the rate law of the online, block and
    resparsify samplers. Raises ValueError for eps outside (0, 1/2] or a
    c_mult that is not finite and > 0."""
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must be in (0, 1/2], got {eps}")
    if not 0.0 < c_mult < math.inf:
        raise ValueError(f"c_mult must be finite and > 0, got {c_mult}")
    return c_mult * eps ** -2 * math.log(max(d, 2))


class KeptPinv:
    """Pseudo-inverse of a PSD matrix X that changes by rank-one terms k a a'.

    It owns pinv.matrix (its own array or the view passed as matrix). To
    follow X += k a a', the caller takes pa = X+ a and q = a' pa, gets coef
    from step_coef, steps X+ -= coef pa pa' in place, O(d^2), and reports
    the step by stepped(). A row off the image (the image grows) or a
    collapsing denominator (the rank drops) rebuilds X+ as pinv(SymPsd(G)),
    G = `source()` the current X as a (d, d) array. Every PINV_VERIFY_EVERY
    steps a drift check keeps Y = X+ if certified (within PINV_DRIFT_TOL / 2
    of G+, relative, with the residual's rounding taken componentwise, and
    at G+'s rank), or else installs a rebuild, a drift event. recomputes
    counts every pseudo-inverse formed (_formed), and each is installed.
    """

    def __init__(self, dim: int, source, matrix=None):
        matrix = np.zeros((dim, dim)) if matrix is None else matrix
        self.pinv = PInv(0, matrix, np.zeros((dim, dim)))
        self.source = source
        self.recomputes = 0
        self.drift_events = 0
        self._updates_since_verify = 0

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
        """Count a step taken; every PINV_VERIFY_EVERY steps certify Y, or else
        replace it by a rebuild, a drift event, and return False."""
        self._updates_since_verify += 1
        if self._updates_since_verify < PINV_VERIFY_EVERY:
            return True
        g = self.source()
        self._updates_since_verify = 0
        if self.certified(g):
            return True
        self.drift_events += 1
        self.recompute(g)
        return False

    def certified(self, g) -> bool:
        """True when a rebuild, pinv(SymPsd(g)), would raise no NotPsd, keep
        Y's rank and move Y by at most PINV_DRIFT_TOL / 2, relative.

        With R = g Y - P (P the kept projector), Y - g+ = g+ R while steps
        pa pa' (pa = Y a) keep range Y in Im P: the relative drift is at most
        ||R||_F, computed within 2 d u || |g| |Y| ||_F (u = 2^-53; Higham 3.5's
        componentwise product bound, and the subtraction), tried first at its
        bound 2 d u ||g||_F ||Y||_F. With tau = default_rank_tol(d), a kernel
        mass tr g - <P, g> <= floor / 10 (floor = tau tr g / d <= the cutoff
        tau lambda_max) keeps g's eigenvalues past rank P under the cutoff;
        P g P Y = P + P R on Im P puts the rank-P-th (Courant-Fischer) at >=
        1 / (2 ||Y||_2) >= 2 tau lambda_max when tau ||g||_F ||Y||_F < 1/4,
        else the rebuild's SymPsd(g).rank counts them. A Cholesky of g +
        floor / 2 I puts g's least eigenvalue above SymPsd's -floor. Never
        True at PINV_DRIFT_TOL <= 0."""
        y, p, d = self.pinv.matrix, self.pinv.projector, len(g)
        trace, tau = float(g.trace()), default_rank_tol(d)
        if not (trace > 0.0 and trace - float(np.vdot(p, g)) <= 0.1 * tau * trace / d):
            return False
        r = g.dot(y)
        r -= p
        budget, u2d = 0.5 * PINV_DRIFT_TOL - math.sqrt(float(np.vdot(r, r))), 2.0 * d * 2.0 ** -53
        scale = math.sqrt(float(np.vdot(g, g)) * float(np.vdot(y, y)))  # ||g||_F ||Y||_F
        if not 0.0 < scale < math.inf:  # a square over- or underflowed: scale each first
            scale = _frobenius(g) * _frobenius(y)
        return ((u2d * scale <= budget or u2d * np.linalg.norm(np.abs(g) @ np.abs(y)) <= budget)
                and (scale * tau < 0.25 or self.pinv.source_rank == SymPsd(g).rank)
                and sandwich_holds(g, 0.5 * tau * trace / d))

    def _formed(self, g) -> PInv:
        """pinv(SymPsd(g)), an O(d^3) eigendecomposition, counted in recomputes."""
        self.recomputes += 1
        return pinv(SymPsd(g))

    def recompute(self, g=None) -> None:
        """Rebuild into the owned matrix from _formed(g), g = source() by default."""
        fresh = self._formed(self.source() if g is None else g)
        self.pinv.matrix[...] = fresh.matrix
        self.pinv = PInv(fresh.source_rank, self.pinv.matrix, fresh.projector)
        self._updates_since_verify = 0


def _frobenius(a) -> float:
    """||a||_F, taken of a scaled by its largest entry so that no square over- or underflows."""
    top = float(np.max(np.abs(a)))
    return top * float(np.linalg.norm(a / top)) if top else 0.0


class OnlineState:
    """Mutable state of the online sampler; single-owner, mutated in place."""

    def __init__(
        self,
        dim: int,
        eps: float,
        seed: int,
        c_mult: float = DEFAULT_ONLINE_C_MULT,
    ):
        self.dim = dim = rowops.dimension(dim)
        self.c = sampling_constant(eps, dim, c_mult)
        self.eps = float(eps)
        self.sketch = Sketch(dim)
        self.kept = KeptPinv(dim, self._gram)
        self.rng = IndexedUniforms(seed)
        self.scores: list[np.ndarray] = []  # one array per add_rows
        self.probs: list[np.ndarray] = []  # likewise
        self.last_index = -1
        # the block being walked (lo, rows, coin thresholds), its kept rows not yet
        # in the sketch, and the pseudo-inverse its kernel verdicts hold for, up to which row
        self._run, self._verdicts = None, (None, 0)
        self._pending: list[int] = []
        self._pending_p: list[float] = []
        # a kept row's X+ a, its step and the rest of its run's a' X+ rows
        self._pa, self._outer, self._rest = np.empty(dim), np.empty((dim, dim)), np.empty(ONLINE_RUN)

    def add_rows(self, lo: int, block) -> np.ndarray:
        """Take a block of rows with source indices lo, lo + 1, ...

        block is the dense (b, d) array of the rows, of any length; it is
        checked (rows.checked_run) before any state changes, and then walked
        in runs of ONLINE_RUN rows from lo, each folded into the sketch at
        its end, so a feed of any multiple of ONLINE_RUN rows per call
        decides and scores alike. Each row scores
        min((1 + eps) q / (q + 1), 1) against the sketch Gram before it (1
        off its image) and is kept on its coin with p = min(c * score, 1), at
        weight 1/sqrt(p); exactly-zero rows score zero and are never kept.
        A kept row costs one gemv, one dot, an in-place step and one gemv
        over the rest of its run; q is clamped once per block (module docstring says why).
        Returns the kept mask.
        """
        lo, block, self.last_index = rowops.checked_run(block, self.dim, lo, self.last_index)
        b = len(block)
        if b == 0:
            return np.zeros(0, dtype=bool)
        coins = self.rng.take_range(lo, lo + b)
        on, q = np.empty(b, dtype=bool), np.empty(b)
        kept = np.zeros(b, dtype=bool)
        self._run, self._verdicts = (lo, block, self._thresholds(coins)), (None, 0)
        for run in range(0, b, ONLINE_RUN):
            start, stop = run, min(run + ONLINE_RUN, b)
            while start < stop:
                start = self._walk(block, coins, start, stop, on, q, kept)
            self._flush()
        self._run = None
        lev, p = self._levels(on, np.maximum(q, 0.0, out=q))
        self.scores.append(lev)
        self.probs.append(p)
        return kept

    def _walk(self, block, coins, start: int, stop: int, on, q, kept) -> int:
        """Score rows start..stop - 1 of the block against the current
        pseudo-inverse into on and q, and decide them in order; returns where
        to rescore from after a rebuild, or stop; q is left unclamped. Kernel
        verdicts hold while the pseudo-inverse does (a step keeps its
        projector): taken at a run's start for the rest of the block, and
        after a rebuild for the rest of the run."""
        pinv_now, pa, outer, rest = self.kept.pinv, self._pa, self._outer, self._rest
        y, pa_col, pa_row = pinv_now.matrix, pa[:, None], pa[None]
        if self._verdicts[0] is not pinv_now or self._verdicts[1] < stop:
            end = len(block) if start % ONLINE_RUN == 0 else stop
            on[start:end] = on_image_rows(pinv_now, block[start:end])
            self._verdicts = (pinv_now, end)
        q[start:stop] = quad_forms(pinv_now, block[start:stop])
        # a Sherman-Morrison step lowers q, so a row whose coin failed stays dropped
        t = self._run[2]
        candidates = np.flatnonzero(~on[start:stop] | (q[start:stop] > t[start:stop]))
        verdicts, c, lift = on[start:stop].tolist(), self.c, 1.0 + self.eps
        for i in (start + candidates).tolist():
            qi, on_i = max(q.item(i), 0.0), verdicts[i - start]  # p as _levels gives it, in floats
            p = min(c * min(lift * (qi / (qi + 1.0) if on_i else 1.0), 1.0), 1.0)
            if not coins.item(i) < p:
                continue
            kept[i] = True
            self._pending.append(i)
            self._pending_p.append(p)
            a = block[i]
            y.dot(a, out=pa)
            coef = self.kept.step_coef(1.0 / p, float(a.dot(pa)), on_i)
            if coef is None:
                return i + 1
            pa_col.dot(pa_row, out=outer)
            outer *= coef
            y -= outer
            if not self.kept.stepped():
                return i + 1
            g = block[i + 1:stop].dot(pa, out=rest[:stop - i - 1])
            np.square(g, out=g)
            g *= coef
            q[i + 1:stop] -= g
        return stop

    def _thresholds(self, coins) -> np.ndarray:
        """Per coin, a t such that a row on the image beats its coin only if q > t.

        coin < c (1 + eps) q / (q + 1), which bounds p from above, is q > coin
        / (c (1 + eps) - coin); t is that less 1e-9 relative, more than p's
        rounding. t = inf where c (1 + eps) <= coin, as p's rounding is
        monotone, and t = 0 (p = 0 at q <= 0) where c (1 + eps) is within
        1e-6 relative of coin, as there the difference's rounding can pass 1e-9.
        """
        cl = self.c * (1.0 + self.eps)
        room = cl - coins
        t = np.where(room > 0.0, 0.0, np.inf)
        np.divide(coins, room, out=t, where=room > 1e-6 * cl)
        t *= 1.0 - 1e-9
        return t

    def _levels(self, on, q):
        """Capped scores and sampling probabilities of rows with kernel
        verdicts on and quadratic forms q."""
        lev = np.minimum((1.0 + self.eps) * relative_of(on, q), 1.0)
        return lev, np.minimum(self.c * lev, 1.0)

    def _flush(self) -> None:
        """Fold the pending kept rows (checked at entry; each p > 0) into the sketch with one product."""
        if not self._pending:
            return
        lo, block, _ = self._run
        pos = np.array(self._pending)
        weights = 1.0 / np.sqrt(np.array(self._pending_p))
        self.sketch._fold(lo + pos, weights, block[pos])
        self._pending, self._pending_p = [], []

    def _gram(self) -> np.ndarray:
        """The kept pseudo-inverse's source: the sketch Gram with every kept row in."""
        self._flush()
        return self.sketch.gram_matrix()


def online_step(state: OnlineState, row, index: int) -> bool:
    """Take one row (dense or sparse) as a one-row run; True when it was kept.

    The row is checked before any state changes.
    """
    return bool(state.add_rows(index, rowops.densify(row, state.dim)[None])[0])


def feed(state, stream: RowStream):
    """Hand a whole stream to state.add_rows in CHUNK-row blocks, each densified
    on its own (RowStream.block) so memory stays O(CHUNK * d); returns state."""
    for lo in range(0, stream.n, CHUNK):
        state.add_rows(lo, stream.block(lo, min(lo + CHUNK, stream.n)))
    return state


def run_online(
    stream: RowStream,
    eps: float,
    seed: int,
    c_mult: float = DEFAULT_ONLINE_C_MULT,
) -> tuple[Sketch, RunStats]:
    """Run the online sampler over a whole stream (feed)."""
    state = feed(OnlineState(stream.d, eps, seed, c_mult=c_mult), stream)
    return state.sketch, RunStats(
        scores=state.scores,
        probs=state.probs,
        pinv_recomputes=state.kept.recomputes,
        max_working_rows=state.sketch.n_rows,
        drift_events=state.kept.drift_events,
    )


class BarrierState:
    """State of the barrier sampler: sketch Gram fenced between two barriers.

    The barriers are (1 + eps) and (1 - eps) times seen, the Gram of the
    rows seen, which a run advances with one cumsum into a buffer of
    ONLINE_RUN + 1 Grams. Each gap, (1 + eps) seen - gram and gram - (1 -
    eps) seen, keeps its pseudo-inverse in a KeptPinv that owns one half of
    a (2, d, d) stack, so one product scores a row against both and one
    in-place update steps both. A gap's source, _gap, forms that gap alone
    at the row being walked; _gap_stack forms both after every row of the
    run for the sandwich check. A BarrierViolation leaves the state mid-run:
    do not reuse it.
    """

    def __init__(self, dim: int, eps: float, seed: int):
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        self.dim = dim = rowops.dimension(dim)
        self.eps = float(eps)
        self.c_upper, self.c_lower = 2.0 / eps + 1.0, 3.0 / eps - 1.0
        self.sketch = Sketch(dim)
        self.seen = np.zeros((dim, dim))
        # a run's prefix sums: seen before it and after each row, and the sketch Grams (_summed_grams)
        self._seens, self._grams = np.empty((2, ONLINE_RUN + 1, dim, dim))
        self._stack = np.empty(2 * ONLINE_RUN * dim * dim)  # the sandwich check's gaps
        self._pinvs = np.zeros((2, dim, dim))  # the gaps' kept pseudo-inverses
        self._pu, self._coefs, self._steps = np.empty((2, dim)), np.empty(2), np.empty((2, dim, dim))
        self.upper_pinv = KeptPinv(dim, lambda: self._gap(0, self._at), self._pinvs[0])
        self.lower_pinv = KeptPinv(dim, lambda: self._gap(1, self._at), self._pinvs[1])
        self.rng = IndexedUniforms(seed)
        self.probs: list[np.ndarray] = []  # one array per run
        self.last_index = -1
        self._run = None  # (lo, block, seen after each row, probs, kept) of the run walked
        self._at = 0  # the row of it being walked
        self._summed = (0, 0)  # (rows, kept rows among them) that _grams has summed

    def add_rows(self, lo: int, block) -> np.ndarray:
        """Take a block of rows with source indices lo, lo + 1, ...

        block is as for OnlineState.add_rows, checked before any state changes
        and walked in runs of ONLINE_RUN rows from lo (memory O(ONLINE_RUN d^2)
        per call). Row a is kept on its coin with p =
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
        lo, block, self.last_index = rowops.checked_run(block, self.dim, lo, self.last_index)
        coins = self.rng.take_range(lo, lo + len(block)).tolist()
        kept = np.zeros(len(block), dtype=bool)
        for start in range(0, len(block), ONLINE_RUN):
            run, run_kept = block[start:start + ONLINE_RUN], kept[start:start + ONLINE_RUN]
            b = len(run)
            # seen after every row, summed in row order as one row at a time would
            seen = self._seens[:b + 1]
            seen[0] = self.seen
            np.multiply(run[:, :, None], run[:, None, :], out=seen[1:])
            np.cumsum(seen, axis=0, out=seen)
            probs = np.empty(b)
            self._grams[0] = self.sketch.gram_matrix()
            self._run, self._summed = (lo + start, run, seen[1:], probs, run_kept), (0, 0)
            try:
                try:
                    self._walk(run, coins[start:start + b], probs, run_kept)
                except NotPsd as exc:  # a rebuild's gap is indefinite beyond the SymPsd floor
                    raise BarrierViolation(f"gap matrix indefinite at row {lo + start + self._at}") from exc
            except BarrierViolation:
                self._checked_gaps(self._at + 1)  # an earlier row fails first
                raise
            self._checked_gaps(b)
            pos = np.flatnonzero(run_kept)
            if pos.size:  # checked at entry, and each p beat its coin, so p > 0
                self.sketch._fold(lo + start + pos, 1.0 / np.sqrt(probs[pos]), run[pos])
            self.seen = seen[-1].copy()
            self.probs.append(probs)
        self._run = None
        return kept

    def _walk(self, block, coins, probs, kept) -> None:
        """Decide the run's rows in order into probs and kept, with both gap
        pseudo-inverses following each row. One product gives both gaps' forms
        q = a' X+ a, which serve as score and as Sherman-Morrison denominator;
        one stacked step follows in place, by 0 for a gap that just rebuilt.
        A gap's kernel verdicts come from on_image_rows, again for the rest of
        the run after a rebuild or drift replacement: a step keeps the projector."""
        ys, pu, coefs, steps = self._pinvs, self._pu, self._coefs, self._steps
        (y_u, y_l), (pu_u, pu_l), (step_u, step_l), scale = ys, pu, steps, coefs[:, None, None]
        (col_u, col_l), (row_u, row_l) = pu[:, :, None], pu[:, None, :]
        upper, lower = self.upper_pinv, self.lower_pinv
        on_upper, on_lower = (on_image_rows(gap.pinv, block).tolist() for gap in (upper, lower))
        for j, a in enumerate(block):
            self._at = j
            y_u.dot(a, out=pu_u)
            y_l.dot(a, out=pu_l)
            q_upper, q_lower = np.vecdot(pu, a).tolist()  # a BLAS dot each, as a 1-D a @ pu
            qu, ql = max(q_upper, 0.0), max(q_lower, 0.0)  # scores q / (q + 1), or 1 off the image
            p = probs[j] = min(self.c_upper * (qu / (qu + 1.0) if on_upper[j] else 1.0)
                               + self.c_lower * (ql / (ql + 1.0) if on_lower[j] else 1.0), 1.0)
            kept[j] = keep = coins[j] < p
            taken = 1.0 / p if keep else 0.0
            coef_upper = upper.step_coef((1.0 + self.eps) - taken, q_upper, on_upper[j])
            coef_lower = lower.step_coef(taken - (1.0 - self.eps), q_lower, on_lower[j])
            coefs[0], coefs[1] = coef_upper or 0.0, coef_lower or 0.0  # 0 for a gap just rebuilt
            col_u.dot(row_u, out=step_u)
            col_l.dot(row_l, out=step_l)
            steps *= scale
            ys -= steps
            if coef_upper is None or not upper.stepped():
                on_upper[j + 1:] = on_image_rows(upper.pinv, block[j + 1:]).tolist()
            if coef_lower is None or not lower.stepped():
                on_lower[j + 1:] = on_image_rows(lower.pinv, block[j + 1:]).tolist()

    def _summed_grams(self, stop: int) -> np.ndarray:
        """The buffer whose k-th entry is the sketch Gram plus the run's first k kept rows'
        weighted outers, summed through its first stop rows: one cumsum, extended in place
        in row order as a cumsum of them all adds."""
        _, block, _, probs, kept = self._run
        rows, m = self._summed
        if stop > rows:
            pos = rows + np.flatnonzero(kept[rows:stop])
            if len(pos):
                wa = block[pos] / np.sqrt(probs[pos])[:, None]
                new = self._grams[m:m + 1 + len(pos)]
                np.multiply(wa[:, :, None], wa[:, None, :], out=new[1:])
                np.cumsum(new, axis=0, out=new)
            self._summed = (stop, m + len(pos))
        return self._grams

    def _gap(self, k: int, at: int) -> np.ndarray:
        """Gap k after the run's row at, formed alone: (1 + eps) seen - gram for k = 0,
        gram - (1 - eps) seen for k = 1; the source of a rebuild or drift check."""
        _, _, seen, _, kept = self._run
        gram = self._summed_grams(at + 1)[np.count_nonzero(kept[:at + 1])]
        return (1.0 + self.eps) * seen[at] - gram if k == 0 else gram - (1.0 - self.eps) * seen[at]

    def _gap_stack(self, n: int) -> np.ndarray:
        """Both gaps after each of the run's first n rows, as one contiguous
        (2, n, d, d) stack in a buffer the state reuses: [0] the upper, [1] the lower."""
        _, _, seen, _, kept = self._run
        seen, d = seen[:n], self.dim
        grams = self._summed_grams(n)[np.cumsum(kept[:n])]
        gaps = self._stack[:2 * n * d * d].reshape(2, n, d, d)
        np.multiply(seen, 1.0 + self.eps, out=gaps[0])
        gaps[0] -= grams
        np.multiply(seen, 1.0 - self.eps, out=gaps[1])
        np.subtract(grams, gaps[1], out=gaps[1])
        return gaps

    def _checked_gaps(self, n: int) -> None:
        """Raise BarrierViolation for the first of the run's first n rows
        after which the sandwich fails: the gap stack, shifted by each row's
        slack on its diagonal in place, fails one batched Cholesky
        (sandwich_holds' test), and then that row's pair does."""
        lo, seen, d = self._run[0], self._run[2][:n], self.dim
        slack = BARRIER_TOL * np.maximum((1.0 + self.eps) * np.trace(seen, axis1=1, axis2=2), 1e-300)
        gaps = self._gap_stack(n)
        gaps.reshape(2, n, d * d)[:, :, ::d + 1] += slack[:, None]
        if not _factors(gaps):
            j = next(j for j in range(n) if not _factors(gaps[:, j]))
            upper_gap, lower_gap = (np.linalg.eigvalsh(self._gap(k, j))[0] for k in (0, 1))
            raise BarrierViolation(f"sandwich failed at row {lo + j}: gaps {upper_gap:.3e}, {lower_gap:.3e}")


def sandwich_holds(gaps, slack) -> bool:
    """True when every gap + slack I is positive definite: min eig(gap) > -slack.

    gaps is one (d, d) matrix or a stack of them, and slack one number or
    one per gap (shaped like the stack's leading axes). One batched Cholesky
    factorisation, O(d^3 / 3) per gap, stands in for an eigendecomposition.
    """
    shift = np.asarray(slack, dtype=float)[..., None, None] * np.eye(gaps.shape[-1])
    return _factors(gaps + shift)


def _factors(stack) -> bool:
    """True when one batched Cholesky factors every matrix of the stack."""
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return False
    return True


def barrier_step(state: BarrierState, row, index: int) -> bool:
    """Take one row (dense or sparse) as a one-row run; True when it was kept.

    The row is checked before any state changes.
    """
    return bool(state.add_rows(index, rowops.densify(row, state.dim)[None])[0])


def run_barrier(
    stream: RowStream,
    eps: float,
    seed: int,
) -> tuple[Sketch, RunStats]:
    """Run the barrier sampler over a whole stream (feed)."""
    state = feed(BarrierState(stream.d, eps, seed), stream)
    kept = (state.upper_pinv, state.lower_pinv)
    return state.sketch, RunStats(
        probs=state.probs,
        pinv_recomputes=sum(k.recomputes for k in kept),
        max_working_rows=state.sketch.n_rows,
        drift_events=sum(k.drift_events for k in kept),
    )
