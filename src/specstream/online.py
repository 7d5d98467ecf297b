"""Online row samplers: the relative-leverage sampler and the barrier variant.

Both consume dense rows in stream order through add_rows (online_step and
barrier_step take one row) and keep a weighted sketch whose Gram stays a
(1 +/- eps) spectral approximation of the prefix seen so far. Sampling
decisions come from counter-based uniforms keyed by (seed, row index), one
take_range per add_rows. Every runner hands its stream to feed, CHUNK rows
per add_rows, and both states walk a block in runs of ONLINE_RUN rows from
its first row, making the decisions of the row-at-a-time rule.

An ImageBasis U that only grows decides the image, as in every sampler,
and a KeptPinv on U steps by Sherman-Morrison and is rebuilt by Cholesky
when U grows, when a step's denominator collapses and on a fixed schedule.
Both walk in U coordinates, b = U'a, projected once per run (and again
after a rebuild or a growth), and the pseudo-inverse and the Grams it is
rebuilt from are summed there: a direction small next to the others keeps
a coordinate of its own, however it lies against the axes, so they stay graded.

The relative-leverage sampler scores a run with one product. Its kernel
verdicts hold while U does: taken once for the rest of the block, and after
U grows for the rest of the run. A kept row only lowers later rows' forms,
so one comparison against coin thresholds taken once per block picks a
superset of the rows that can be kept. After a walk's first step each
candidate is scored fresh, one gemv (Y b) and one dot; a kept row steps Y
in place, each product one ndarray.dot into a preallocated buffer, and one
product where the walk ends corrects the other rows. A rebuild rescores the
rest of the run. The forms are clamped at 0 once per block and where a
candidate's is read: a corrected form that goes negative stays so.
The barrier walks every row, since each moves both gaps: one .dot per gap
and one vecdot give both gaps' forms. Both gaps live on seen's image, so one
kernel verdict per row serves both. Per run, one cumsum gives the Gram of
the rows seen after every row, and one of the kept rows' outers, extended
in place, the sketch Grams. A rebuild forms the one gap it reads; the
sandwich check forms both gaps after every row as one stack and factors it,
shifted in place, with one batched Cholesky.
"""
from __future__ import annotations

import copy
import math

import numpy as np

from . import rows as rowops
from .errors import BarrierViolation, NotPsd
from .instances import RowStream
from .linalg import UPDATE_DENOM_FLOOR, quad_forms, relative_of
from .randomness import CHUNK, IndexedUniforms
from .sketch import RunStats, Sketch

# Leading constant of c = C * eps^-2 * ln d, per the source analysis.
DEFAULT_ONLINE_C_MULT = 3.0

# Rows both states walk as one run. An online walk corrects its rows with one
# O(run * steps * d) product where it ends, and a rebuild rescores the rest.
ONLINE_RUN = 128

# Every PINV_VERIFY_EVERY-th step of a kept pseudo-inverse is a rebuild.
PINV_VERIFY_EVERY = 64

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


class ImageBasis:
    """Orthonormal basis U of a PSD matrix's image, which only grows, and the
    coordinates b = U'a every sampler works in: the one rank rule.

    coords is (d, d): U in its first rank columns, 0 past them, so a @ coords
    is a row's b. The kernel test, on_image, calls row a on the image when
    its residual off U, r = a - a P with P = U U', has ||r|| <= tol ||a||,
    tol = 10 d u, u = 2^-53. P is U U' to within about d u, and a P errs by
    at most d u |a||P| entrywise (Higham, Accuracy and Stability, 3.5), so
    tol clears a row on span U at worst for d <= 81, and by 10x in practice
    (rows of random subspaces, d = 4 to 128, left under d u ||a||). grow
    appends a row's residual off U, orthogonalised twice ("twice is enough":
    Giraud, Langou & Rozloznik 2005; Parlett, The Symmetric Eigenvalue
    Problem, 6-9) and normalised, orthogonal to U to within about d u. No
    direction is dropped; there is no rank cutoff. grow replaces coords and
    projector rather than writing them, so frozen() is U as it stood.
    """

    def __init__(self, dim: int):
        self.coords, self.projector = np.zeros((dim, dim)), np.zeros((dim, dim))
        self.rank = 0
        self._tol2 = (10.0 * dim * 2.0 ** -53) ** 2

    def on_image(self, block) -> np.ndarray:
        """The kernel test for each row of a dense (b, d) block. The zero row
        lies on every image; a full U has the whole space as its span and forms none."""
        if self.rank == len(self.coords):
            return np.ones(len(block), dtype=bool)
        r = block @ self.projector - block
        return np.einsum("ij,ij->i", r, r) <= self._tol2 * np.einsum("ij,ij->i", block, block)

    def grow(self, a) -> None:
        """Append row a's residual off U, orthogonalised twice and normalised; a is off the image."""
        u = self.coords.copy()
        r = a - u @ (u.T @ a)
        r -= u @ (u.T @ r)
        u[:, self.rank] = r / np.linalg.norm(r)
        self.rank += 1
        self.coords, self.projector = u, u @ u.T

    def extend(self, block) -> None:
        """grow by each row of a dense (b, d) block off U, in order, retesting the rows after each."""
        while self.rank < len(self.coords) and len(block):
            off = np.flatnonzero(~self.on_image(block))
            if not off.size:
                return
            self.grow(block[off[0]])
            block = block[off[0] + 1:]

    def frozen(self) -> ImageBasis:
        """U as it stands, for kernel verdicts while this basis grows on."""
        return copy.copy(self)


def inverse_factor(gram) -> np.ndarray:
    """L^-1 for the Cholesky factor L of an (r, r) U'GU, O(r^3) with no rank cutoff; NotPsd when it fails to factor."""
    try:
        return np.linalg.inv(np.linalg.cholesky(gram))
    except np.linalg.LinAlgError as exc:
        raise NotPsd(f"U'GU of rank {len(gram)} fails to factor: G lost rank on U") from exc


def whitener(sketch: Sketch, image: ImageBasis) -> np.ndarray:
    """W = U L^-T, (d, rank), for the Cholesky factor L of the sketch's Gram
    G on U (Sketch.gram_on): a'G+a = ||aW||^2 for a on U, G+ = W W'. NotPsd
    unless the m rows span U: G fails to factor, or S = D^-1/2 G D^-1/2, D =
    diag(G), the Gram of their coordinates in unit columns, has its least
    eigenvalue at rounding, under r m u: trace(S^-1) >= 1 / (10 r m u)."""
    r = image.rank
    gram = sketch.gram_on(image)[:r, :r]
    inverse = inverse_factor(gram)
    scaled = inverse * np.sqrt(gram.diagonal())
    if np.vdot(scaled, scaled) * (10.0 * r * sketch.n_rows * 2.0 ** -53) >= 1.0:
        raise NotPsd(f"a sketch's Gram on U of rank {r} lost a direction to rounding")
    return image.coords[:, :r] @ inverse.T


class KeptPinv:
    """Y = (U'XU)^-1, in U coordinates, of a PSD matrix X that changes by
    rank-one terms k a a', on the basis U of X's image that image holds. Y is
    matrix's leading rank x rank block (its own (d, d) array or the view
    passed in), 0 past it, so a' X+ a = b' Y b. To follow X += k a a', the
    caller grows U when a is off it, takes pa = Y b and q = b' pa, gets coef
    from step_coef and steps Y -= coef pa pa' in place, O(d^2). A rebuild
    from a Cholesky factor of U'GU (source(), the current X in U
    coordinates), O(d^3) with no rank cutoff, takes the place of the step
    for a off U, for |1 + k q| < UPDATE_DENOM_FLOOR and on every
    PINV_VERIFY_EVERY-th step, wiping the steps' rounding. X is positive
    definite on U in exact arithmetic, so a U'GU that fails to factor lost
    rank there (inverse_factor). recomputes counts rebuilds.
    """

    def __init__(self, dim: int, source, image: ImageBasis, matrix=None):
        self.matrix = np.zeros((dim, dim)) if matrix is None else matrix
        self.source, self.image = source, image
        self.recomputes = self._steps = 0

    def step_coef(self, k: float, q: float, on_image: bool):
        """coef of the step Y -= coef pa pa' that follows X += k a a' (q = b' Y b);
        None after a rebuild in its place (see the class docstring)."""
        self._steps += 1
        denom = 1.0 + k * q
        if on_image and abs(denom) >= UPDATE_DENOM_FLOOR and self._steps < PINV_VERIFY_EVERY:
            return k / denom
        self.rebuild()
        return None

    def rebuild(self) -> None:
        """Y = (U'GU)^-1 into the owned matrix's leading rank x rank block, G = source()."""
        r = self.image.rank
        w = inverse_factor(self.source()[:r, :r])
        self.matrix[:r, :r] = w.T @ w
        self.recomputes, self._steps = self.recomputes + 1, 0


class OnlineState:
    """Mutable state of the online sampler; single-owner, mutated in place."""

    def __init__(self, dim: int, eps: float, seed: int, c_mult: float = DEFAULT_ONLINE_C_MULT):
        self.dim = dim = rowops.dimension(dim)
        self.c = sampling_constant(eps, dim, c_mult)
        self.eps = float(eps)
        self.sketch = Sketch(dim)
        self.image = ImageBasis(dim)  # of the kept rows' span
        self.kept = KeptPinv(dim, self._gram, self.image)
        self.rng = IndexedUniforms(seed)
        self.scores: list[np.ndarray] = []  # one array per add_rows
        self.probs: list[np.ndarray] = []  # likewise
        self.last_index = -1
        # the block being walked (lo, rows, coin thresholds), its kept rows not yet
        # in the sketch, and the rank of U its kernel verdicts hold for, up to which row
        self._run, self._verdicts = None, (None, 0)
        self._pending, self._pending_p = [], []
        # the walk's rows in U coordinates, and each of its steps' Y b, coef and outer
        self._coords = np.empty((ONLINE_RUN, dim))
        self._pas, self._coefs, self._outer = np.empty((ONLINE_RUN, dim)), np.empty(ONLINE_RUN), np.empty((dim, dim))

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
        A candidate costs one gemv and one dot, a kept row an in-place step, and
        a walk one product; q is clamped once per block (module docstring says why).
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
        verdicts hold while U does: taken at a run's start for the rest of
        the block, and after U grows for the rest of the run. The rows are
        scored and stepped in U coordinates, projected once per walk. Where
        the walk ends, one product lowers each row j that is no candidate by
        coef_h (b_j . Y_h b_h)^2 for each step h before it; its q <= t <=
        coin / (c (1 + eps) - coin), so this, at most q, rounds at about u t
        (u = 2^-53). A large q is a candidate's, scored fresh after a step,
        save at t = inf (c (1 + eps) <= coin, so c < 1): a row never kept."""
        pas, coefs, outer, image = self._pas, self._coefs, self._outer, self.image
        y, steps, upto = self.kept.matrix, 0, stop
        if self._verdicts[0] != image.rank or self._verdicts[1] < stop:
            end = len(block) if start % ONLINE_RUN == 0 else stop
            on[start:end] = image.on_image(block[start:end])
            self._verdicts = (image.rank, end)
        coords = block[start:stop].dot(image.coords, out=self._coords[:stop - start])
        q[start:stop] = quad_forms(self.kept, coords)
        # a Sherman-Morrison step lowers q, so a row whose coin failed stays dropped
        t = self._run[2]
        candidate = ~on[start:stop] | (q[start:stop] > t[start:stop])
        verdicts, c, lift = on[start:stop].tolist(), self.c, 1.0 + self.eps
        for i in (start + np.flatnonzero(candidate)).tolist():
            b, pa, on_i = coords[i - start], pas[steps], verdicts[i - start]
            if steps:  # scored fresh against the stepped Y
                q[i] = b.dot(y.dot(b, out=pa))
            qi = max(q.item(i), 0.0)  # p as _levels gives it, in floats
            p = min(c * min(lift * (qi / (qi + 1.0) if on_i else 1.0), 1.0), 1.0)
            if not coins.item(i) < p:
                continue
            kept[i] = True
            if not on_i:  # the rows kept before it enter the Gram with 0 on the new direction
                self._gram()
                image.grow(block[i])
            self._pending.append(i)
            self._pending_p.append(p)
            coef = self.kept.step_coef(1.0 / p, q.item(i) if steps else float(b.dot(y.dot(b, out=pa))), on_i)
            if coef is None:
                upto = i
                break
            pa[:, None].dot(pa[None], out=outer)
            outer *= coef
            y -= outer
            coefs[steps], steps = coef, steps + 1
        if steps:  # one product, masked by position, corrects the rows not candidates
            g = coords[:upto - start].dot(pas[:steps].T)
            np.square(g, out=g)
            g *= np.flatnonzero(kept[start:upto]) < np.arange(upto - start)[:, None]
            np.subtract(q[start:upto], g.dot(coefs[:steps]), out=q[start:upto], where=~candidate[:upto - start])
        return stop if upto == stop else upto + 1

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
        """The kept pseudo-inverse's source: the sketch Gram on U (Sketch.gram_on), every kept row in."""
        self._flush()
        return self.sketch.gram_on(self.image)


def online_step(state: OnlineState, row, index: int) -> bool:
    """Take one row (dense or sparse), checked before any state changes, as a one-row run; True if kept."""
    return bool(state.add_rows(index, rowops.densify(row, state.dim)[None])[0])


def feed(state, stream: RowStream):
    """Hand a whole stream to state.add_rows in CHUNK-row blocks, each densified
    on its own (RowStream.block) so memory stays O(CHUNK * d); returns state."""
    for lo in range(0, stream.n, CHUNK):
        state.add_rows(lo, stream.block(lo, min(lo + CHUNK, stream.n)))
    return state


def run_online(stream: RowStream, eps: float, seed: int,
               c_mult: float = DEFAULT_ONLINE_C_MULT) -> tuple[Sketch, RunStats]:
    """Run the online sampler over a whole stream (feed)."""
    state = feed(OnlineState(stream.d, eps, seed, c_mult=c_mult), stream)
    return state.sketch, RunStats(scores=state.scores, probs=state.probs,
                                  pinv_recomputes=state.kept.recomputes, max_working_rows=state.sketch.n_rows)


class BarrierState:
    """State of the barrier sampler: sketch Gram fenced between two barriers.

    The barriers are (1 + eps) and (1 - eps) times seen, the Gram of the
    rows seen, which a run advances with one cumsum into a buffer of
    ONLINE_RUN + 1 Grams. seen and gram, the sketch Gram, are kept in the U
    coordinates of the one ImageBasis of seen's image, where both gaps live.
    Each gap, (1 + eps) seen - gram and gram - (1 - eps) seen, keeps its
    pseudo-inverse in a KeptPinv that owns one half of a (2, d, d) stack, so
    one product scores a row against both and one in-place update steps
    both. A gap's source, _gap, forms that gap alone at the row being walked;
    _gap_stack forms both after every row of the run for the sandwich check.
    A BarrierViolation leaves the state mid-run: do not reuse it.
    """

    def __init__(self, dim: int, eps: float, seed: int):
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        self.dim = dim = rowops.dimension(dim)
        self.eps = float(eps)
        self.c_upper, self.c_lower = 2.0 / eps + 1.0, 3.0 / eps - 1.0
        self.sketch = Sketch(dim)
        self.image = ImageBasis(dim)  # of seen's image
        # the Grams of the rows seen and of the sketch, in U coordinates
        self.seen, self.gram = np.zeros((dim, dim)), np.zeros((dim, dim))
        # a run's rows in U coordinates, and its prefix sums: seen before it and
        # after each row, and the sketch Grams (_summed_grams)
        self._coords = np.empty((ONLINE_RUN, dim))
        self._seens, self._grams = np.empty((2, ONLINE_RUN + 1, dim, dim))
        self._stack = np.empty(2 * ONLINE_RUN * dim * dim)  # the sandwich check's gaps
        self._pinvs = np.zeros((2, dim, dim))  # the gaps' kept pseudo-inverses
        self._pu, self._coefs, self._steps = np.empty((2, dim)), np.empty(2), np.empty((2, dim, dim))
        self.upper_pinv = KeptPinv(dim, lambda: self._gap(0, self._at), self.image, self._pinvs[0])
        self.lower_pinv = KeptPinv(dim, lambda: self._gap(1, self._at), self.image, self._pinvs[1])
        self.rng = IndexedUniforms(seed)
        self.probs: list[np.ndarray] = []  # one array per run
        self.last_index = -1
        self._run = None  # (lo, coordinates, seen after each row, probs, kept) of the run walked
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
        gap's kept pseudo-inverse, or 1 off seen's image. seen advances by aa',
        kept or not, so the gaps change by k aa' with k_u = (1 + eps) - s/p
        and k_l = s/p - (1 - eps) (s = 1 if kept), and the kept
        pseudo-inverses follow by Sherman-Morrison. Raises BarrierViolation
        for the first row after which either gap, read on U (off it both
        gaps hold only rounding), has an eigenvalue below
        -BARRIER_TOL * (1 + eps) trace(seen), and also when a rebuild finds
        its gap lost rank on seen's image (fails to factor). Returns the kept mask.
        """
        lo, block, self.last_index = rowops.checked_run(block, self.dim, lo, self.last_index)
        coins = self.rng.take_range(lo, lo + len(block)).tolist()
        kept = np.zeros(len(block), dtype=bool)
        for start in range(0, len(block), ONLINE_RUN):
            run, run_kept = block[start:start + ONLINE_RUN], kept[start:start + ONLINE_RUN]
            b = len(run)
            coords = run.dot(self.image.coords, out=self._coords[:b])
            seen = self._seens[:b + 1]
            seen[0] = self.seen
            self._summed_seen(coords, seen)
            probs = np.empty(b)
            self._grams[0] = self.gram
            self._run, self._summed = (lo + start, coords, seen[1:], probs, run_kept), (0, 0)
            try:
                try:
                    self._walk(run, coins[start:start + b], probs, run_kept)
                except NotPsd as exc:  # a rebuild's gap lost rank on seen's image
                    raise BarrierViolation(f"gap matrix indefinite at row {lo + start + self._at}") from exc
            except BarrierViolation:
                self._checked_gaps(self._at + 1)  # an earlier row fails first
                raise
            self._checked_gaps(b)
            pos = np.flatnonzero(run_kept)
            if pos.size:  # checked at entry, and each p beat its coin, so p > 0
                self.sketch._fold(lo + start + pos, 1.0 / np.sqrt(probs[pos]), run[pos])
            self.seen, self.gram = seen[-1].copy(), self._summed_grams(b)[pos.size].copy()
            self.probs.append(probs)
        self._run = None
        return kept

    def _walk(self, block, coins, probs, kept) -> None:
        """Decide the run's rows in order into probs and kept, with both gap
        pseudo-inverses following each row. One product gives both gaps' forms
        q = b' Y b, which serve as score and as Sherman-Morrison denominator;
        one stacked step follows in place, by 0 for a gap that just rebuilt.
        One kernel verdict per row, off seen's basis, serves both gaps: taken
        for the run, and for the rest of it again after a row off it (so p = 1,
        as c_lower > 1) grows it, when the rest of the run is projected on the
        grown U and summed into seen again."""
        ys, pu, coefs, steps = self._pinvs, self._pu, self._coefs, self._steps
        (y_u, y_l), (pu_u, pu_l), (step_u, step_l), scale = ys, pu, steps, coefs[:, None, None]
        (col_u, col_l), (row_u, row_l) = pu[:, :, None], pu[:, None, :]
        upper, lower = self.upper_pinv, self.lower_pinv
        coords, seen = self._run[1], self._seens[:len(block) + 1]
        on = self.image.on_image(block).tolist()
        for j, b in enumerate(coords):
            self._at = j
            y_u.dot(b, out=pu_u)
            y_l.dot(b, out=pu_l)
            q_upper, q_lower = np.vecdot(pu, b).tolist()  # a BLAS dot each, as a 1-D b @ pu
            qu, ql = max(q_upper, 0.0), max(q_lower, 0.0)  # scores q / (q + 1), or 1 off the image
            p = probs[j] = min(self.c_upper * (qu / (qu + 1.0)) + self.c_lower * (ql / (ql + 1.0)),
                               1.0) if on[j] else 1.0
            kept[j] = keep = coins[j] < p
            taken = 1.0 / p if keep else 0.0
            if not on[j]:  # kept at p = 1: U grows, and the rest of the run is judged again
                self.image.grow(block[j])
                on[j + 1:] = self.image.on_image(block[j + 1:]).tolist()
                self._summed_seen(block[j:].dot(self.image.coords, out=coords[j:]), seen[j:])
            coef_upper = upper.step_coef((1.0 + self.eps) - taken, q_upper, on[j])
            coef_lower = lower.step_coef(taken - (1.0 - self.eps), q_lower, on[j])
            coefs[0], coefs[1] = coef_upper or 0.0, coef_lower or 0.0  # 0 for a gap just rebuilt
            col_u.dot(row_u, out=step_u)
            col_l.dot(row_l, out=step_l)
            steps *= scale
            ys -= steps

    @staticmethod
    def _summed_seen(coords, seen) -> None:
        """seen[k] += the outers of coords' first k rows, for every k, from
        seen[0]: one cumsum in place, in row order as one row at a time sums."""
        np.multiply(coords[:, :, None], coords[:, None, :], out=seen[1:])
        np.cumsum(seen, axis=0, out=seen)

    def _summed_grams(self, stop: int) -> np.ndarray:
        """The buffer whose k-th entry is the sketch Gram plus the run's first k kept rows'
        weighted outers, summed through its first stop rows: one cumsum, extended in place
        in row order as a cumsum of them all adds."""
        _, coords, _, probs, kept = self._run
        rows, m = self._summed
        if stop > rows:
            pos = rows + np.flatnonzero(kept[rows:stop])
            if len(pos):
                wa = coords[pos] / np.sqrt(probs[pos])[:, None]
                new = self._grams[m:m + 1 + len(pos)]
                np.multiply(wa[:, :, None], wa[:, None, :], out=new[1:])
                np.cumsum(new, axis=0, out=new)
            self._summed = (stop, m + len(pos))
        return self._grams

    def _gap(self, k: int, at: int) -> np.ndarray:
        """Gap k after the run's row at, formed alone: (1 + eps) seen - gram for k = 0,
        gram - (1 - eps) seen for k = 1; the source of a rebuild."""
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
    """Take one row (dense or sparse), checked before any state changes, as a one-row run; True if kept."""
    return bool(state.add_rows(index, rowops.densify(row, state.dim)[None])[0])


def run_barrier(stream: RowStream, eps: float, seed: int) -> tuple[Sketch, RunStats]:
    """Run the barrier sampler over a whole stream (feed)."""
    state = feed(BarrierState(stream.d, eps, seed), stream)
    return state.sketch, RunStats(probs=state.probs, max_working_rows=state.sketch.n_rows,
                                  pinv_recomputes=state.upper_pinv.recomputes + state.lower_pinv.recomputes)
