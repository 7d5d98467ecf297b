"""Fully-online samplers: leverage-driven and barrier-driven."""
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from specstream import (
    BarrierState,
    BarrierViolation,
    DimensionMismatch,
    OnlineState,
    RowStream,
    approx_factor,
    barrier_step,
    gen_gaussian,
    gen_kd_multigraph,
    gen_mu_controlled,
    online_step,
    permute,
    run_barrier,
    run_online,
    sampling_constant,
    scaled_sampling,
    verify,
)
from specstream import online
from specstream.bench import ALGO_NAMES, run_sampler
from specstream.errors import NonFiniteInput, NotPsd, RowNormOutOfRange
from specstream.linalg import SymPsd, on_image_rows, pinv as linalg_pinv, relative_of
from specstream.online import BARRIER_TOL, ONLINE_RUN, KeptPinv, sandwich_holds
from specstream.random_order import BlockSampler, ResparsifyApprox
from specstream.randomness import CHUNK, IndexedUniforms
from specstream.rows import SparseRows
from specstream.verify import AUDIT_SLACK

from conftest import identity_stream, last_column_scaled, make_stream
import oracles


def duplicate_and_zero_rows():
    """Gaussian rows with zero rows, back-to-back repeats and later repeats."""
    base = np.random.default_rng(81).standard_normal((60, 4))
    rows = [np.zeros(4)]
    for i, r in enumerate(base):
        rows.append(r)
        if i % 3 == 0:
            rows.append(r)
        if i % 5 == 0:
            rows.append(base[i // 2])
        if i % 7 == 0:
            rows.append(np.zeros(4))
    return make_stream(np.array(rows))


# (stream factory, eps, online-module settings); the kd gaps never leave a
# 7-dimensional image in d = 8. BarrierState.add_rows walks ONLINE_RUN = 128
# rows a run: the n-row Gaussians end a run one row short of, on and past a
# boundary, the K_5 stream completes its rank inside the first run, and
# drift-in-runs rebuilds each gap's pseudo-inverse on every third step,
# mid-run.
BARRIER_PARITY_CASES = {
    "gaussian": (lambda: gen_gaussian(500, 8, seed=71), 0.5, {}),
    "kd-permuted": (lambda: permute(gen_kd_multigraph(8, 64), seed=72), 0.5, {}),
    "duplicate-zero": (duplicate_and_zero_rows, 0.3, {}),
    "d2": (lambda: gen_gaussian(300, 2, seed=73), 0.7, {}),
    **{f"gaussian-{n}": (lambda n=n: gen_gaussian(n, 6, seed=n), 0.5, {})
       for n in (127, 128, 129, 257)},
    "kd5-rank-in-run": (lambda: permute(gen_kd_multigraph(5, 40), seed=79), 0.5, {}),
    "drift-in-runs": (lambda: gen_gaussian(400, 5, seed=80), 0.5, {"PINV_VERIFY_EVERY": 3}),
    # a denominator floor of 1 rebuilds the lower gap on every dropped row
    # (1 - (1 - eps) q < 1) while the upper gap steps, and the upper gap on
    # a kept row with k_u < 0; the rebuilds on every 37th step then fall at
    # offsets that differ between the gaps
    "one-gap-rebuilds": (lambda: gen_gaussian(300, 6, seed=71), 0.5,
                         {"UPDATE_DENOM_FLOOR": 1.0}),
    "uneven-drift-checks": (lambda: gen_gaussian(300, 6, seed=71), 0.5,
                            {"UPDATE_DENOM_FLOOR": 1.0, "PINV_VERIFY_EVERY": 37}),
}

# rebuilds of the upper and of the lower gap at seed 74
BARRIER_GAP_COUNTS = {
    "one-gap-rebuilds": (41, 98),
    "uneven-drift-checks": (43, 99),
}


# (stream factory, eps) of the sandwich cases: a Gaussian stream, then the
# parity cases that patch no module constants
SANDWICH_CASES = {
    "gaussian-200-seed31": (lambda: gen_gaussian(200, 6, seed=31), 0.5),
    **{case: (build, eps) for case, (build, eps, settings) in BARRIER_PARITY_CASES.items()
       if not settings},
}


def barrier_parity_case(case, monkeypatch):
    """(stream, eps) of a BARRIER_PARITY_CASES entry, its settings applied."""
    build, eps, settings = BARRIER_PARITY_CASES[case]
    for name, value in settings.items():
        monkeypatch.setattr(online, name, value)
    return build(), eps


def reference_gaps(state, n):
    """Both gaps after each of a barrier state's run's first n rows, (2, n,
    d, d), formed apart from the state: the run's entry Gram plus its kept
    rows' weighted outers, from its coordinates, probabilities and kept
    flags, summed by one cumsum in row order."""
    _, coords, seen, probs, kept = state._run
    pos = np.flatnonzero(kept[:n])
    wa = coords[pos] / np.sqrt(probs[pos])[:, None]
    grams = np.cumsum(np.concatenate((state._grams[:1], wa[:, :, None] * wa[:, None, :])), axis=0)
    grams = grams[np.cumsum(kept[:n])]
    return np.stack(((1.0 + state.eps) * seen[:n] - grams, grams - (1.0 - state.eps) * seen[:n]))


def sparse_rows_with_explicit_zeros():
    """Sparse rows over d = 6, some of whose stored values are exactly 0."""
    rng = np.random.default_rng(82)
    payload = []
    for _ in range(300):
        idx = np.sort(rng.choice(6, size=int(rng.integers(1, 5)), replace=False))
        val = rng.standard_normal(idx.size)
        val[rng.random(idx.size) < 0.3] = 0.0
        payload.append((idx, val))
    return RowStream(6, payload, {"kind": "test"}, sparse=True)


def spiked_rows():
    """Gaussian rows over d = 6 whose last row in each of two runs is 1e3
    times longer: on the image, it scores 1 and is kept with p = 1."""
    rows = np.random.default_rng(83).standard_normal((3 * ONLINE_RUN, 6))
    rows[[ONLINE_RUN - 1, 2 * ONLINE_RUN - 1]] *= 1e3
    return make_stream(rows)


# rows where a coordinate of d = 6 first appears, each in the middle of a run
GROWTH_ROWS = (ONLINE_RUN + ONLINE_RUN // 2, 2 * ONLINE_RUN + 9)


def image_grows_mid_run():
    """Gaussian rows over d = 6 whose last two coordinates stay zero until
    the rows GROWTH_ROWS, so the image grows after many kept rows."""
    rows = np.random.default_rng(84).standard_normal((3 * ONLINE_RUN, 6))
    for k, at in enumerate(GROWTH_ROWS):
        rows[:at, 4 + k] = 0.0
    return make_stream(rows)


# (stream factory, eps, c_mult[, online module constants to patch]); rates
# low enough that most rows flip a coin. The cases after d2 sit on the
# boundaries of the runs run_online cuts the stream into.
ONLINE_PARITY_CASES = {
    "gaussian": (lambda: gen_gaussian(500, 8, seed=91), 0.5, 0.5),
    "kd-permuted": (lambda: permute(gen_kd_multigraph(8, 64), seed=92), 0.5, 1.0),
    "duplicate-zero": (duplicate_and_zero_rows, 0.3, 0.2),
    "mu-controlled": (lambda: permute(gen_mu_controlled(6, 4, 10.0), seed=95), 0.5, 0.5),
    "sparse-explicit-zeros": (sparse_rows_with_explicit_zeros, 0.5, 0.5),
    "d2": (lambda: gen_gaussian(300, 2, seed=93), 0.5, 0.5),
    "n-not-a-run-multiple": (lambda: gen_gaussian(2 * ONLINE_RUN + 37, 6, seed=96), 0.5, 0.5),
    "shorter-than-a-run": (lambda: gen_gaussian(ONLINE_RUN // 2, 4, seed=97), 0.5, 0.3),
    "kept-last-row-of-run": (spiked_rows, 0.5, 0.5),
    "image-grows-mid-run": (image_grows_mid_run, 0.5, 0.5),
    # every second kept row's step is a rebuild
    "drift-replaced-mid-run": (lambda: gen_gaussian(3 * ONLINE_RUN, 5, seed=98), 0.5, 0.5,
                               {"PINV_VERIFY_EVERY": 2}),
    "d1": (lambda: gen_gaussian(300, 1, seed=99), 0.5, 0.5),
}


def online_parity_case(case, monkeypatch):
    """(stream, eps, c_mult, patched) of an ONLINE_PARITY_CASES entry, its
    constants patched."""
    build, eps, c_mult, *patches = ONLINE_PARITY_CASES[case]
    for name, value in (patches[0] if patches else {}).items():
        monkeypatch.setattr(online, name, value)
    return build(), eps, c_mult, bool(patches)


class TestOnlineSampler:
    def test_identity_rows_all_kept_unweighted(self):
        stream = identity_stream(5)
        sketch, diag = run_online(stream, 0.3, seed=1)
        assert sketch.n_rows == 5
        assert sketch.weights == [1.0] * 5
        assert np.allclose(sketch.gram_matrix(), np.eye(5), atol=1e-12)
        # every row arrives off the current image and scores exactly 1
        assert diag.score_total == pytest.approx(5.0, abs=1e-12)

    def test_zero_rows_never_sampled(self):
        rows = np.zeros((6, 3))
        rows[1] = [1.0, 0.0, 0.0]
        rows[4] = [0.0, 1.0, 0.0]
        sketch, diag = run_online(make_stream(rows), 0.4, seed=2)
        assert sketch.indices == [1, 4]
        assert np.count_nonzero(diag.scores) == 2

    def test_empty_stream_gives_empty_sketch(self):
        sketch, diag = run_online(make_stream(np.zeros((0, 4))), 0.3, seed=3)
        assert sketch.n_rows == 0
        assert diag.score_total == 0.0

    def test_repeated_row_grows_sublinearly(self):
        # score of the m-th copy decays like 1/m, so the kept count is
        # logarithmic; quadrupling n should not quadruple the sketch
        row = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        med = {}
        for n in (300, 1200):
            sizes = []
            for s in range(30):
                stream = make_stream(np.tile(row, (n, 1)))
                sketch, _ = run_online(stream, 0.5, seed=500 + s)
                sizes.append(sketch.n_rows)
            med[n] = float(np.median(sizes))
        assert med[1200] <= 1200 / 4
        assert med[1200] / med[300] <= 1.6

    def test_deterministic_given_seed(self):
        stream = gen_gaussian(400, 6, seed=11)
        a, _ = run_online(stream, 0.3, seed=7)
        b, _ = run_online(stream, 0.3, seed=7)
        c, _ = run_online(stream, 0.3, seed=8)
        assert a.indices == b.indices
        assert a.weights == b.weights
        assert a.indices != c.indices

    def test_scores_overestimate_final_leverage(self):
        # logged scores dominate the exact scores of the full matrix
        ok = 0
        for s in range(100):
            stream = gen_gaussian(500, 8, seed=900 + s)
            sketch, diag = run_online(stream, 0.3, seed=1900 + s)
            _, audit = verify(stream, sketch, scores=diag.scores)
            ok += bool(audit)
        assert ok >= 95

    def test_score_log_covers_every_row(self):
        stream = gen_gaussian(200, 5, seed=21)
        sketch, diag = run_online(stream, 0.4, seed=22)
        assert diag.scores.shape == (200,)
        assert diag.score_total == pytest.approx(float(np.sum(diag.scores)), rel=1e-12)
        assert diag.drift_events == 0 < diag.pinv_recomputes

    def test_eps_bounds_enforced(self):
        for eps in (0.0, 0.51, math.nan):
            with pytest.raises(ValueError, match="eps"):
                OnlineState(4, eps, seed=1)
            with pytest.raises(ValueError, match="eps"):
                sampling_constant(eps, 4, 1.0)
        with pytest.raises(DimensionMismatch):
            OnlineState(0, 0.3, seed=1)

    @pytest.mark.parametrize("c_mult", [0.0, -1.0, math.nan, math.inf])
    def test_sampling_rate_must_be_finite_and_positive(self, c_mult):
        with pytest.raises(ValueError):
            OnlineState(4, 0.3, seed=1, c_mult=c_mult)
        with pytest.raises(ValueError, match="c_mult"):
            sampling_constant(0.3, 4, c_mult)

    def test_sparse_and_dense_copies_sample_alike(self):
        # sparse rows are a storage format: the sampler scores them dense
        sparse = permute(gen_kd_multigraph(8, 64), seed=33)
        dense = make_stream(sparse.materialize())
        a, da = run_online(sparse, 0.5, seed=34)
        b, db = run_online(dense, 0.5, seed=34)
        assert 0 < a.n_rows < sparse.n
        assert a.indices == b.indices and a.weights == b.weights
        assert np.array_equal(da.scores, db.scores)
        assert np.array_equal(a.rows, b.rows)

    def test_indices_must_increase(self):
        state = OnlineState(3, 0.3, seed=1)
        online_step(state, np.array([1.0, 0.0, 0.0]), 0)
        with pytest.raises(DimensionMismatch):
            online_step(state, np.array([0.0, 1.0, 0.0]), 0)

    @pytest.mark.parametrize("case", sorted(ONLINE_PARITY_CASES))
    def test_matches_fresh_pinv_reference(self, case, monkeypatch):
        stream, eps, c_mult, patched = online_parity_case(case, monkeypatch)
        sketch, diag = run_online(stream, eps, seed=94, c_mult=c_mult)
        kept, weights, levels = oracles.online_reference(stream, eps, seed=94, c_mult=c_mult)
        flipped = set(sketch.indices) ^ set(kept)
        assert not flipped, f"{len(flipped)} flipped decisions, first at row {min(flipped)}"
        assert np.allclose(sketch.weights, weights, rtol=1e-9, atol=0.0)
        assert np.max(np.abs(diag.scores - levels)) <= 1e-9
        if patched:
            assert diag.pinv_recomputes >= stream.d + 10

    @pytest.mark.parametrize("case", ["kd-permuted", "kept-last-row-of-run", "image-grows-mid-run",
                                      "n-not-a-run-multiple", "drift-replaced-mid-run"])
    def test_feed_size_moves_no_bit(self, case, monkeypatch):
        # add_rows cuts any block into ONLINE_RUN-row runs from its first row,
        # so blocks of any multiple of ONLINE_RUN decide and score alike
        stream, eps, c_mult, _ = online_parity_case(case, monkeypatch)
        whole, diag = run_online(stream, eps, seed=94, c_mult=c_mult)
        for feed in (ONLINE_RUN, 3 * ONLINE_RUN, CHUNK, stream.n):
            state = OnlineState(stream.d, eps, seed=94, c_mult=c_mult)
            for lo in range(0, stream.n, feed):
                state.add_rows(lo, stream.block(lo, min(lo + feed, stream.n)))
            assert np.array_equal(np.concatenate(state.scores), diag.scores), feed
            assert (state.sketch.indices, state.sketch.weights) == (whole.indices, whole.weights)
            assert state.kept.recomputes == diag.pinv_recomputes

    def test_boundary_cases_reach_their_boundaries(self):
        kept = oracles.online_reference(spiked_rows(), 0.5, seed=94, c_mult=0.5)[0]
        assert {ONLINE_RUN - 1, 2 * ONLINE_RUN - 1} <= set(kept)
        stream = image_grows_mid_run()
        state = online.feed(OnlineState(6, 0.5, seed=94, c_mult=0.5), stream)
        # U grows by four directions at the start, then by one at each growth
        # row, and each growth rebuilds; one scheduled rebuild falls among
        # the 114 kept rows
        assert (state.image.rank, state.kept.recomputes, state.sketch.n_rows) == (6, 7, 114)
        kept = oracles.online_reference(stream, 0.5, seed=94, c_mult=0.5)[0]
        assert set(GROWTH_ROWS) <= set(kept) and len(kept) > 40

    def test_step_loop_matches_whole_stream_run(self):
        stream = permute(gen_kd_multigraph(8, 64), seed=35)
        state = OnlineState(8, 0.5, seed=36, c_mult=1.0)
        for i in range(stream.n):
            online_step(state, stream.row(i), i)
        whole, diag = run_online(stream, 0.5, seed=36, c_mult=1.0)
        assert state.sketch.indices == whole.indices
        assert np.allclose(state.sketch.weights, whole.weights, rtol=1e-9, atol=0.0)
        assert np.allclose(np.concatenate(state.scores), diag.scores, rtol=0.0, atol=1e-12)
        assert state.kept.recomputes == diag.pinv_recomputes

    def test_forms_corrected_below_zero_log_zero(self):
        # rows 1e9 times longer than the rest: a fresh form of a row at
        # rounding, or a walk's correction of a row that is not a candidate,
        # can round below 0; the block's one clamp logs such a form as 0, as
        # a clamp after every step would
        rows = np.random.default_rng(1).standard_normal((600, 3))
        rows[[130, 140, 150, 170, 200, 300, 310, 520]] *= 1e9
        _, diag = run_online(make_stream(rows), 0.5, seed=1, c_mult=0.5)
        assert 0.0 <= diag.scores.min() and diag.scores.max() <= 1.0

    @pytest.mark.parametrize("n, d, stream_seed", [(2000, 12, 5), (4000, 10, 1)])
    def test_logged_scores_match_a_sequential_r(self, n, d, stream_seed):
        # each logged score, on the rows on the kept rows' image, against the
        # weighted rows kept before it read from a sequential QR, with no
        # Gram: a large form lowered step by step cancels (1.06e-9 off at row
        # 53 of the first stream), where one scored fresh does not
        stream = gen_gaussian(n, d, stream_seed)
        sketch, diag = run_online(stream, 0.5, seed=1)
        levels = oracles.sequential_r_scores(stream.materialize(), sketch.indices, sketch.weights, 0.5)
        on = np.isfinite(levels)
        assert on.sum() >= n - 2 * d
        assert np.max(np.abs(diag.scores[on] - levels[on])) <= 1e-10

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("build", [lambda: permute(gen_kd_multigraph(8, 512), seed=7),
                                       lambda: gen_gaussian(2000, 12, 5)], ids=["kd8-512", "gaussian"])
    def test_no_coin_sits_at_its_probability(self, build, seed):
        # a walk that orders its corrections otherwise moves p in its last
        # bits; that moves no decision while every coin clears its p by far
        # more than p's rounding
        stream = build()
        _, diag = run_online(stream, 0.5, seed=seed)
        coins = IndexedUniforms(seed).take_range(0, stream.n)
        inside = (diag.probs > 0.0) & (diag.probs < 1.0)
        assert inside.sum() > stream.n // 4
        assert np.all(np.abs(coins - diag.probs)[inside] > 1e-9 * diag.probs[inside])

    # (stream at n rows, the sweep of n): ROADMAP item 12's 16x sweeps of
    # n at d = 8; a kd(8, copies) stream has 28 edges per copy and rank 7
    COUNT_SWEEPS = {
        "gaussian": (lambda n: gen_gaussian(n, 8, seed=n), (2000, 8000, 32000)),
        "kd-permuted": (lambda n: permute(gen_kd_multigraph(8, n // 28), seed=n), (3584, 14336, 57344)),
    }

    @pytest.mark.parametrize("family", sorted(COUNT_SWEEPS))
    def test_pinv_rebuilds_do_not_grow_with_n(self, family):
        # Cohen et al.'s ridge inverse never rebuilds; the pseudo-inverse
        # rebuilds once per direction of U, which finds the rank exactly, and
        # on every PINV_VERIFY_EVERY-th step: formations <= rank + ceil(kept /
        # PINV_VERIFY_EVERY), the same clause at every n
        build, sizes = self.COUNT_SWEEPS[family]
        for n in sizes:
            stream = build(n)
            state = online.feed(OnlineState(8, 0.5, seed=1), stream)
            rank = np.linalg.matrix_rank(stream.block(0, stream.n))
            assert state.image.rank == rank, n
            kept = state.sketch.n_rows
            assert rank < state.kept.recomputes <= rank + math.ceil(kept / online.PINV_VERIFY_EVERY), n

    # (run, pseudo-inverses it forms) of runs whose kept pseudo-inverses step
    # far past PINV_VERIFY_EVERY; on item 14's stream (last column x 1e-5)
    # and the late-direction stream (s = 1e-4) G is ill-conditioned (kappa
    # near 1e10 at 1e-5), and the counts are still the rank's rebuilds and
    # the schedule's alone
    FORMATION_COUNT_RUNS = {
        "online-gaussian": (lambda: run_online(gen_gaussian(4000, 8, seed=1), 0.5, seed=1), 23),
        "online-kd-permuted": (lambda: run_online(permute(gen_kd_multigraph(8, 256), seed=2), 0.5, seed=2),
                               24),
        "barrier-gaussian": (lambda: run_barrier(gen_gaussian(2000, 12, seed=3), 0.5, seed=3), 86),
        "online-small-column": (lambda: run_online(last_column_scaled(1e-5), 0.5, seed=1), 17),
        "barrier-small-column": (lambda: run_barrier(last_column_scaled(1e-5), 0.5, seed=1), 136),
        "online-late-direction": (lambda: run_online(last_column_scaled(1e-4, 3000), 0.5, seed=1), 17),
        "barrier-late-direction": (lambda: run_barrier(last_column_scaled(1e-4, 3000), 0.5, seed=1), 134),
    }

    @pytest.mark.parametrize("case", sorted(FORMATION_COUNT_RUNS))
    def test_formations_are_the_rank_and_the_schedule(self, case, monkeypatch):
        # every pseudo-inverse formed is a Cholesky rebuild the run counts: one
        # per direction of U for each kept pseudo-inverse, plus one on every
        # PINV_VERIFY_EVERY-th step; the online sampler steps on its kept
        # rows, the barrier's two gaps on every row
        formed, rebuild = [], KeptPinv.rebuild
        monkeypatch.setattr(KeptPinv, "rebuild", lambda kept: formed.append(1) or rebuild(kept))
        run, want = self.FORMATION_COUNT_RUNS[case]
        sketch, diag = run()
        assert sketch.n_rows > online.PINV_VERIFY_EVERY and diag.drift_events == 0
        assert len(formed) == diag.pinv_recomputes == want
        rank = np.linalg.matrix_rank(sketch.weighted_matrix())
        steps = sketch.n_rows if case.startswith("online") else 2 * len(diag.probs)
        kept_pinvs = 1 if case.startswith("online") else 2
        assert diag.pinv_recomputes <= kept_pinvs * rank + math.ceil(steps / online.PINV_VERIFY_EVERY)

    def test_walk_rescores_after_a_scheduled_rebuild(self):
        # Y is 1% off the sketch Gram's pseudo-inverse between two runs, and
        # the second run's first kept row's step is the scheduled rebuild,
        # which replaces Y: the rows after it must be scored again against
        # the new Y, as a twin rebuilt at that row scores them
        rows = np.random.default_rng(91).standard_normal((2 * ONLINE_RUN, 6))
        twins = [OnlineState(6, 0.5, seed=92) for _ in range(2)]
        for state in twins:
            state.add_rows(0, rows[:ONLINE_RUN])
            state.kept.matrix *= 1.01
        scheduled, rebuilt = twins
        scheduled.kept._steps = online.PINV_VERIFY_EVERY - 1
        kept = scheduled.add_rows(ONLINE_RUN, rows[ONLINE_RUN:])
        i = ONLINE_RUN + int(np.argmax(kept))
        rebuilt.kept._steps = 0
        assert rebuilt.add_rows(ONLINE_RUN, rows[ONLINE_RUN:i + 1]).tolist() == kept[:i + 1 - ONLINE_RUN].tolist()
        rebuilt.kept.rebuild()
        assert rebuilt.add_rows(i + 1, rows[i + 1:]).tolist() == kept[i + 1 - ONLINE_RUN:].tolist()
        assert np.allclose(scheduled.scores[-1][i + 1 - ONLINE_RUN:], rebuilt.scores[-1], rtol=0.0, atol=1e-9)
        # both rebuilt at row i, and then on the same schedule
        assert scheduled.kept.recomputes == rebuilt.kept.recomputes

    @pytest.mark.parametrize("s", [1e-4, 1e-5])
    def test_late_direction_meets_eps_and_the_audit(self, s):
        # a direction that appears only in the last quarter of the stream, at
        # scale s: a rank rule that misses mass building up along it over
        # many rows fails eps or the audit here (ROADMAP item 14)
        stream = last_column_scaled(s, 3000)
        for seed in range(1, 6):
            sketch, diag = run_online(stream, 0.5, seed=seed)
            eps_actual, audit = verify(stream, sketch, scores=diag.scores)
            assert eps_actual <= 0.5 and audit, (seed, eps_actual)

    @pytest.mark.parametrize("seed", [1.5, 1.99, np.float64(1.0)])
    @pytest.mark.parametrize("runner", [run_online, run_barrier, scaled_sampling],
                             ids=["online", "barrier", "scaled"])
    def test_non_integer_seed_refused(self, runner, seed):
        # int() truncated these: run_online kept the same rows at seeds 1, 1.5 and 1.99
        with pytest.raises(DimensionMismatch):
            runner(gen_gaussian(500, 6, 1), 0.5, seed)

    def test_sampling_constant_formula(self):
        assert sampling_constant(0.5, 10, 3.0) == pytest.approx(3.0 * 4.0 * math.log(10))
        # the law clamps ln d at d = 2, so a one-column stream still samples
        assert sampling_constant(0.4, 1, 0.7) == sampling_constant(0.4, 2, 0.7) > 0.0
        assert OnlineState(1, 0.4, seed=1, c_mult=0.7).c == sampling_constant(0.4, 2, 0.7)


# every seeded runner, from an integer seed of any type to its sketch
SEED_DOMAIN_RUNS = {
    "online": lambda seed: run_online(gen_gaussian(600, 5, 3), 0.5, seed)[0],
    "barrier": lambda seed: run_barrier(gen_gaussian(400, 5, 3), 0.5, seed)[0],
    "scaled": lambda seed: scaled_sampling(permute(gen_gaussian(2000, 5, 4), 1), 0.4, seed)[0],
    "resparsify-plug": lambda seed: scaled_sampling(permute(gen_gaussian(2000, 5, 4), 1), 0.4, seed,
                                                    ResparsifyApprox(4.0, 0.45, seed, dim=5))[0],
}


@pytest.mark.parametrize("runner", sorted(SEED_DOMAIN_RUNS))
def test_seed_is_any_integer_taken_mod_2_to_the_64(runner):
    # every Philox key is randomness.philox's [seed mod 2^64, counter]: a
    # numpy integer draws as the int it equals, and -3 as 2^64 - 3
    def kept(seed):
        sketch = SEED_DOMAIN_RUNS[runner](seed)
        return sketch.indices, sketch.weights
    assert kept(np.int64(2)) == kept(2)
    assert kept(-3) == kept(2 ** 64 - 3) != kept(2)


# runner, and the sampling probabilities its RunStats implies
SATURATING_RUNNERS = {
    "online": (lambda st: run_online(st, 0.5, seed=24, c_mult=0.5),
               lambda st, diag: np.minimum(sampling_constant(0.5, st.d, 0.5) * diag.scores, 1.0)),
    "barrier": (lambda st: run_barrier(st, 0.5, seed=24), lambda st, diag: diag.probs),
    "block": (lambda st: scaled_sampling(st, 0.5, seed=24),
              lambda st, diag: np.minimum(6.0 * 0.5 ** -2 * math.log(st.d) * diag.scores, 1.0)),
}


@pytest.mark.parametrize("runner", sorted(SATURATING_RUNNERS))
def test_saturated_counts_rows_capped_at_one(runner):
    run, probs = SATURATING_RUNNERS[runner]
    _, diag = run(identity_stream(5))
    assert diag.saturated == 5
    stream = gen_gaussian(400, 6, seed=23)
    _, diag = run(stream)
    assert diag.saturated == np.count_nonzero(probs(stream, diag) == 1.0) >= 6


@pytest.mark.parametrize("algo", ALGO_NAMES)
@pytest.mark.parametrize("stream", [
    lambda: gen_gaussian(1500, 6, seed=7),
    lambda: permute(gen_kd_multigraph(6, 40), seed=7),
    lambda: last_column_scaled(1e-5),
], ids=["gaussian", "kd", "small-column"])
def test_probability_log_weighs_every_kept_row(algo, stream):
    # each row logs the p its coin was flipped against, and a kept row's
    # weight is 1/sqrt(p) of that very float
    stream = stream()
    sketch, diag = run_sampler(algo, stream, 0.5, 11)
    assert diag.probs.shape == (stream.n,) and np.all((0.0 <= diag.probs) & (diag.probs <= 1.0))
    assert np.array_equal(sketch.weights, 1.0 / np.sqrt(diag.probs[sketch.indices]))
    assert diag.saturated == np.count_nonzero(diag.probs == 1.0)


def bad_row_entries():
    """(fresh state, its per-row entry) for the three samplers and the
    resparsify plug, d = 3."""
    return {
        "online_step": (OnlineState(3, 0.3, seed=1), online_step),
        "barrier_step": (BarrierState(3, 0.5, seed=1), barrier_step),
        "BlockSampler.step": (BlockSampler(3, 0.3, seed=1), lambda s, row, i: s.step(i, row)),
        "ResparsifyApprox.add": (ResparsifyApprox(4.0, 0.45, seed=1, dim=3),
                                 lambda s, row, i: s.add(i, row)),
    }


BAD_ROWS = {
    "width-4": (np.ones(4), DimensionMismatch),
    "sparse-column-5": ((np.array([0, 5]), np.array([1.0, 1.0])), DimensionMismatch),
    "sparse-unsorted": ((np.array([2, 0]), np.array([1.0, 1.0])), DimensionMismatch),
    "nan": (np.array([np.nan, 1.0, 1.0]), NonFiniteInput),
    # squared norms 2^-1080, which underflows to 0, and 2e400, past the float range
    "norm-underflows": (np.array([2.0 ** -540, 0.0, 0.0]), RowNormOutOfRange),
    "norm-overflows": (np.array([1e200, 1e200, 0.0]), RowNormOutOfRange),
}


def sampler_state(state):
    """What a row may change: the sketch (the plug's held rows), the score
    logs and the counters."""
    sk = state.query() if isinstance(state, ResparsifyApprox) else state.sketch
    logs = [len(getattr(state, name, ())) for name in ("scores", "probs")]
    counters = [getattr(state, name, None)
                for name in ("last_index", "count", "saturated", "peak_rows", "passes")]
    return (list(sk.indices), list(sk.weights), sk.gram_matrix().copy(), logs, counters)


def assert_unchanged(before, after):
    assert after[:2] == before[:2] and after[3:] == before[3:]
    assert np.array_equal(after[2], before[2])


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
@pytest.mark.parametrize("entry", ["online_step", "barrier_step", "BlockSampler.step",
                                   "ResparsifyApprox.add"])
def test_per_row_entry_rejects_a_malformed_row_untouched(entry, bad):
    state, step = bad_row_entries()[entry]
    step(state, np.array([1.0, 2.0, 0.0]), 0)
    before = sampler_state(state)
    row, error = BAD_ROWS[bad]
    with pytest.raises(error):
        step(state, row, 1)
    assert_unchanged(before, sampler_state(state))
    # the rejected row left no mark, so row 1 may still arrive
    step(state, np.array([0.0, 1.0, 1.0]), 1)
    with pytest.raises(DimensionMismatch):
        step(state, np.array([1.0, 0.0, 1.0]), 1)  # an index not above the last


# the run entries a sparse stream reaches, each over (stream, eps, seed)
PAYLOAD_RUNS = {
    "run_online": run_online,
    "run_barrier": run_barrier,
    "scaled_sampling": scaled_sampling,
    "scaled_sampling-scaled-plug": lambda st, eps, seed: scaled_sampling(
        st, eps, seed, BlockSampler(st.d, eps, seed=seed + 1)),
    "scaled_sampling-resparsify-plug": lambda st, eps, seed: scaled_sampling(
        st, eps, seed, ResparsifyApprox(4.0, 0.45, seed=seed + 1, dim=st.d)),
}


@pytest.mark.parametrize("run", sorted(PAYLOAD_RUNS))
def test_samplers_read_no_payload(run, monkeypatch):
    # a sparse stream reaches the samplers as dense runs: no row's (idx,
    # val) views are built, kept rows' included
    reads = []
    get = SparseRows.__getitem__

    def counting_get(self, key):
        got = get(self, key)
        if isinstance(got, tuple):  # a row, not a slice
            reads.append(key)
        return got

    monkeypatch.setattr(SparseRows, "__getitem__", counting_get)
    assert not hasattr(SparseRows, "__iter__")  # iteration reads rows through __getitem__
    stream = permute(gen_kd_multigraph(8, 64), seed=3)
    sketch, _ = PAYLOAD_RUNS[run](stream, 0.5, 7)
    assert 0 < sketch.n_rows < stream.n
    assert reads == []


def run_entries():
    """(fresh state, its add_rows entry) for the run-taking samplers, d = 3."""
    return {
        "OnlineState.add_rows": OnlineState(3, 0.3, seed=1),
        "BlockSampler.add_rows": BlockSampler(3, 0.3, seed=1),
        "BlockSampler.add_rows-plugged": BlockSampler(
            3, 0.3, seed=1, approx=ResparsifyApprox(4.0, 0.45, seed=2, dim=3)),
        "ResparsifyApprox.add_rows": ResparsifyApprox(4.0, 0.45, seed=1, dim=3),
        "BarrierState.add_rows": BarrierState(3, 0.5, seed=1),
    }


# (lo, block, error) after rows 0 and 1 were taken
BAD_RUNS = {
    "nan": (2, [[np.nan, 1.0, 1.0]], NonFiniteInput),
    "inf-second-row": (2, [[1.0, 1.0, 1.0], [0.0, np.inf, 1.0]], NonFiniteInput),
    # a squared norm of 3 * 2^-1030, subnormal
    "subnormal-norm-second-row": (2, [[1.0, 1.0, 1.0], [2.0 ** -515] * 3], RowNormOutOfRange),
    "width-4": (2, np.ones((1, 4)), DimensionMismatch),
    "flat-block": (2, np.ones(3), DimensionMismatch),
    "lo-not-above-last": (1, np.ones((1, 3)), DimensionMismatch),
    # int() would truncate these to 2
    "lo-non-integer": (2.9, np.ones((1, 3)), DimensionMismatch),
    "lo-numpy-float": (np.float64(2.0), np.ones((1, 3)), DimensionMismatch),
    "lo-non-integer-empty-run": (2.5, np.zeros((0, 3)), DimensionMismatch),
}


@pytest.mark.parametrize("bad", sorted(BAD_RUNS))
@pytest.mark.parametrize("entry", sorted(run_entries()))
def test_run_entry_rejects_a_malformed_run_untouched(entry, bad):
    state = run_entries()[entry]
    good = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    state.add_rows(0, good)
    before = sampler_state(state)
    plug_before = sampler_state(state.approx) if getattr(state, "approx", None) else None
    lo, block, error = BAD_RUNS[bad]
    with pytest.raises(error):
        state.add_rows(lo, block)
    assert_unchanged(before, sampler_state(state))
    if plug_before is not None:
        assert_unchanged(plug_before, sampler_state(state.approx))
    # the rejected run left no mark, so rows from 2 on may still arrive
    state.add_rows(2, good)


@pytest.mark.parametrize("entry", sorted(run_entries()))
def test_run_entry_takes_numpy_integer_indices(entry):
    state, twin = run_entries()[entry], run_entries()[entry]
    good = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    state.add_rows(np.int64(0), good)
    state.add_rows(np.uint32(2), good)
    twin.add_rows(0, good)
    twin.add_rows(2, good)
    assert_unchanged(sampler_state(twin), sampler_state(state))
    assert state.last_index == 3 and type(state.last_index) is int
    # uint8 arithmetic from lo wraps past 255; the run crosses the d = 3
    # block sampler's freezes at its rows 4 and 12
    run = np.random.default_rng(3).standard_normal((20, 3))
    state.add_rows(np.uint8(250), run)
    twin.add_rows(250, run)
    assert_unchanged(sampler_state(twin), sampler_state(state))
    assert state.last_index == 269 and type(state.last_index) is int


@pytest.mark.parametrize("entry", sorted(run_entries()))
def test_run_entry_takes_an_empty_run_untouched(entry):
    state = run_entries()[entry]
    before = sampler_state(state)
    plug_before = sampler_state(state.approx) if getattr(state, "approx", None) else None
    state.add_rows(1000, np.zeros((0, 3)))
    assert_unchanged(before, sampler_state(state))
    if plug_before is not None:
        assert_unchanged(plug_before, sampler_state(state.approx))
    # the empty run took no index, so row 0 may still arrive
    good = np.array([[1.0, 2.0, 0.0]])
    state.add_rows(0, good)


SCALE_RUNNERS = {"online": run_online, "barrier": run_barrier, "scaled": scaled_sampling}


@pytest.mark.parametrize("runner", ["online", "barrier"])
def test_power_of_two_scales_decide_alike(runner):
    # rows scaled by 2^k keep every ratio the samplers decide on, and so
    # every decision, while their Grams' squared entries over- or underflow
    # (2^+-300) and the pseudo-inverses' too (2^+-450). The kernel test reads
    # ratios, U is normalised, and a Cholesky rebuild scales by exact powers
    # of 2, so p, the weights and the counts keep every bit, with no warning
    rows = np.random.default_rng(3).standard_normal((3000, 5))

    def run(k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sketch, diag = SCALE_RUNNERS[runner](make_stream(rows * 2.0 ** k), 0.5, 1)
        return sketch.indices, sketch.weights, diag.counters(), diag.probs.tolist()
    at_one = run(0)
    for k in (300, -300, 450, -450):
        assert run(k) == at_one, k


@pytest.mark.parametrize("k", [-515, -520, -540])
@pytest.mark.parametrize("runner", sorted(SCALE_RUNNERS))
def test_row_norm_below_the_normal_range_refused(runner, k):
    # at 2^-515 and 2^-520 a row's squared norm is subnormal, at 2^-540 it
    # underflows to 0: its scores and its Gram lose their bits, so the run
    # is refused at the first such row; the zero row before it is legal
    rows = np.random.default_rng(3).standard_normal((3000, 5)) * 2.0 ** k
    rows[0] = 0.0
    with pytest.raises(RowNormOutOfRange, match=r"^row 1 has squared norm"):
        SCALE_RUNNERS[runner](make_stream(rows), 0.5, 1)


# ROADMAP item 14's family: last_column_scaled(s) at eps 0.5, seed 1
SMALL_COLUMN_SCALES = [10.0 ** -k for k in range(3, 11)]
SMALL_COLUMN_RUNNERS = {"online": run_online, "barrier": run_barrier}


@pytest.fixture(scope="module")
def small_column_run():
    """(sketch, stats) of one (sampler, s, from_row) run on item 14's family, each run once."""
    runs = {}

    def run(sampler, s, from_row=0):
        if (sampler, s, from_row) not in runs:
            stream = last_column_scaled(s, from_row)
            runs[sampler, s, from_row] = SMALL_COLUMN_RUNNERS[sampler](stream, 0.5, 1)
        return runs[sampler, s, from_row]
    return run


def rank_deficient_with_rounding():
    """default_rng(83) 3000 rows Z B of a rank-4 B (4 x 8, rows scaled by
    10^U(-3, 3)): forming Z B leaves a fifth direction at about 2e-16 of the
    largest singular value, and U takes it."""
    rng = np.random.default_rng(83)
    basis = rng.standard_normal((4, 8)) * 10 ** rng.uniform(-3, 3, size=(4, 1))
    return rng.standard_normal((3000, 4)) @ basis


def _small_column_cases(samplers=SMALL_COLUMN_RUNNERS):
    """Every (sampler, s) of the family."""
    return [pytest.param(sampler, s, id=f"{sampler}-s={s:.0e}")
            for sampler in samplers for s in SMALL_COLUMN_SCALES]


class TestSmallColumnFamily:
    @pytest.mark.parametrize("sampler, s", _small_column_cases())
    def test_meets_eps_and_the_audit(self, small_column_run, sampler, s):
        # at s <= 1e-6 the scaled direction's Gram eigenvalue, 4000 s^2, is
        # below the referee's rank cutoff d * 2^-40 of the largest: this
        # clause then reads a referee blind to that direction (ROADMAP item 16)
        sketch, diag = small_column_run(sampler, s)
        eps_actual, audit = verify(last_column_scaled(s), sketch, scores=diag.scores)
        assert eps_actual <= 0.5, eps_actual
        assert audit is (True if sampler == "online" else None)

    @pytest.mark.parametrize("sampler, s", _small_column_cases())
    def test_kept_indices_do_not_move_with_the_scale(self, small_column_run, sampler, s):
        # a column scale maps every row by one invertible diagonal, which
        # moves no relative leverage: U keeps the scaled direction however
        # small, so each sampler keeps the rows it keeps at s = 1, bit-equal
        # indices on the same coins
        assert small_column_run(sampler, s)[0].indices == small_column_run(sampler, 1.0)[0].indices

    @pytest.mark.parametrize("s", [10.0 ** -k for k in range(4, 13)])
    @pytest.mark.parametrize("from_row", [0, 3000], ids=["family", "late-direction"])
    @pytest.mark.parametrize("sampler", sorted(SMALL_COLUMN_RUNNERS))
    def test_rotated_family_keeps_the_unrotated_rows(self, small_column_run, sampler, from_row, s):
        # the family under one fixed rotation moves no relative leverage, so
        # each sampler keeps the unrotated s = 1 rows. The walks, the Grams
        # and the rebuilds work in U coordinates, where the rotated direction
        # has a coordinate of its own and its mass stays above the Grams'
        # rounding however small s is
        rotation = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 6)))[0]
        rotated = make_stream(last_column_scaled(s, from_row).materialize() @ rotation)
        sketch, _ = SMALL_COLUMN_RUNNERS[sampler](rotated, 0.5, 1)
        assert sketch.indices == small_column_run(sampler, 1.0, from_row)[0].indices

    @pytest.mark.parametrize("sampler, s", _small_column_cases())
    def test_rebuilds_stay_within_the_rank(self, small_column_run, sampler, s):
        # ROADMAP item 12's count clause: one pseudo-inverse per direction of
        # the kept rows for each one a sampler keeps (the barrier keeps two),
        # plus one on every PINV_VERIFY_EVERY-th step; the online sampler
        # steps on its kept rows, each barrier gap on every row
        sketch, diag = small_column_run(sampler, s)
        rank = np.linalg.matrix_rank(sketch.weighted_matrix())
        kept_pinvs, steps = (1, sketch.n_rows) if sampler == "online" else (2, 2 * len(diag.probs))
        assert rank == 6
        assert diag.pinv_recomputes <= kept_pinvs * rank + math.ceil(steps / online.PINV_VERIFY_EVERY)

    # The QR oracle reads the family apart from verify, whose Gram
    # eigendecomposition squares the condition number (ROADMAP item 16).
    @pytest.mark.parametrize("sampler, s", _small_column_cases())
    def test_qr_oracle_reads_eps(self, small_column_run, sampler, s):
        sketch, _ = small_column_run(sampler, s)
        eps_qr = oracles.qr_eps(last_column_scaled(s).materialize(), sketch.weighted_matrix())
        assert eps_qr <= 0.5, eps_qr

    @pytest.mark.parametrize("sampler, s", _small_column_cases(["online"]))
    def test_scores_dominate_the_qr_leverage(self, small_column_run, sampler, s):
        _, diag = small_column_run(sampler, s)
        lev = oracles.qr_leverage(last_column_scaled(s).materialize())
        short = lev - (diag.scores + AUDIT_SLACK)
        assert np.all(short <= 0.0), (np.count_nonzero(short > 0.0), short.max())

    @pytest.mark.parametrize("s", [1e-6, 1e-9])
    @pytest.mark.parametrize("sampler", sorted(SMALL_COLUMN_RUNNERS))
    def test_late_direction_meets_eps_on_the_qr_oracle(self, sampler, s):
        # the direction appears at row 3000, at scale s: U takes it from its
        # first row, so the sketch covers it (ROADMAP item 14 read 0.524 and
        # 0.509 at s = 1e-9, and 365 online scores short of the QR leverage)
        stream = last_column_scaled(s, 3000)
        sketch, diag = SMALL_COLUMN_RUNNERS[sampler](stream, 0.5, 1)
        rows = stream.materialize()
        assert oracles.qr_eps(rows, sketch.weighted_matrix()) <= 0.5
        if sampler == "online":
            assert np.all(oracles.qr_leverage(rows) <= diag.scores + AUDIT_SLACK)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("sampler", sorted(SMALL_COLUMN_RUNNERS))
    def test_rank_deficient_stream_meets_eps_on_its_row_space(self, sampler, seed):
        # U takes the rounding-level fifth direction; summed from rows
        # projected on U, the Gram keeps it apart from the four real ones,
        # so the sketch meets eps on the row space, by verify and by the QR
        # oracle there, and the barrier's gaps factor
        rows = rank_deficient_with_rounding()
        stream = make_stream(rows)
        sketch, diag = SMALL_COLUMN_RUNNERS[sampler](stream, 0.5, seed)
        eps_actual, audit = verify(stream, sketch, scores=diag.scores if sampler == "online" else None)
        assert eps_actual <= 0.5 and audit is (True if sampler == "online" else None), eps_actual
        row_space = np.linalg.svd(rows, full_matrices=False)[2][:4].T
        assert oracles.qr_eps(rows @ row_space, sketch.weighted_matrix() @ row_space) <= 0.5


def kept_step(kept, a, k):
    """Follow X += k aa' (a on the image) as the samplers do: take a's U
    coordinates b, pa = Y b and q = b' pa, ask for coef and step in place.
    (pa, coef) when the step stands, None after a rebuild in its place."""
    y, b = kept.matrix, a @ kept.image.coords
    pa = y @ b
    coef = kept.step_coef(k, float(b @ pa), True)
    if coef is None:
        return None
    y -= (pa[:, None] * pa) * coef
    return pa, coef


def kept_relative(kept, a, q):
    """(dense a on the image of kept's matrix, its relative score from the
    form q = a' X+ a), from the package's image test and score formula."""
    on = kept.image.on_image(a[None])
    return bool(on[0]), float(relative_of(on, np.array([max(q, 0.0)]))[0])


def on_u(image, x):
    """A KeptPinv source: the matrix x, read when called, in image's U coordinates."""
    return lambda: image.coords.T @ x @ image.coords


def grown(dim, rows):
    """An ImageBasis grown by each of the rows off it, as the samplers grow theirs."""
    image = online.ImageBasis(dim)
    for a in rows:
        if not image.on_image(a[None])[0]:
            image.grow(a)
    return image


@pytest.mark.parametrize("stream", [lambda: gen_gaussian(700, 6, seed=85),
                                    lambda: permute(gen_kd_multigraph(6, 40), seed=85)],
                         ids=["gaussian", "kd"])
@pytest.mark.parametrize("sampler", ["online", "barrier"])
def test_grams_in_u_coordinates_are_the_stream_grams_on_u(sampler, stream):
    # the walks keep their Grams in U coordinates, summed from projected
    # rows and extended by 0 when U grows (the online one when a rebuild
    # reads it, as _gram does here): on U they are the sketch Gram
    # (and the barrier's seen, the stream Gram) in stream coordinates, and 0
    # past U's rank
    stream = stream()
    state_type = OnlineState if sampler == "online" else BarrierState
    state = online.feed(state_type(stream.d, 0.5, seed=86), stream)
    r = state.image.rank
    u = state.image.coords[:, :r]
    pairs = [(state._gram() if sampler == "online" else state.gram, state.sketch.gram_matrix())]
    if sampler == "barrier":
        pairs.append((state.seen, stream.gram_matrix()))
    for in_u, full in pairs:
        assert np.allclose(in_u[:r, :r], u.T @ full @ u, rtol=0.0, atol=1e-12 * np.trace(full))
        assert not in_u[r:].any() and not in_u[:, r:].any()
    assert r == np.linalg.matrix_rank(stream.block(0, stream.n))


class TestKeptPinv:
    def test_image_growth_and_rank_drop_rebuild(self):
        x = np.zeros((3, 3))
        image = online.ImageBasis(3)
        kept = KeptPinv(3, on_u(image, x), image)
        a = np.array([1.0, 2.0, 0.0])
        assert kept_relative(kept, a, 0.0) == (False, 1.0)
        x += 2.0 * np.outer(a, a)
        image.grow(a)
        assert kept.step_coef(2.0, 0.0, False) is None
        assert kept.recomputes == 1 and image.rank == 1
        b = a @ image.coords
        q = float(b @ kept.matrix @ b)
        on_image, rel = kept_relative(kept, a, q)
        want = a @ np.linalg.pinv(x) @ a
        assert on_image and rel == pytest.approx(want / (want + 1.0), rel=1e-12)
        # subtracting the same term empties X, which then lost rank on U: the
        # denominator 1 - 2q is 0, and the rebuild in place of the step raises
        x -= 2.0 * np.outer(a, a)
        with pytest.raises(NotPsd):
            kept_step(kept, a, -2.0)
        assert kept.recomputes == 1 and image.rank == 1

    def test_scheduled_rebuild_replaces_a_drifted_pinv(self, monkeypatch):
        monkeypatch.setattr(online, "PINV_VERIFY_EVERY", 2)
        x = np.diag([1.0, 2.0, 4.0])
        kept = KeptPinv(3, lambda: x, grown(3, np.eye(3)))
        kept.rebuild()
        a = np.ones(3)
        x += np.outer(a, a)
        before = kept.matrix.copy()
        pa, coef = kept_step(kept, a, 1.0)
        # the first step taken is the Sherman-Morrison one
        assert coef == 1.0 / (1.0 + float(a @ pa))
        assert np.array_equal(kept.matrix, before - (pa[:, None] * pa) * coef)
        assert np.allclose(kept.matrix, np.linalg.inv(x), rtol=1e-12)
        kept.matrix[0, 0] *= 1.0 + 1e-3
        x += np.outer(a, a)
        # the second is a rebuild in its place, which wipes the drift; the
        # rebuild reports no step: scores taken before it are stale
        assert kept_step(kept, a, 1.0) is None
        assert kept.recomputes == 2
        assert np.allclose(kept.matrix, np.linalg.inv(x), rtol=1e-12)

    def test_rebuild_keeps_every_direction_of_u(self):
        # X's least eigenvalue is 1e-20 of its largest, far under the rank
        # cutoff d * 2^-40 of an eigendecomposition's pseudo-inverse: a
        # rebuild on U inverts it all the same, and on a U of rank 2 it
        # inverts X on U's span alone
        x = np.diag([1.0, 2.0, 1e-20])
        for rows, want in ((np.eye(3), [1.0, 0.5, 1e20]), (np.eye(3)[:2], [1.0, 0.5, 0.0])):
            kept = KeptPinv(3, lambda: x, grown(3, rows))
            kept.rebuild()
            assert np.allclose(kept.matrix, np.diag(want), rtol=1e-12, atol=0.0)

    def test_kernel_test_tells_rounding_from_a_direction(self):
        # rows of a rank-4 subspace of d = 16, each a rounded combination of
        # its basis, lie within rounding of U, which finds the rank exactly;
        # 1e-12 of a row's norm off the subspace is a direction, and U keeps it
        rng = np.random.default_rng(5)
        basis = rng.standard_normal((4, 16))
        rows = rng.standard_normal((200, 4)) @ basis
        image = grown(16, rows)
        assert image.rank == 4 and image.on_image(rows).all()
        u = image.coords[:, :image.rank]
        assert np.allclose(u.T @ u, np.eye(4), rtol=0.0, atol=1e-15) and not image.coords[:, 4:].any()
        z = rng.standard_normal(16)
        z -= basis.T @ np.linalg.lstsq(basis.T, z, rcond=None)[0]
        z /= np.linalg.norm(z)
        norms = np.linalg.norm(rows[:20], axis=1)[:, None]
        assert image.on_image(rows[:20] + 1e-16 * norms * z).all()
        assert not image.on_image(rows[:20] + 1e-12 * norms * z).any()
        image.grow(rows[0] + 1e-12 * norms[0] * z)
        u = image.coords[:, :image.rank]
        assert np.allclose(u.T @ u, np.eye(5), rtol=0.0, atol=1e-14)

    def test_score_is_the_shared_relative_leverage(self):
        # dense and densified sparse rows against a full-rank and a rank-7
        # (d = 8) matrix, on and off the image: the kept pseudo-inverse's
        # kernel test and score agree with the block samplers' (linalg's
        # relative_leverage on pinv(SymPsd(G))) on these well-conditioned Grams
        from specstream import relative_leverage
        from specstream.linalg import quad_forms

        gauss = gen_gaussian(40, 8, seed=31)
        kd = permute(gen_kd_multigraph(8, 64), seed=32)
        for stream in (gauss, kd):
            image = grown(8, stream.block(0, stream.n))
            kept = KeptPinv(8, on_u(image, stream.gram_matrix()), image)
            kept.rebuild()
            assert kept.image.rank == (8 if stream is gauss else 7)
            ref = linalg_pinv(SymPsd(stream.gram_matrix()))
            rows = np.array([oracles.dense_row(stream.row(i), 8) for i in range(0, stream.n, 7)]
                            + [np.eye(8)[0]])
            for r in rows:
                on_image, rel = kept_relative(kept, r, float(quad_forms(kept, (r @ image.coords)[None])[0]))
                assert on_image == bool(on_image_rows(ref, r[None])[0])
                assert rel == pytest.approx(relative_leverage(ref, r), rel=1e-9, abs=0.0)
            on_image, rel = kept_relative(kept, rows[-1], 0.0)  # e_0, off the Laplacian's image
            assert on_image == (stream is gauss) and (on_image or rel == 1.0)


class TestBarrierSampler:
    def test_first_row_always_sampled(self):
        for s in range(5):
            stream = make_stream(np.array([[0.0, 2.5, 0.0]]))
            sketch, diag = run_barrier(stream, 0.5, seed=s)
            assert sketch.n_rows == 1
            assert diag.probs[0] == 1.0

    def test_identity_rows_kept_with_exact_barriers(self):
        eps = 0.5
        state = BarrierState(4, eps, seed=3)
        for i in range(4):
            assert barrier_step(state, np.eye(4)[i], i)
        assert state.sketch.weights == [1.0] * 4
        upper, lower = (1 + eps) * state.seen, (1 - eps) * state.seen
        assert np.allclose(upper, (1 + eps) * np.eye(4), atol=1e-14)
        assert np.allclose(lower, (1 - eps) * np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("case", list(SANDWICH_CASES))
    def test_audited_run_keeps_sandwich(self, case):
        # every step must hold lower <= gram <= upper to 1e-7, checked from
        # the stream and the finished sketch alone
        build, eps = SANDWICH_CASES[case]
        stream = build()
        sketch, _ = run_barrier(stream, eps, seed=32)
        gaps = oracles.barrier_gaps(stream, sketch, eps)
        assert gaps.shape == (stream.n, 2)
        assert gaps.min() >= -1e-7 * (1 + eps) * float(np.trace(stream.gram_matrix()))

    def test_spectral_guarantee_smoke(self):
        fails = 0
        for s in range(20):
            stream = gen_gaussian(400, 6, seed=41 + s)
            sketch, _ = run_barrier(stream, 0.5, seed=141 + s)
            eps_actual, _ = verify(stream, sketch)
            fails += eps_actual > 0.5
        assert fails == 0

    def test_probs_logged_for_every_row(self):
        stream = gen_gaussian(150, 5, seed=51)
        _, diag = run_barrier(stream, 0.4, seed=52)
        assert diag.probs.shape == (150,)
        assert np.all(diag.probs > 0.0) and np.all(diag.probs <= 1.0)
        assert diag.score_total == pytest.approx(float(np.sum(diag.probs)), rel=1e-12)
        # each gap rebuilds its pseudo-inverse once per new direction (d of
        # them on a Gaussian stream, its first d rows) and on every
        # PINV_VERIFY_EVERY-th step after them
        assert diag.pinv_recomputes == 2 * (stream.d + (stream.n - stream.d) // online.PINV_VERIFY_EVERY)

    @pytest.mark.parametrize("case", sorted(BARRIER_PARITY_CASES))
    def test_matches_fresh_pinv_reference(self, case, monkeypatch):
        stream, eps = barrier_parity_case(case, monkeypatch)
        sketch, diag = run_barrier(stream, eps, seed=74)
        kept, weights, probs = oracles.barrier_reference(stream, eps, seed=74)
        flipped = set(sketch.indices) ^ set(kept)
        assert not flipped, f"{len(flipped)} flipped decisions"
        assert np.allclose(sketch.weights, weights, rtol=1e-9, atol=0.0)
        assert np.max(np.abs(diag.probs - probs)) <= 1e-9

    @pytest.mark.parametrize("case", sorted(BARRIER_PARITY_CASES))
    def test_feed_size_moves_no_bit(self, case, monkeypatch):
        # add_rows cuts any block into ONLINE_RUN-row runs from its first row,
        # so blocks of any multiple of ONLINE_RUN decide alike, gap by gap
        stream, eps = barrier_parity_case(case, monkeypatch)
        whole, diag = run_barrier(stream, eps, seed=74)
        counts = []
        for feed in (ONLINE_RUN, 3 * ONLINE_RUN, CHUNK, stream.n):
            state = BarrierState(stream.d, eps, seed=74)
            for lo in range(0, stream.n, feed):
                state.add_rows(lo, stream.block(lo, min(lo + feed, stream.n)))
            assert (state.sketch.indices, state.sketch.weights) == (whole.indices, whole.weights), feed
            assert np.array_equal(np.concatenate(state.probs), diag.probs), feed
            counts.append([k.recomputes for k in (state.upper_pinv, state.lower_pinv)])
        assert all(c == counts[0] for c in counts)
        assert sum(counts[0]) == diag.pinv_recomputes

    def test_a_large_block_is_walked_in_bounded_memory(self):
        # one add_rows of 4096 rows at d = 32 holds the (b, d, d) stacks of one
        # ONLINE_RUN-row run at a time; as a single run they took 288 MiB
        block = gen_gaussian(4096, 32, seed=5).block(0, 4096)
        state = BarrierState(32, 0.5, seed=1)
        tracemalloc.start()
        try:
            state.add_rows(0, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20
        assert state.sketch.n_rows > 0 and np.concatenate(state.probs).shape == (4096,)

    @pytest.mark.parametrize("case", sorted(BARRIER_GAP_COUNTS))
    def test_one_gap_steps_while_the_other_rebuilds(self, case, monkeypatch):
        stream, eps = barrier_parity_case(case, monkeypatch)
        state = BarrierState(stream.d, eps, seed=74)
        for lo in range(0, stream.n, ONLINE_RUN):
            state.add_rows(lo, stream.block(lo, min(lo + ONLINE_RUN, stream.n)))
        kept = (state.upper_pinv, state.lower_pinv)
        assert tuple(k.recomputes for k in kept) == BARRIER_GAP_COUNTS[case]
        sketch, _ = run_barrier(stream, eps, seed=74)
        assert state.sketch.indices == sketch.indices

    @pytest.mark.parametrize("case", sorted(BARRIER_PARITY_CASES))
    def test_runs_match_one_row_steps(self, case, monkeypatch):
        stream, eps = barrier_parity_case(case, monkeypatch)
        sketch, diag = run_barrier(stream, eps, seed=75)
        state = BarrierState(stream.d, eps, seed=75)
        for i in range(stream.n):
            barrier_step(state, stream.row(i), i)
        assert sketch.indices == state.sketch.indices
        assert np.allclose(sketch.weights, state.sketch.weights, rtol=0.0, atol=1e-12)
        assert np.allclose(diag.probs, np.concatenate(state.probs), rtol=0.0, atol=1e-12)
        kept = (state.upper_pinv, state.lower_pinv)
        assert diag.pinv_recomputes == sum(k.recomputes for k in kept)

    @pytest.mark.parametrize("barrier", ["upper", "lower"])
    def test_broken_sandwich_raises(self, barrier):
        stream = gen_gaussian(40, 4, seed=75)
        state = BarrierState(4, 0.5, seed=76)
        for i in range(39):
            barrier_step(state, stream.row(i), i)
        # the gaps are (1 + eps) seen - gram and gram - (1 - eps) seen, so
        # each shift of seen lowers one gap by the upper barrier's trace
        big = float(np.trace((1 + 0.5) * state.seen)) * np.eye(4)
        if barrier == "upper":
            state.seen -= big / (1 + 0.5)
        else:
            state.seen += big / (1 - 0.5)
        with pytest.raises(BarrierViolation):
            barrier_step(state, stream.row(39), 39)

    @pytest.mark.parametrize("lo", [160, 172])
    def test_sandwich_broken_inside_a_run_names_the_row_steps_name(self, lo):
        # seen is raised so the lower gap, gram - (1 - eps) seen, drops by its
        # smallest eigenvalue after row lo - 1: kept rows lift the gap, and
        # the first dropped row that pulls it below the slack fails, later in
        # the run. From lo = 172 a scheduled rebuild of the lower gap's
        # pseudo-inverse fails to factor an indefinite gap further on, and the
        # run still names the first failing row.
        stream = gen_gaussian(300, 4, seed=75)
        unbroken, _ = run_barrier(stream, 0.5, seed=76)
        block = stream.block(0, stream.n)
        twins = [BarrierState(4, 0.5, seed=76) for _ in range(2)]
        for state in twins:
            state.add_rows(0, block[:lo])
            least = np.linalg.eigvalsh(state.gram - (1 - 0.5) * state.seen)[0]
            state.seen += least / (1 - 0.5) * np.eye(4)
        with pytest.raises(BarrierViolation) as as_run:
            twins[0].add_rows(lo, block[lo:lo + ONLINE_RUN])
        with pytest.raises(BarrierViolation) as by_rows:
            for i in range(lo, lo + ONLINE_RUN):
                barrier_step(twins[1], stream.row(i), i)
        assert str(as_run.value) == str(by_rows.value)
        failed = int(re.search(r"row (\d+):", str(as_run.value)).group(1))
        assert lo < failed < lo + ONLINE_RUN and failed not in unbroken.indices
        rebuilt = as_run.value.__context__
        assert (rebuilt is not None) == (lo == 172)
        if rebuilt is not None:
            assert isinstance(rebuilt, BarrierViolation) and "indefinite" in str(rebuilt)

    @pytest.mark.parametrize("lo", [175, 251])
    def test_rebuild_from_an_indefinite_gap_raises(self, lo, monkeypatch):
        # seen is raised so the lower gap's smallest eigenvalue is -1e-9
        # trace(upper) after row lo - 1: the sandwich holds within
        # BARRIER_TOL, but the gap lost rank on seen's image (and is
        # indefinite beyond the SymPsd floor), so a rebuild in place of
        # every step fails to factor it at row lo and raises
        stream = gen_gaussian(600, 4, seed=75)
        block = stream.block(0, stream.n)
        state = BarrierState(4, 0.5, seed=76)
        state.add_rows(0, block[:lo])
        gram, eye = state.gram, np.eye(4)
        least = np.linalg.eigvalsh(gram - (1 - 0.5) * state.seen)[0]
        state.seen += (least + 1e-9 * float(np.trace((1 + 0.5) * state.seen))) / (1 - 0.5) * eye
        lower_gap = gram - (1 - 0.5) * state.seen
        assert sandwich_holds(lower_gap, BARRIER_TOL * float(np.trace((1 + 0.5) * state.seen)))
        with pytest.raises(NotPsd):
            SymPsd(lower_gap)
        monkeypatch.setattr(online, "PINV_VERIFY_EVERY", 1)
        with pytest.raises(BarrierViolation) as raised:
            state.add_rows(lo, block[lo:lo + ONLINE_RUN])
        assert str(raised.value) == f"gap matrix indefinite at row {lo}"
        assert isinstance(raised.value.__cause__, NotPsd)

    def test_growth_mid_run_retakes_the_verdicts(self):
        # rows in the first three of d = 4 coordinates up to row lo, inside
        # a run: row lo is off seen's image, kept at p = 1, and grows U, so
        # the rows after it are on the new image; a run must take their
        # verdicts again to score them as one row at a time does
        rows = np.random.default_rng(87).standard_normal((300, 4))
        lo = 170
        rows[:lo, 3] = 0.0
        as_run, by_rows = BarrierState(4, 0.5, seed=88), BarrierState(4, 0.5, seed=88)
        as_run.add_rows(0, rows)
        for i, a in enumerate(rows):
            barrier_step(by_rows, a, i)
        assert lo in as_run.sketch.indices and as_run.image.rank == 4
        assert as_run.sketch.indices == by_rows.sketch.indices
        assert np.allclose(np.concatenate(as_run.probs), np.concatenate(by_rows.probs), rtol=0.0, atol=1e-12)
        counts = [[k.recomputes for k in (s.upper_pinv, s.lower_pinv)] for s in (as_run, by_rows)]
        assert counts[0] == counts[1]

    def test_cholesky_check_agrees_with_audited_gaps(self):
        stream = gen_gaussian(200, 6, seed=77)
        state = BarrierState(6, 0.5, seed=78)
        eye = np.eye(6)
        for i in range(stream.n):
            barrier_step(state, stream.row(i), i)
            gram = state.gram
            upper, lower = (1 + 0.5) * state.seen, (1 - 0.5) * state.seen
            slack = BARRIER_TOL * float(np.trace(upper))
            gaps = np.stack((upper - gram, gram - lower))
            for gap, audited in zip(gaps, np.linalg.eigvalsh(gaps)[:, 0]):
                assert audited >= -slack and sandwich_holds(gap, slack)
                # the check flips where the smallest eigenvalue crosses -slack
                assert not sandwich_holds(gap - (audited + 2.0 * slack) * eye, slack)
                assert sandwich_holds(gap - (audited + 0.5 * slack) * eye, slack)

    def test_eps_range_wider_than_online(self):
        BarrierState(3, 0.9, seed=1)
        with pytest.raises(ValueError):
            BarrierState(3, 1.0, seed=1)
        with pytest.raises(ValueError):
            BarrierState(3, 0.0, seed=1)
        with pytest.raises(DimensionMismatch):
            BarrierState(0, 0.5, seed=1)

    def test_deterministic_given_seed(self):
        stream = gen_gaussian(300, 5, seed=61)
        a, _ = run_barrier(stream, 0.5, seed=9)
        b, _ = run_barrier(stream, 0.5, seed=9)
        assert a.indices == b.indices and a.weights == b.weights


class TestFormedOnce:
    """The walks form each kernel verdict, coin threshold and gap once where
    they served again and again: each shortcut decides as what it replaced."""

    @pytest.mark.parametrize("eps, c_mult, d", [(0.5, 3.0, 8), (0.3, 0.2, 6), (0.5, 0.2, 2),
                                                (0.5, 0.05, 2), (0.1, 1e-3, 3)])
    def test_coin_thresholds_pass_every_row_its_coin_keeps(self, eps, c_mult, d):
        # the walk decides only the rows off the image or with q > t: every
        # row whose coin beats its p must be one of them. Coins at 0, at and
        # past c (1 + eps) and within 1e-3 of it; forms at or below 0 and
        # within 4 ulps and within 1e-12 to 1e-2 relative of each coin's
        # boundary coin / (c (1 + eps) - coin), taken in rationals, as
        # rounding c (1 + eps) - coin moves it
        state = OnlineState(d, eps, seed=1, c_mult=c_mult)
        cl, rng = state.c * (1.0 + eps), np.random.default_rng(101)
        near = cl * (1.0 + np.concatenate((-np.logspace(-16, -3, 80), [0.0], np.logspace(-16, -3, 80))))
        coins = np.concatenate(([0.0], rng.random(4000), near[near < 1.0]))
        t = state._thresholds(coins)
        assert t[0] == 0.0 and np.all(np.isinf(t[coins >= cl])) and not np.isinf(t[coins < cl]).any()
        n = len(coins)
        q = 10.0 ** rng.uniform(-12.0, 12.0, n) * rng.choice([-1.0, 0.0, 1.0, 1.0], n)
        inside = coins < cl
        exact_cl = Fraction(state.c) * Fraction(1.0 + eps)
        bound = np.array([float(Fraction(c) / (exact_cl - Fraction(c))) for c in coins[inside].tolist()])
        forms, up, down = [bound], bound, bound
        for _ in range(4):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            forms += [up, down]
        forms += [bound * (1.0 + g) for g in np.logspace(-12, -2, 21) for g in (g, -g)]
        k = len(forms)
        cases = {"random": (coins, q, rng.random(n) < 0.9, t),
                 "boundary": (np.tile(coins[inside], k), np.concatenate(forms), np.ones(k * len(bound), bool),
                              np.tile(t[inside], k))}
        for name, (coin, q, on, t) in cases.items():
            keeps = coin < state._levels(on, np.maximum(q, 0.0))[1]
            assert not np.any(keeps & ~(~on | (q > t))), name
            assert keeps.any() and not keeps.all(), name

    @pytest.mark.parametrize("build", [lambda: permute(gen_kd_multigraph(8, 128), seed=5),
                                       *(lambda s=s: last_column_scaled(s) for s in (1e-6, 1e-7, 1e-8))],
                             ids=["kd8-128", "s=1e-06", "s=1e-07", "s=1e-08"])
    def test_block_verdicts_equal_per_run_verdicts(self, build, monkeypatch):
        # the online walk takes U's kernel verdicts once for the rest of the
        # block: taken per ONLINE_RUN-row run, every row's verdict is the same
        calls, image_test = [], online.ImageBasis.on_image

        def per_run_too(image, block):
            whole = image_test(image, block)
            runs = [image_test(image, block[k:k + ONLINE_RUN]) for k in range(0, len(block), ONLINE_RUN)]
            calls.append((len(block), np.array_equal(whole, np.concatenate([whole[:0], *runs]))))
            return whole
        monkeypatch.setattr(online.ImageBasis, "on_image", per_run_too)
        run_online(build(), 0.5, 1)
        assert all(same for _, same in calls)
        assert max(rows for rows, _ in calls) > ONLINE_RUN

    @pytest.mark.parametrize("case", ["gaussian", "kd-permuted", "one-gap-rebuilds"])
    def test_one_gap_source_is_the_stacks_slice(self, case, monkeypatch):
        # one former makes every gap: a rebuild's source at the row walked,
        # the check's stretch ends and a violation's pair. Each is the same
        # bits as its slice of the stack the test forms apart (reference_gaps)
        stream, eps = barrier_parity_case(case, monkeypatch)
        monkeypatch.setattr(online, "PINV_VERIFY_EVERY", 3)
        read, gap, check = [], BarrierState._gap, BarrierState._checked_gaps

        def recorded(self, k, at):
            g = gap(self, k, at)
            read.append((k, at, g.copy()))
            return g

        def compared(self, n):
            sources.append(len(read))
            check(self, n)
            reference = reference_gaps(self, n)
            assert all(np.array_equal(g, reference[k, at]) for k, at, g in read)
            assert all(np.array_equal(gap(self, k, j), reference[k, j]) for k in (0, 1) for j in range(n))
            read.clear()
        sources = []
        monkeypatch.setattr(BarrierState, "_gap", recorded)
        monkeypatch.setattr(BarrierState, "_checked_gaps", compared)
        run_barrier(stream, eps, seed=74)
        assert len(sources) == -(-stream.n // ONLINE_RUN) and sum(sources) > 0

    @pytest.mark.parametrize("broken", ["lower-160", "lower-172", "upper-160",
                                        "lower-170-carried", "upper-160-creeping", "lower-160-zeros"])
    def test_shifted_stack_fails_where_sandwich_holds_fails(self, broken, monkeypatch):
        # the check shifts the gap stack by the slack in place and factors it
        # once: on runs that break the sandwich, one barrier lowered to touch
        # the Gram after row lo - 1, it fails where sandwich_holds(gaps +
        # slack I) does, and names the first row at which that fails.
        # carried: the lower gap is lowered along G w, w orthogonal to row lo
        # and in its plane with row lo + 1, to -10 slack after row lo - 1, so
        # row lo, kept, leaves the break as it was and row lo + 1, kept,
        # repairs it: no row that shrinks the gap sees it, and only the run's
        # first row, looked at as such, does. creeping: a stand-in walk keeps
        # every row of the run at 1/p just above 1 + eps, so each shrinks the
        # upper gap by about 1e-9 aa' while the slack grows by 1.5e-7 |a|^2;
        # the gap, broken by 1.4 slacks of row lo - 1, fails at row lo but
        # holds against the slack of the stretch's last row. zeros: exact-zero
        # rows inside the run have p = 0, and the check reads no 1/p of them
        # (a RuntimeWarning fails)
        barrier, lo, *how = broken.split("-")
        lo, block = int(lo), gen_gaussian(300, 4, seed=75).block(0, 300)
        verdicts, check, entered = [], BarrierState._checked_gaps, []

        def with_reference(self, n):
            gaps = np.moveaxis(reference_gaps(self, n), 0, 1)  # (n, 2, d, d)
            slack = BARRIER_TOL * np.maximum((1.0 + self.eps) * np.trace(self._run[2][:n], axis1=1, axis2=2),
                                             1e-300)
            first = next((j for j in range(n) if not sandwich_holds(gaps[j], slack[j])), None)
            named = None
            try:
                check(self, n)
            except BarrierViolation as exc:
                named = int(re.search(r"row (\d+):", str(exc)).group(1)) - self._run[0]
                raise
            finally:
                verdicts.append((sandwich_holds(gaps, slack[:, None]), first, named))
                entered.append(self._run[4][:2].copy())
        monkeypatch.setattr(BarrierState, "_checked_gaps", with_reference)
        state = BarrierState(4, 0.5, seed=76)
        state.add_rows(0, block[:lo])
        gram = state.gram
        if how == ["carried"]:
            g, (b0, b1) = gram - (1 - 0.5) * state.seen, block[lo:lo + 2] @ state.image.coords
            w = b1 - (b1 @ b0) / (b0 @ b0) * b0
            gw, wgw = g @ w, w @ g @ w
            below = 10 * BARRIER_TOL * (1 + 0.5) * np.trace(state.seen) * (w @ w) / wgw
            state.seen += (1 + below) * np.outer(gw, gw) / wgw / (1 - 0.5)
        elif how == ["creeping"]:
            least = np.linalg.eigvalsh((1 + 0.5) * state.seen - gram)[0]
            below = 1.4 * BARRIER_TOL * (1 + 0.5) * (np.trace(state.seen) - 4 * least / (1 + 0.5))
            state.seen -= (least + below) / (1 + 0.5) * np.eye(4)

            def kept_just_past_one_plus_eps(self, rows, coins, probs, kept):
                probs[:], kept[:], self._at = 1.0 / ((1 + 0.5) * (1 + 1e-9)), True, len(rows) - 1
            monkeypatch.setattr(BarrierState, "_walk", kept_just_past_one_plus_eps)
        elif barrier == "lower":
            state.seen += np.linalg.eigvalsh(gram - (1 - 0.5) * state.seen)[0] / (1 - 0.5) * np.eye(4)
        else:
            state.seen -= np.linalg.eigvalsh((1 + 0.5) * state.seen - gram)[0] / (1 + 0.5) * np.eye(4)
        if how == ["zeros"]:
            block[lo:lo + 60:3] = 0.0
        with pytest.raises(BarrierViolation):
            state.add_rows(lo, block[lo:lo + ONLINE_RUN])
        assert all(holds == (first is None) and named == first for holds, first, named in verdicts)
        assert verdicts[0][0] and verdicts[-1][1] is not None
        if how in (["carried"], ["creeping"]):  # the run's first row breaks it, and it and the next are kept
            assert verdicts[-1][1] == 0 and entered[-1].all()

    @pytest.mark.parametrize("case", [*(case for case, (_, _, settings) in BARRIER_PARITY_CASES.items()
                                        if not settings), "kd-scale-k=6", "kd-scale-k=9"])
    def test_passing_check_factors_once(self, case, monkeypatch):
        # delta is read at each stretch's last row, so the stretch ends' one
        # batched factor decides every check that passes, and no passing
        # check walks its rows. kd-scale: the barrier's column-scale runs of
        # test_random_order's TestInvarianceLaw, kd(8, 128) scaled by 10^+-k
        if case.startswith("kd-scale"):
            k = int(case[-1])
            rows = permute(gen_kd_multigraph(8, 128), seed=1).materialize()
            stream, eps, seed = make_stream(rows * 10.0 ** np.random.default_rng(7).uniform(-k, k, 8)), 0.5, 1
        else:
            (stream, eps), seed = barrier_parity_case(case, monkeypatch), 74
        factored, factors, check = [], online._factors, BarrierState._checked_gaps

        def counted(stack):
            factored[-1] += 1
            return factors(stack)

        def each_check(self, n):
            factored.append(0)
            check(self, n)
        monkeypatch.setattr(online, "_factors", counted)
        monkeypatch.setattr(BarrierState, "_checked_gaps", each_check)
        run_barrier(stream, eps, seed)
        assert factored and set(factored) == {1}

    def test_inconclusive_stretch_factor_passes_where_no_row_fails(self, monkeypatch):
        # the upper barrier is lowered to touch the Gram after row 159, and a
        # stand-in walk keeps every row of the next run at 1/p just above
        # 1 + eps, so each shrinks the upper gap by about 1e-9 aa', as the
        # rows grow 1e4-fold: each row's own slack covers its gap, but the
        # stretch's last gap falls below its first row's slack. The stretch
        # factor fails, every row's pair holds, and the run passes
        block = gen_gaussian(300, 4, seed=75).block(0, 300)
        state = BarrierState(4, 0.5, seed=76)
        state.add_rows(0, block[:160])
        state.seen -= np.linalg.eigvalsh((1 + 0.5) * state.seen - state.gram)[0] / (1 + 0.5) * np.eye(4)

        def kept_just_past_one_plus_eps(self, rows, coins, probs, kept):
            probs[:], kept[:], self._at = 1.0 / ((1 + 0.5) * (1 + 1e-9)), True, len(rows) - 1
        factored, factors = [], online._factors

        def counted(stack):
            factored.append(factors(stack))
            return factored[-1]
        monkeypatch.setattr(BarrierState, "_walk", kept_just_past_one_plus_eps)
        monkeypatch.setattr(online, "_factors", counted)
        state.add_rows(160, block[160:160 + ONLINE_RUN] * np.logspace(0, 4, ONLINE_RUN)[:, None])
        assert factored[0] is False and len(factored) > 1 and all(factored[1:])

    def test_check_factors_one_gap_per_stretch(self, monkeypatch):
        # a row shrinks a gap only where the walk's k for it is < 0: the upper
        # for a kept row with 1/p > 1 + eps, the lower for a dropped row. The
        # check factors each gap once per stretch of such rows, the run's
        # first row counted in, where a check after every row factors 2n
        stream = gen_gaussian(2000, 12, seed=3)
        factored, factors = [], online._factors

        def counted(stack):
            factored.append(stack.size // stack.shape[-1] ** 2)
            return factors(stack)
        monkeypatch.setattr(online, "_factors", counted)
        sketch, diag = run_barrier(stream, 0.5, seed=3)
        kept = np.isin(np.arange(stream.n), sketch.indices)
        taken = np.divide(1.0, diag.probs, out=np.zeros(stream.n), where=kept)
        stretches = 0
        for k in ((1.0 + 0.5) - taken, taken - (1.0 - 0.5)):
            for lo in range(0, stream.n, ONLINE_RUN):
                looked = np.append(k[lo:lo + ONLINE_RUN] < 0.0, False)
                looked[0] = True
                stretches += np.count_nonzero(looked[:-1] & ~looked[1:])
        assert sum(factored) == stretches < stream.n // 2
