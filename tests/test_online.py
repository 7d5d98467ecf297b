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
from specstream.randomness import CHUNK
from specstream.rows import SparseRows
from specstream.verify import AUDIT_SLACK

from conftest import identity_stream, make_stream
import oracles


def last_column_scaled(s, from_row=0):
    """default_rng(1) 4000 x 6 Gaussian rows, the last column 0 before
    from_row and scaled by s from it on (ROADMAP item 14's family)."""
    rows = np.random.default_rng(1).standard_normal((4000, 6))
    rows[:from_row, 5] = 0.0
    rows[from_row:, 5] *= s
    return make_stream(rows)


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
# boundary, the K_5 stream completes its rank inside the first run, and a
# drift tolerance of 0 replaces each gap's pseudo-inverse at every check.
BARRIER_PARITY_CASES = {
    "gaussian": (lambda: gen_gaussian(500, 8, seed=71), 0.5, {}),
    "kd-permuted": (lambda: permute(gen_kd_multigraph(8, 64), seed=72), 0.5, {}),
    "duplicate-zero": (duplicate_and_zero_rows, 0.3, {}),
    "d2": (lambda: gen_gaussian(300, 2, seed=73), 0.7, {}),
    **{f"gaussian-{n}": (lambda n=n: gen_gaussian(n, 6, seed=n), 0.5, {})
       for n in (127, 128, 129, 257)},
    "kd5-rank-in-run": (lambda: permute(gen_kd_multigraph(5, 40), seed=79), 0.5, {}),
    "drift-in-runs": (lambda: gen_gaussian(400, 5, seed=80), 0.5, {"PINV_DRIFT_TOL": 0.0}),
    # a denominator floor of 1 rebuilds the lower gap on every dropped row
    # (1 - (1 - eps) q < 1) while the upper gap steps, and the upper gap on
    # a kept row with k_u < 0; drift checks every 37 steps then fall at
    # offsets that differ between the gaps
    "one-gap-rebuilds": (lambda: gen_gaussian(300, 6, seed=71), 0.5,
                         {"UPDATE_DENOM_FLOOR": 1.0}),
    "uneven-drift-checks": (lambda: gen_gaussian(300, 6, seed=71), 0.5,
                            {"UPDATE_DENOM_FLOOR": 1.0, "PINV_VERIFY_EVERY": 37,
                             "PINV_DRIFT_TOL": 0.0}),
}

# per-gap (recomputes, drift events) of the upper and lower gap at seed 74
BARRIER_GAP_COUNTS = {
    "one-gap-rebuilds": ((41, 0), (98, 0)),
    "uneven-drift-checks": ((43, 2), (99, 1)),
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
    # at a zero tolerance every second kept row replaces the maintained pinv
    "drift-replaced-mid-run": (lambda: gen_gaussian(3 * ONLINE_RUN, 5, seed=98), 0.5, 0.5,
                               {"PINV_VERIFY_EVERY": 2, "PINV_DRIFT_TOL": 0.0}),
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
        assert 0 <= diag.drift_events <= diag.pinv_recomputes

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
            assert diag.drift_events >= 10

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
            assert (state.kept.recomputes, state.kept.drift_events) == (
                diag.pinv_recomputes, diag.drift_events)

    def test_boundary_cases_reach_their_boundaries(self):
        kept = oracles.online_reference(spiked_rows(), 0.5, seed=94, c_mult=0.5)[0]
        assert {ONLINE_RUN - 1, 2 * ONLINE_RUN - 1} <= set(kept)
        stream = image_grows_mid_run()
        _, diag = run_online(stream, 0.5, seed=94, c_mult=0.5)
        # four directions at the start, then one at each growth row
        assert diag.pinv_recomputes == 6
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
        # rows 1e9 times longer than the rest: a kept long row's correction of
        # a later row in its run cancels two forms near 1e16 and can round
        # below 0; the block's one clamp logs such a form as 0, as a clamp
        # after every step would
        rows = np.random.default_rng(1).standard_normal((600, 3))
        rows[[130, 140, 150, 170, 200, 300, 310, 520]] *= 1e9
        _, diag = run_online(make_stream(rows), 0.5, seed=1, c_mult=0.5)
        assert 0.0 <= diag.scores.min() and diag.scores.max() <= 1.0

    # (stream at n rows, the sweep of n): ROADMAP item 12's 16x sweeps of
    # n at d = 8; a kd(8, copies) stream has 28 edges per copy and rank 7
    COUNT_SWEEPS = {
        "gaussian": (lambda n: gen_gaussian(n, 8, seed=n), (2000, 8000, 32000)),
        "kd-permuted": (lambda n: permute(gen_kd_multigraph(8, n // 28), seed=n), (3584, 14336, 57344)),
    }

    @pytest.mark.parametrize("family", sorted(COUNT_SWEEPS))
    def test_pinv_rebuilds_do_not_grow_with_n(self, family):
        # Cohen et al.'s ridge inverse never rebuilds; the pseudo-inverse
        # rebuilds once per new direction and once per drift event, whatever n
        build, sizes = self.COUNT_SWEEPS[family]
        recomputes = set()
        for n in sizes:
            stream = build(n)
            sketch, diag = run_online(stream, 0.5, seed=1)
            rank = np.linalg.matrix_rank(stream.block(0, stream.n))
            assert diag.pinv_recomputes <= rank + diag.drift_events, n
            assert diag.drift_events <= sketch.n_rows / online.PINV_VERIFY_EVERY, n
            recomputes.add(diag.pinv_recomputes)
        assert len(recomputes) == 1, recomputes

    # (run, pseudo-inverses it forms, or None) of clean runs whose kept
    # pseudo-inverses step far past PINV_VERIFY_EVERY; on item 14's stream
    # (last column x 1e-5) and the late-direction stream (s = 1e-4), G is
    # ill-conditioned (kappa near 1e10 at 1e-5), and the certificate resolves
    # every drift check there at componentwise rounding: the counts are the
    # rank's rebuilds and item 14's flat image rebuilds alone
    EIGH_COUNT_RUNS = {
        "online-gaussian": (lambda: run_online(gen_gaussian(4000, 8, seed=1), 0.5, seed=1), None),
        "online-kd-permuted": (lambda: run_online(permute(gen_kd_multigraph(8, 256), seed=2), 0.5, seed=2),
                               None),
        "barrier-gaussian": (lambda: run_barrier(gen_gaussian(2000, 12, seed=3), 0.5, seed=3), None),
        "online-small-column": (lambda: run_online(last_column_scaled(1e-5), 0.5, seed=1), 9),
        "barrier-small-column": (lambda: run_barrier(last_column_scaled(1e-5), 0.5, seed=1), 18),
        "online-late-direction": (lambda: run_online(last_column_scaled(1e-4, 3000), 0.5, seed=1), 11),
        "barrier-late-direction": (lambda: run_barrier(last_column_scaled(1e-4, 3000), 0.5, seed=1), 23),
    }

    @pytest.mark.parametrize("case", sorted(EIGH_COUNT_RUNS))
    def test_drift_checks_form_no_pseudo_inverse(self, case, monkeypatch):
        # a drift check certifies the kept pseudo-inverse with a product and
        # a Cholesky, and forms a pseudo-inverse only to install it, as a
        # drift event; every one formed is an eigendecomposition the run counts
        formed = []
        monkeypatch.setattr(online, "pinv", lambda s: formed.append(s.rank) or linalg_pinv(s))
        run, want = self.EIGH_COUNT_RUNS[case]
        sketch, diag = run()
        assert sketch.n_rows > online.PINV_VERIFY_EVERY and diag.drift_events == 0
        assert len(formed) == diag.pinv_recomputes
        assert want is None or diag.pinv_recomputes == want, diag.pinv_recomputes

    def test_late_direction_barrier_replaces_at_the_rank_drop(self, monkeypatch):
        # at s = 1e-5 from row 3000 one gap's least image eigenvalue falls to
        # 4.98e-12 lambda_max, under the cutoff 6 * 2^-40 = 5.46e-12, while its
        # kept Y of rank 6 still fits it (||G Y - P||_F ~ 1e-9): the drift
        # check's rank clause fails, and the rebuild it installs has rank 5
        replaced, stepped = [], KeptPinv.stepped

        def watched(kept):
            before, events = kept.pinv.source_rank, kept.drift_events
            result = stepped(kept)
            if kept.drift_events != events:
                replaced.append((before, kept.pinv.source_rank))
            return result
        monkeypatch.setattr(KeptPinv, "stepped", watched)
        sketch, diag = run_barrier(last_column_scaled(1e-5, 3000), 0.5, seed=1)
        assert (sketch.n_rows, diag.drift_events) == (741, 1)
        assert replaced == [(6, 5)]

    def test_walk_rescores_after_a_drift_replacement(self):
        # Y is 1% off the sketch Gram's pseudo-inverse between two runs, and
        # the second run's first kept row steps into the drift check, which
        # replaces Y: the rows after it must be scored again against the new
        # Y, as a twin rebuilt at that row scores them
        rows = np.random.default_rng(91).standard_normal((2 * ONLINE_RUN, 6))
        twins = [OnlineState(6, 0.5, seed=92) for _ in range(2)]
        for state in twins:
            state.add_rows(0, rows[:ONLINE_RUN])
            state.kept.pinv.matrix *= 1.01
        drifted, rebuilt = twins
        assert drifted.kept.drift_events == 0
        drifted.kept._updates_since_verify = online.PINV_VERIFY_EVERY - 1
        kept = drifted.add_rows(ONLINE_RUN, rows[ONLINE_RUN:])
        assert drifted.kept.drift_events == 1
        i = ONLINE_RUN + int(np.argmax(kept))
        rebuilt.kept._updates_since_verify = 0
        assert rebuilt.add_rows(ONLINE_RUN, rows[ONLINE_RUN:i + 1]).tolist() == kept[:i + 1 - ONLINE_RUN].tolist()
        rebuilt.kept.recompute()
        assert rebuilt.add_rows(i + 1, rows[i + 1:]).tolist() == kept[i + 1 - ONLINE_RUN:].tolist()
        assert np.allclose(drifted.scores[-1][i + 1 - ONLINE_RUN:], rebuilt.scores[-1], rtol=0.0, atol=1e-9)

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
def test_power_of_two_scales_decide_alike(runner, monkeypatch):
    # rows scaled by 2^k keep every ratio the samplers decide on, and so
    # every decision, while their Grams' squared entries over- or underflow
    # (2^+-300) and the pseudo-inverses' too (2^+-450): no drift check may
    # then fall back to an eigendecomposition, or warn. LAPACK's eigh
    # rescales a matrix outside its safe range by a factor that is no power
    # of 2, so p, and the weights, move in their last bits
    rows = np.random.default_rng(3).standard_normal((3000, 5))
    formed, init = [0], SymPsd.__init__

    def counting(self, entries):
        formed[0] += 1
        init(self, entries)
    monkeypatch.setattr(SymPsd, "__init__", counting)

    def run(k):
        formed[0] = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sketch, diag = SCALE_RUNNERS[runner](make_stream(rows * 2.0 ** k), 0.5, 1)
        counts = {name: value for name, value in diag.counters().items() if name != "score_total"}
        return sketch.indices, counts, formed[0], np.array(sketch.weights), diag.probs
    indices, counts, formed_at_one, weights, probs = run(0)
    for k in (300, -300, 450, -450):
        scaled = run(k)
        assert scaled[:3] == (indices, counts, formed_at_one), k
        assert np.allclose(scaled[3], weights, rtol=1e-9, atol=0.0), k
        assert np.allclose(scaled[4], probs, rtol=1e-9, atol=0.0), k


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
    """(sketch, stats) of one (sampler, s) run on item 14's family, each run once."""
    runs = {}

    def run(sampler, s):
        if (sampler, s) not in runs:
            runs[sampler, s] = SMALL_COLUMN_RUNNERS[sampler](last_column_scaled(s), 0.5, 1)
        return runs[sampler, s]
    return run


def _flat(formed, rank, kept_pinvs):
    return (f"{formed} pseudo-inverses formed, rank {rank}: {formed - kept_pinvs * rank} image "
            "rebuilds leave the rank flat, as the rank cutoff drops what the kernel test "
            "calls off the image (ROADMAP item 14)")


def _rebuilt(formed, rank):
    return (f"{formed} pseudo-inverses formed, rank {rank}: the rank cutoff drops the "
            "direction the kernel test calls off the image, so rows along it rebuild "
            "again and again (ROADMAP item 14)")


# (sampler, s) -> why the count clause fails there today, from the counts
# measured at eps 0.5, seed 1
SMALL_COLUMN_COUNT_FAULTS = {
    ("online", 1e-4): _flat(7, 6, 1),
    ("online", 1e-5): _flat(9, 6, 1),
    ("online", 1e-6): _rebuilt(3927, 5),
    ("online", 1e-7): _rebuilt(3340, 5),
    ("online", 1e-8): _rebuilt(335, 5),
    ("barrier", 1e-4): _flat(14, 6, 2),
    ("barrier", 1e-5): _flat(18, 6, 2),
    ("barrier", 1e-6): _rebuilt(7849, 5),
    ("barrier", 1e-7): _rebuilt(6688, 5),
    ("barrier", 1e-8): _rebuilt(713, 5),
}


def _short(rows, by, verify_eps, qr_eps):
    return (f"{rows} online scores fall short of their QR leverage, by up to {by}, while verify "
            f"passes the audit and reads eps {verify_eps} where QR reads {qr_eps}: the scores "
            "miss the direction the rank cutoff drops (ROADMAP item 14), and verify's Gram "
            "cutoff drops it too (ROADMAP item 16)")


# s -> why the online scores miss the QR oracle's leverage there, as
# measured at eps 0.5, seed 1
SMALL_COLUMN_AUDIT_FAULTS = {
    ("online", 1e-8): _short(29, 4.7e-4, 0.1643, 0.2069),
    ("online", 1e-9): _short(166, 2.5e-3, 0.1824, 0.2975),
    ("online", 1e-10): _short(166, 2.5e-3, 0.1824, 0.2975),
}


def _small_column_cases(faults=None, samplers=SMALL_COLUMN_RUNNERS):
    """Every (sampler, s) of the family, each in faults a strict xfail with its reason."""
    faults = faults or {}
    return [pytest.param(sampler, s, id=f"{sampler}-s={s:.0e}", marks=[
        pytest.mark.xfail(strict=True, reason=faults[sampler, s])] if (sampler, s) in faults else [])
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

    @pytest.mark.parametrize("sampler, s", _small_column_cases(SMALL_COLUMN_COUNT_FAULTS))
    def test_rebuilds_stay_within_the_rank(self, small_column_run, sampler, s):
        # ROADMAP item 12's count clause: one pseudo-inverse per direction of
        # the kept Gram for each one a sampler keeps (the barrier keeps two),
        # plus one per drift event
        sketch, diag = small_column_run(sampler, s)
        rank = SymPsd(sketch.gram_matrix()).rank
        kept_pinvs = 1 if sampler == "online" else 2
        assert diag.pinv_recomputes <= kept_pinvs * rank + diag.drift_events, diag.pinv_recomputes

    # The QR oracle reads the family apart from verify, whose Gram
    # eigendecomposition squares the condition number (ROADMAP item 16).
    @pytest.mark.parametrize("sampler, s", _small_column_cases())
    def test_qr_oracle_reads_eps(self, small_column_run, sampler, s):
        sketch, _ = small_column_run(sampler, s)
        eps_qr = oracles.qr_eps(last_column_scaled(s).materialize(), sketch.weighted_matrix())
        assert eps_qr <= 0.5, eps_qr

    @pytest.mark.parametrize("sampler, s", _small_column_cases(SMALL_COLUMN_AUDIT_FAULTS, ["online"]))
    def test_scores_dominate_the_qr_leverage(self, small_column_run, sampler, s):
        _, diag = small_column_run(sampler, s)
        lev = oracles.qr_leverage(last_column_scaled(s).materialize())
        short = lev - (diag.scores + AUDIT_SLACK)
        assert np.all(short <= 0.0), (np.count_nonzero(short > 0.0), short.max())


def kept_step(kept, a, k):
    """Follow X += k aa' (a on the image) as the samplers do: take pa and
    q = a' pa, ask for coef, step in place and report the step. (pa, coef)
    when the step stands, None after a rebuild."""
    y = kept.pinv.matrix
    pa = y @ a
    coef = kept.step_coef(k, float(a @ pa), True)
    if coef is None:
        return None
    y -= (pa[:, None] * pa) * coef
    return (pa, coef) if kept.stepped() else None


def kept_relative(kept, a, q):
    """(dense a on the image of kept's matrix, its relative score from the
    form q = a' X+ a), from the package's image test and score formula."""
    on = on_image_rows(kept.pinv, a[None])
    return bool(on[0]), float(relative_of(on, np.array([max(q, 0.0)]))[0])


class TestKeptPinv:
    def test_image_growth_and_rank_drop_rebuild(self):
        x = np.zeros((3, 3))
        kept = KeptPinv(3, lambda: x)
        a = np.array([1.0, 2.0, 0.0])
        assert kept_relative(kept, a, 0.0) == (False, 1.0)
        x += 2.0 * np.outer(a, a)
        assert kept.step_coef(2.0, 0.0, False) is None
        assert kept.recomputes == 1
        q = float(a @ kept.pinv.matrix @ a)
        on_image, rel = kept_relative(kept, a, q)
        want = a @ np.linalg.pinv(x) @ a
        assert on_image and rel == pytest.approx(want / (want + 1.0), rel=1e-12)
        # subtracting the same term empties X: the denominator 1 - 2q is 0
        x -= 2.0 * np.outer(a, a)
        assert kept_step(kept, a, -2.0) is None
        assert kept.recomputes == 2 and kept.pinv.source_rank == 0
        assert np.array_equal(kept.pinv.matrix, np.zeros((3, 3)))

    def test_drift_check_replaces_a_drifted_pinv(self, monkeypatch):
        monkeypatch.setattr("specstream.online.PINV_VERIFY_EVERY", 2)
        x = np.diag([1.0, 2.0, 4.0])
        kept = KeptPinv(3, lambda: x)
        kept.recompute()
        a = np.array([1.0, 1.0, 1.0])
        x += np.outer(a, a)
        before = kept.pinv.matrix.copy()
        pa, coef = kept_step(kept, a, 1.0)
        # the step taken is the Sherman-Morrison one, and stepped() kept it
        assert coef == 1.0 / (1.0 + float(a @ pa))
        assert np.array_equal(kept.pinv.matrix, before - (pa[:, None] * pa) * coef)
        assert np.allclose(kept.pinv.matrix, np.linalg.inv(x), rtol=1e-12)
        assert kept.drift_events == 0
        kept.pinv.matrix[0, 0] *= 1.0 + 1e-3
        x += np.outer(a, a)
        # a replaced pinv reports no step: scores taken before it are stale
        assert kept_step(kept, a, 1.0) is None
        assert (kept.recomputes, kept.drift_events) == (2, 1)
        assert np.allclose(kept.pinv.matrix, np.linalg.inv(x), rtol=1e-12)

    @pytest.mark.parametrize("off", [2.0, 0.5, 0.1])
    def test_drift_check_errs_toward_a_rebuild(self, off, monkeypatch):
        # Y off by `off` times PINV_DRIFT_TOL, relative, so ||G Y - P||_F =
        # off * PINV_DRIFT_TOL * sqrt(3): at twice and at half the tolerance
        # the certificate (PINV_DRIFT_TOL / 2) fails, and the rebuild it forms
        # replaces Y; a tenth of it passes, and no pseudo-inverse is formed
        monkeypatch.setattr(online, "PINV_VERIFY_EVERY", 1)
        formed = []
        monkeypatch.setattr(online, "pinv", lambda s: formed.append(s.rank) or linalg_pinv(s))
        x = np.diag([1.0, 2.0, 4.0])
        kept = KeptPinv(3, lambda: x)
        kept.recompute()
        fresh = kept.pinv.matrix.copy()
        kept.pinv.matrix *= 1.0 + off * online.PINV_DRIFT_TOL
        drifted = kept.pinv.matrix.copy()
        replaced = off >= 0.5
        assert kept.stepped() is not replaced
        assert (kept.recomputes, kept.drift_events, len(formed)) == ((2, 1, 2) if replaced else (1, 0, 1))
        assert np.array_equal(kept.pinv.matrix, fresh if replaced else drifted)

    def test_mass_off_the_projector_rebuilds_at_rank_plus_one(self, monkeypatch):
        # the kept Y still inverts X on its old image (G Y - P = 0), but X
        # gained mass off it above the rank cutoff: the drift check rebuilds
        monkeypatch.setattr(online, "PINV_VERIFY_EVERY", 1)
        x = np.diag([1.0, 2.0, 0.0])
        kept = KeptPinv(3, lambda: x)
        kept.recompute()
        assert kept.pinv.source_rank == 2
        x[2, 2] = 1e-9
        assert not kept.stepped()
        assert (kept.pinv.source_rank, kept.recomputes, kept.drift_events) == (3, 2, 1)
        assert np.allclose(kept.pinv.matrix, np.diag([1.0, 0.5, 1e9]), rtol=1e-12, atol=0.0)

    def test_image_eigenvalue_under_the_cutoff_rebuilds_at_rank_minus_one(self, monkeypatch):
        # X's least eigenvalue falls to 2e-12 of the largest, under the rank
        # cutoff 3 * 2^-40 = 2.7e-12, and Y follows it (G Y - P at rounding
        # level): the residual certifies Y, but the rebuild drops that
        # direction, so the drift check's rank clause rebuilds
        monkeypatch.setattr(online, "PINV_VERIFY_EVERY", 1)
        x = np.diag([1.0, 2.0, 1e-11])
        kept = KeptPinv(3, lambda: x)
        kept.recompute()
        assert kept.pinv.source_rank == 3
        x[2, 2] = 4e-12
        kept.pinv.matrix[2, 2] = 2.5e11
        assert np.linalg.norm(x @ kept.pinv.matrix - kept.pinv.projector) < 1e-15
        assert not kept.stepped()
        assert (kept.pinv.source_rank, kept.recomputes, kept.drift_events) == (2, 2, 1)
        assert np.allclose(kept.pinv.matrix, np.diag([1.0, 0.5, 0.0]), rtol=1e-12, atol=1e-15)

    def test_score_is_the_shared_relative_leverage(self):
        # dense and densified sparse rows against a full-rank and a rank-7
        # (d = 8) matrix, on and off the image; from the same form, the
        # per-row and the block kernel test and formula agree bit for bit
        from specstream import relative_leverage
        from specstream.linalg import quad_forms

        gauss = gen_gaussian(40, 8, seed=31)
        kd = permute(gen_kd_multigraph(8, 64), seed=32)
        for stream in (gauss, kd):
            kept = KeptPinv(8, stream.gram_matrix)
            kept.recompute()
            assert kept.pinv.source_rank == (8 if stream is gauss else 7)
            rows = np.array([oracles.dense_row(stream.row(i), 8) for i in range(0, stream.n, 7)]
                            + [np.eye(8)[0]])
            for r in rows:
                q = float(quad_forms(kept.pinv, r[None])[0])
                assert kept_relative(kept, r, q)[1] == relative_leverage(kept.pinv, r)
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
        # them on a Gaussian stream) and once per drift event, none here
        assert diag.pinv_recomputes == 2 * stream.d + diag.drift_events
        assert diag.drift_events == 0

    @pytest.mark.parametrize("case", sorted(BARRIER_PARITY_CASES))
    def test_matches_fresh_pinv_reference(self, case, monkeypatch):
        stream, eps = barrier_parity_case(case, monkeypatch)
        sketch, diag = run_barrier(stream, eps, seed=74)
        kept, weights, probs = oracles.barrier_reference(stream, eps, seed=74)
        flipped = set(sketch.indices) ^ set(kept)
        assert not flipped, f"{len(flipped)} flipped decisions"
        assert np.allclose(sketch.weights, weights, rtol=1e-9, atol=0.0)
        assert np.max(np.abs(diag.probs - probs)) <= 1e-9
        assert (diag.drift_events > 0) == (case in ("drift-in-runs", "uneven-drift-checks"))

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
            counts.append([(k.recomputes, k.drift_events) for k in (state.upper_pinv, state.lower_pinv)])
        assert all(c == counts[0] for c in counts)
        assert [sum(c) for c in zip(*counts[0])] == [diag.pinv_recomputes, diag.drift_events]

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
        assert tuple((k.recomputes, k.drift_events) for k in kept) == BARRIER_GAP_COUNTS[case]
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
        assert diag.drift_events == sum(k.drift_events for k in kept)

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
        # the run. From lo = 172 a drift check rebuilds the lower gap's
        # pseudo-inverse from an indefinite gap further on, and the run still
        # names the first failing row.
        stream = gen_gaussian(300, 4, seed=75)
        unbroken, _ = run_barrier(stream, 0.5, seed=76)
        block = stream.block(0, stream.n)
        twins = [BarrierState(4, 0.5, seed=76) for _ in range(2)]
        for state in twins:
            state.add_rows(0, block[:lo])
            least = np.linalg.eigvalsh(state.sketch.gram_matrix() - (1 - 0.5) * state.seen)[0]
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
        # BARRIER_TOL, but the gap is indefinite beyond the SymPsd floor, so
        # a drift check at every step rebuilds from it at row lo and raises
        stream = gen_gaussian(600, 4, seed=75)
        block = stream.block(0, stream.n)
        state = BarrierState(4, 0.5, seed=76)
        state.add_rows(0, block[:lo])
        gram, eye = state.sketch.gram_matrix(), np.eye(4)
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

    def test_gap_indefinite_off_its_image_raises_at_the_drift_check(self, monkeypatch):
        # rows in the first three of d = 4 coordinates, and seen raised along
        # the fourth: the lower gap goes 1e-9 trace(upper) negative off its
        # image, where its kept pseudo-inverse still fits it (G Y - P stays
        # small), within BARRIER_TOL but beyond the SymPsd floor. Only the
        # certificate's Cholesky sees it, and the drift check at row lo raises
        rows = np.random.default_rng(85).standard_normal((300, 4))
        rows[:, 3] = 0.0
        lo, e4 = 175, np.outer(np.eye(4)[3], np.eye(4)[3])
        state = BarrierState(4, 0.5, seed=86)
        state.add_rows(0, rows[:lo])
        state.seen += 1e-9 * float(np.trace((1 + 0.5) * state.seen)) / (1 - 0.5) * e4
        lower_gap = state.sketch.gram_matrix() - (1 - 0.5) * state.seen
        assert sandwich_holds(lower_gap, BARRIER_TOL * float(np.trace((1 + 0.5) * state.seen)))
        with pytest.raises(NotPsd):
            SymPsd(lower_gap)
        monkeypatch.setattr(online, "PINV_VERIFY_EVERY", 1)
        with pytest.raises(BarrierViolation) as raised:
            state.add_rows(lo, rows[lo:lo + ONLINE_RUN])
        assert str(raised.value) == f"gap matrix indefinite at row {lo}"
        assert isinstance(raised.value.__cause__, NotPsd)

    def test_drift_replacement_that_grows_a_gap_retakes_its_verdicts(self, monkeypatch):
        # a row the gaps' kept pseudo-inverses never saw enters seen and the
        # sketch as if kept at p = 1, along the fourth of d = 4 coordinates
        # that the rows before it left out: both gaps gain eps times its
        # squared length there, off their images. Row lo, still in three coordinates, steps, and its
        # drift check replaces both at rank 4; the rows after it are on the
        # new images, so a run must take their verdicts again to score them
        # as one row at a time does
        monkeypatch.setattr(online, "PINV_VERIFY_EVERY", 1)
        rows = np.random.default_rng(87).standard_normal((300, 4))
        lo = 170
        rows[:lo + 1, 3] = 0.0
        twins = [BarrierState(4, 0.5, seed=88) for _ in range(2)]
        for state in twins:
            state.add_rows(0, rows[:lo - 1])
            unseen = np.sqrt(np.trace(state.seen) / 4) * np.eye(4)[3]
            state.sketch.append_rows([lo - 1], [1.0], unseen[None])
            state.seen += np.outer(unseen, unseen)
        as_run, by_rows = twins
        as_run.add_rows(lo, rows[lo:lo + ONLINE_RUN])
        for i in range(lo, lo + ONLINE_RUN):
            barrier_step(by_rows, rows[i], i)
        for gap in (as_run.upper_pinv, as_run.lower_pinv):
            assert gap.pinv.source_rank == 4 and gap.drift_events == 1
        assert as_run.sketch.indices == by_rows.sketch.indices
        probs = np.concatenate(by_rows.probs[-ONLINE_RUN:])
        assert np.allclose(as_run.probs[-1], probs, rtol=0.0, atol=1e-12)
        counts = [[(k.recomputes, k.drift_events) for k in (s.upper_pinv, s.lower_pinv)] for s in twins]
        assert counts[0] == counts[1]

    def test_cholesky_check_agrees_with_audited_gaps(self):
        stream = gen_gaussian(200, 6, seed=77)
        state = BarrierState(6, 0.5, seed=78)
        eye = np.eye(6)
        for i in range(stream.n):
            barrier_step(state, stream.row(i), i)
            gram = state.sketch.gram_matrix()
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
        # the online walk takes a pseudo-inverse's kernel verdicts once for
        # the rest of the block: taken per ONLINE_RUN-row run, as they were,
        # every row's verdict is the same
        calls, image_test = [], online.on_image_rows

        def per_run_too(p, block):
            whole = image_test(p, block)
            runs = [image_test(p, block[k:k + ONLINE_RUN]) for k in range(0, len(block), ONLINE_RUN)]
            calls.append((len(block), np.array_equal(whole, np.concatenate([whole[:0], *runs]))))
            return whole
        monkeypatch.setattr(online, "on_image_rows", per_run_too)
        run_online(build(), 0.5, 1)
        assert all(same for _, same in calls)
        assert max(rows for rows, _ in calls) > ONLINE_RUN

    @pytest.mark.parametrize("case", ["gaussian", "kd-permuted", "one-gap-rebuilds"])
    def test_one_gap_source_is_the_stacks_slice(self, case, monkeypatch):
        # a rebuild or drift check forms the one gap it reads, at the row
        # walked; the sandwich check forms both after every row as one
        # stack: each gap is the same bits in both
        stream, eps = barrier_parity_case(case, monkeypatch)
        monkeypatch.setattr(online, "PINV_VERIFY_EVERY", 3)
        read, gap, check = [], BarrierState._gap, BarrierState._checked_gaps

        def recorded(self, k, at):
            g = gap(self, k, at)
            read.append((k, at, g.copy()))
            return g

        def compared(self, n):
            stack = self._gap_stack(n).copy()
            assert all(np.array_equal(g, stack[k, at]) for k, at, g in read)
            assert all(np.array_equal(gap(self, k, j), stack[k, j]) for k in (0, 1) for j in range(n))
            sources.append(len(read))
            read.clear()
            check(self, n)
        sources = []
        monkeypatch.setattr(BarrierState, "_gap", recorded)
        monkeypatch.setattr(BarrierState, "_checked_gaps", compared)
        run_barrier(stream, eps, seed=74)
        assert len(sources) == -(-stream.n // ONLINE_RUN) and sum(sources) > 0

    @pytest.mark.parametrize("broken", ["lower-160", "lower-172", "upper-160"])
    def test_shifted_stack_fails_where_sandwich_holds_fails(self, broken, monkeypatch):
        # the check shifts the gap stack by the slack in place and factors it
        # once: on runs that break the sandwich, one barrier lowered to touch
        # the Gram after row lo - 1, it fails where sandwich_holds(gaps +
        # slack I) does, and names the first row at which that fails
        barrier, lo = broken.split("-")
        lo, block = int(lo), gen_gaussian(300, 4, seed=75).block(0, 300)
        verdicts, check = [], BarrierState._checked_gaps

        def with_reference(self, n):
            gaps = np.moveaxis(self._gap_stack(n), 0, 1).copy()  # (n, 2, d, d)
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
        monkeypatch.setattr(BarrierState, "_checked_gaps", with_reference)
        state = BarrierState(4, 0.5, seed=76)
        state.add_rows(0, block[:lo])
        gram = state.sketch.gram_matrix()
        if barrier == "lower":
            state.seen += np.linalg.eigvalsh(gram - (1 - 0.5) * state.seen)[0] / (1 - 0.5) * np.eye(4)
        else:
            state.seen -= np.linalg.eigvalsh((1 + 0.5) * state.seen - gram)[0] / (1 + 0.5) * np.eye(4)
        with pytest.raises(BarrierViolation):
            state.add_rows(lo, block[lo:lo + ONLINE_RUN])
        assert all(holds == (first is None) and named == first for holds, first, named in verdicts)
        assert verdicts[0][0] and verdicts[-1][1] is not None
