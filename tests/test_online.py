"""Fully-online samplers: leverage-driven and barrier-driven."""
import math
import re

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
from specstream.errors import NonFiniteInput, NotPsd
from specstream.linalg import SymPsd
from specstream.online import BARRIER_TOL, ONLINE_RUN, KeptPinv, sandwich_holds
from specstream.random_order import BlockSampler, ResparsifyApprox
from specstream.rows import SparseRows

from conftest import identity_stream, make_stream
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
# 7-dimensional image in d = 8. run_barrier takes ONLINE_RUN = 128 rows a
# run: the n-row Gaussians end a run one row short of, on and past a
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
        with pytest.raises(ValueError):
            OnlineState(4, 0.0, seed=1)
        with pytest.raises(ValueError):
            OnlineState(4, 0.51, seed=1)
        with pytest.raises(DimensionMismatch):
            OnlineState(0, 0.3, seed=1)

    @pytest.mark.parametrize("c_mult", [0.0, -1.0, math.nan, math.inf])
    def test_sampling_rate_must_be_finite_and_positive(self, c_mult):
        with pytest.raises(ValueError):
            OnlineState(4, 0.3, seed=1, c_mult=c_mult)

    def test_sparse_and_dense_copies_sample_alike(self):
        # sparse rows are a storage format: the sampler scores them dense
        sparse = permute(gen_kd_multigraph(8, 64), seed=33)
        dense = make_stream(sparse.materialize())
        a, da = run_online(sparse, 0.5, seed=34)
        b, db = run_online(dense, 0.5, seed=34)
        assert 0 < a.n_rows < sparse.n
        assert a.indices == b.indices and a.weights == b.weights
        assert np.array_equal(da.scores, db.scores)
        assert isinstance(a.rows[0], tuple) and not isinstance(b.rows[0], tuple)

    def test_indices_must_increase(self):
        state = OnlineState(3, 0.3, seed=1)
        online_step(state, np.array([1.0, 0.0, 0.0]), 0)
        with pytest.raises(DimensionMismatch):
            online_step(state, np.array([0.0, 1.0, 0.0]), 0)

    @pytest.mark.parametrize("case", sorted(ONLINE_PARITY_CASES))
    def test_matches_fresh_pinv_reference(self, case, monkeypatch):
        build, eps, c_mult, *patches = ONLINE_PARITY_CASES[case]
        for name, value in (patches[0] if patches else {}).items():
            monkeypatch.setattr(online, name, value)
        stream = build()
        sketch, diag = run_online(stream, eps, seed=94, c_mult=c_mult)
        kept, weights, levels = oracles.online_reference(stream, eps, seed=94, c_mult=c_mult)
        flipped = set(sketch.indices) ^ set(kept)
        assert not flipped, f"{len(flipped)} flipped decisions, first at row {min(flipped)}"
        assert np.allclose(sketch.weights, weights, rtol=1e-9, atol=0.0)
        assert np.max(np.abs(diag.scores - levels)) <= 1e-9
        if patches:
            assert diag.drift_events >= 10

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

    def test_sampling_constant_formula(self):
        assert sampling_constant(0.5, 10, 3.0) == pytest.approx(3.0 * 4.0 * math.log(10))


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
}


def sampler_state(state):
    """What a row may change: the sketch (the plug's held rows), the score
    logs and the counters."""
    sk = state.query() if isinstance(state, ResparsifyApprox) else state.sketch
    logs = [len(getattr(state, name, ())) for name in ("scores", "probs", "block_sums")]
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


@pytest.mark.parametrize("run", [run_online, scaled_sampling])
def test_only_kept_rows_get_a_payload(run, monkeypatch):
    # a sparse run's payloads are views built when read; a sampler reads the
    # payloads of the rows it keeps and of no other
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
    sketch, _ = run(stream, 0.5, 7)
    assert 0 < sketch.n_rows < stream.n
    assert len(reads) == sketch.n_rows


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


# (lo, block, payloads, error) after rows 0 and 1 were taken
BAD_RUNS = {
    "nan": (2, [[np.nan, 1.0, 1.0]], [None], NonFiniteInput),
    "inf-second-row": (2, [[1.0, 1.0, 1.0], [0.0, np.inf, 1.0]], [None, None], NonFiniteInput),
    "width-4": (2, np.ones((1, 4)), [None], DimensionMismatch),
    "flat-block": (2, np.ones(3), [None], DimensionMismatch),
    "fewer-payloads": (2, np.ones((2, 3)), [None], DimensionMismatch),
    "more-payloads": (2, np.ones((1, 3)), [None, None], DimensionMismatch),
    "lo-not-above-last": (1, np.ones((1, 3)), [None], DimensionMismatch),
}


@pytest.mark.parametrize("bad", sorted(BAD_RUNS))
@pytest.mark.parametrize("entry", sorted(run_entries()))
def test_run_entry_rejects_a_malformed_run_untouched(entry, bad):
    state = run_entries()[entry]
    good = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    state.add_rows(0, good, list(good))
    before = sampler_state(state)
    plug_before = sampler_state(state.approx) if getattr(state, "approx", None) else None
    lo, block, payloads, error = BAD_RUNS[bad]
    with pytest.raises(error):
        state.add_rows(lo, block, payloads)
    assert_unchanged(before, sampler_state(state))
    if plug_before is not None:
        assert_unchanged(plug_before, sampler_state(state.approx))
    # the rejected run left no mark, so rows from 2 on may still arrive
    state.add_rows(2, good, list(good))


@pytest.mark.parametrize("entry", sorted(run_entries()))
def test_run_entry_takes_an_empty_run_untouched(entry):
    state = run_entries()[entry]
    before = sampler_state(state)
    plug_before = sampler_state(state.approx) if getattr(state, "approx", None) else None
    state.add_rows(1000, np.zeros((0, 3)), [])
    assert_unchanged(before, sampler_state(state))
    if plug_before is not None:
        assert_unchanged(plug_before, sampler_state(state.approx))
    # the empty run took no index, so row 0 may still arrive
    good = np.array([[1.0, 2.0, 0.0]])
    state.add_rows(0, good, list(good))


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


class TestKeptPinv:
    def test_image_growth_and_rank_drop_rebuild(self):
        x = np.zeros((3, 3))
        kept = KeptPinv(3, lambda: SymPsd(x))
        a = np.array([1.0, 2.0, 0.0])
        assert kept.relative(a, 0.0) == (False, 1.0)
        x += 2.0 * np.outer(a, a)
        assert kept.step_coef(2.0, 0.0, False) is None
        assert kept.recomputes == 1
        q = float(a @ kept.pinv.matrix @ a)
        on_image, rel = kept.relative(a, q)
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
        kept = KeptPinv(3, lambda: SymPsd(x))
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

    def test_score_is_the_shared_relative_leverage(self):
        # dense and densified sparse rows against a full-rank and a rank-7
        # (d = 8) matrix, on and off the image; from the same form, the
        # per-row and the block kernel test and formula agree bit for bit
        from specstream import relative_leverage
        from specstream.leverage import quad_forms

        gauss = gen_gaussian(40, 8, seed=31)
        kd = permute(gen_kd_multigraph(8, 64), seed=32)
        for stream in (gauss, kd):
            kept = KeptPinv(8, stream.gram)
            kept.recompute()
            assert kept.pinv.source_rank == (8 if stream is gauss else 7)
            rows = np.array([oracles.dense_row(stream.row(i), 8) for i in range(0, stream.n, 7)]
                            + [np.eye(8)[0]])
            for r in rows:
                q = float(quad_forms(kept.pinv, r[None])[0])
                assert kept.relative(r, q)[1] == relative_leverage(kept.pinv, r)
            on_image, rel = kept.relative(rows[-1], 0.0)  # e_0, off the Laplacian's image
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

    @pytest.mark.parametrize("case", sorted(BARRIER_GAP_COUNTS))
    def test_one_gap_steps_while_the_other_rebuilds(self, case, monkeypatch):
        stream, eps = barrier_parity_case(case, monkeypatch)
        state = BarrierState(stream.d, eps, seed=74)
        for lo in range(0, stream.n, ONLINE_RUN):
            state.add_rows(lo, *stream.block(lo, min(lo + ONLINE_RUN, stream.n)))
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
        block, rows = stream.block(0, stream.n)
        twins = [BarrierState(4, 0.5, seed=76) for _ in range(2)]
        for state in twins:
            state.add_rows(0, block[:lo], rows[:lo])
            least = np.linalg.eigvalsh(state.sketch.gram_matrix() - (1 - 0.5) * state.seen)[0]
            state.seen += least / (1 - 0.5) * np.eye(4)
        with pytest.raises(BarrierViolation) as as_run:
            twins[0].add_rows(lo, block[lo:lo + ONLINE_RUN], rows[lo:lo + ONLINE_RUN])
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
        block, rows = stream.block(0, stream.n)
        state = BarrierState(4, 0.5, seed=76)
        state.add_rows(0, block[:lo], rows[:lo])
        gram, eye = state.sketch.gram_matrix(), np.eye(4)
        least = np.linalg.eigvalsh(gram - (1 - 0.5) * state.seen)[0]
        state.seen += (least + 1e-9 * float(np.trace((1 + 0.5) * state.seen))) / (1 - 0.5) * eye
        lower_gap = gram - (1 - 0.5) * state.seen
        assert sandwich_holds(lower_gap, BARRIER_TOL * float(np.trace((1 + 0.5) * state.seen)))
        with pytest.raises(NotPsd):
            SymPsd(lower_gap)
        monkeypatch.setattr(online, "PINV_VERIFY_EVERY", 1)
        with pytest.raises(BarrierViolation) as raised:
            state.add_rows(lo, block[lo:lo + ONLINE_RUN], rows[lo:lo + ONLINE_RUN])
        assert str(raised.value) == f"gap matrix indefinite at row {lo}"
        assert isinstance(raised.value.__cause__, NotPsd)

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
