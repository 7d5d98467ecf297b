"""Block samplers for random-order streams and their ConstApprox plugs."""
import math

import numpy as np
import pytest

from specstream import (
    BlockSampler,
    CapacityCollapse,
    ConstApproxFailure,
    DimensionMismatch,
    EmptyStream,
    ImprovedSampler,
    ResparsifyApprox,
    RowStream,
    ScaledSampler,
    Sketch,
    SymPsd,
    approx_factor,
    gen_gaussian,
    gen_kd_multigraph,
    improved_scaled_sampling,
    permute,
    scaled_sampling,
    seed_block_size,
    verify,
)

from conftest import PassThroughPlug, make_stream
import oracles


class TestBlockSchedule:
    def test_seed_block_size(self):
        assert seed_block_size(2) == 2
        assert seed_block_size(10) == math.ceil(10 * math.log(10))
        with pytest.raises(DimensionMismatch):
            seed_block_size(1)

    @pytest.mark.parametrize("d", [2.5, np.float64(10.0)])
    def test_non_integer_dimension_refused(self, d):
        # seed_block_size(2.5) returned 3
        with pytest.raises(DimensionMismatch):
            seed_block_size(d)
        assert seed_block_size(np.int64(10)) == seed_block_size(10)

    def test_boundaries_double(self):
        # the rows a run froze at, as it recorded them
        _, diag = scaled_sampling(permute(gen_gaussian(4000, 10, seed=7), seed=8), 0.3, seed=9)
        sched = diag.schedule
        k = seed_block_size(10)
        assert sched == tuple((2 ** (i + 1) - 1) * k for i in range(len(sched)))
        assert sched[-1] < 4000
        assert 2 * sched[-1] + k >= 4000

    def test_short_stream_has_no_boundaries(self):
        _, diag = scaled_sampling(gen_gaussian(5, 10, seed=3), 0.3, seed=4)
        assert diag.schedule == ()


class TestScaledSampler:
    def test_short_stream_passes_through(self):
        # n <= K: the seed block copies everything at weight 1
        stream = gen_gaussian(20, 10, seed=3)  # K(10) = 24
        sketch, diag = scaled_sampling(stream, 0.3, seed=4)
        assert sketch.n_rows == 20
        assert sketch.weights == [1.0] * 20
        assert approx_factor(SymPsd(stream.gram_matrix()), sketch.gram) < 1e-12
        assert diag.pinv_recomputes == 0

    def test_doubled_identity_copied_exactly(self):
        rows = np.vstack([np.eye(10), np.eye(10)])
        stream = permute(make_stream(rows), seed=5)
        sketch, _ = scaled_sampling(stream, 0.5, seed=6)
        assert sketch.n_rows == 20
        assert approx_factor(SymPsd(stream.gram_matrix()), sketch.gram) < 1e-12

    def test_recomputes_equal_block_count(self):
        stream = permute(gen_gaussian(4000, 10, seed=7), seed=8)
        sketch, diag = scaled_sampling(stream, 0.3, seed=9)
        _, boundaries = oracles.block_schedule(4000, 10)
        assert diag.pinv_recomputes == len(boundaries) == 7
        assert diag.schedule == boundaries

    @pytest.mark.parametrize("use_jl", [False, True])
    def test_full_rank_block_forms_no_kernel_residual(self, monkeypatch, use_jl):
        # every block is frozen after K >= d Gaussian rows, so each frozen
        # matrix has full rank and its image is the whole space: the image
        # test reads no projector, so an all-NaN one moves no decision
        from specstream import jl, linalg
        from specstream.linalg import PInv, on_image_rows

        stream = permute(gen_gaussian(1500, 6, seed=17), seed=18)
        want, _ = scaled_sampling(stream, 0.4, seed=19, use_jl=use_jl)
        ranks = []

        def nan_projector(p, block):
            ranks.append(p.source_rank)
            return on_image_rows(PInv(p.source_rank, p.matrix, np.full_like(p.projector, np.nan)), block)

        monkeypatch.setattr(linalg, "on_image_rows", nan_projector)
        monkeypatch.setattr(jl, "on_image_rows", nan_projector)
        sketch, diag = scaled_sampling(stream, 0.4, seed=19, use_jl=use_jl)
        assert diag.pinv_recomputes >= 5 and sketch.n_rows < stream.n
        assert ranks and set(ranks) == {6}
        assert (sketch.indices, sketch.weights) == (want.indices, want.weights)

    def test_scores_frozen_within_block(self):
        # the same row scores identically inside one block and generally
        # differently in the next; every score reproduces from the logged
        # frozen pseudo-inverses
        d = 4
        k = seed_block_size(d)  # 6
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((40, d))
        marker = rng.standard_normal(d)
        b1_first, b1_second = k, 3 * k - 1  # both inside block 1
        b2 = 3 * k + 2  # inside block 2
        rows[b1_first] = marker
        rows[b1_second] = marker
        rows[b2] = marker
        stream = make_stream(rows)
        sampler = ScaledSampler(d, 0.4, seed=11)
        for i in range(stream.n):
            sampler.step(i, stream.row(i))
        sketch, diag = sampler.finalize()
        assert diag.scores[b1_first] == diag.scores[b1_second]
        assert diag.scores[b2] != diag.scores[b1_first]
        mult = 1.0 + 0.4
        for pos in (b1_first, b1_second, b2):
            block = int(np.searchsorted(np.asarray(diag.schedule), pos, side="right")) - 1
            q = float(marker @ diag.frozen_pinvs[block] @ marker)
            want = min(mult * q / (q + 1.0), 1.0)
            assert diag.scores[pos] == pytest.approx(want, rel=1e-12)

    def test_block_score_sums_bounded(self):
        # per-block score mass, read from the score log cut at the recorded
        # freezes, stays within a small multiple of d
        d = 8
        sums = []
        for s in range(20):
            stream = permute(gen_gaussian(2000, d, seed=100 + s), seed=200 + s)
            _, diag = scaled_sampling(stream, 0.3, seed=300 + s)
            sums.append(np.add.reduceat(diag.scores, [0, *diag.schedule])[1:])
        med = np.median(np.array(sums), axis=0)
        assert np.all(med <= 24 * d)

    def test_spectral_guarantee_smoke(self):
        fails = 0
        for s in range(10):
            stream = permute(gen_gaussian(1500, 8, seed=400 + s), seed=500 + s)
            sketch, _ = scaled_sampling(stream, 0.4, seed=600 + s)
            eps_actual, _ = verify(stream, sketch)
            fails += eps_actual > 0.4
        assert fails == 0

    def test_const_approx_contract(self):
        plug = ScaledSampler(6, 0.5, seed=12)
        for i in range(30):
            plug.add(i, np.eye(6)[i % 6])
        assert isinstance(plug.query(), Sketch)
        assert plug.peak_rows == plug.query().n_rows

    def test_multiplier_defaults(self):
        assert ScaledSampler(5, 0.3, seed=1).multiplier == pytest.approx(1.3)

    def test_eps_bounds(self):
        with pytest.raises(ValueError):
            ScaledSampler(5, 0.6, seed=1)
        with pytest.raises(EmptyStream):
            scaled_sampling(make_stream(np.zeros((0, 5))), 0.3, seed=1)

    @pytest.mark.parametrize("c_mult", [0.0, -1.0, math.nan, math.inf])
    def test_sampling_rate_must_be_finite_and_positive(self, c_mult):
        with pytest.raises(ValueError):
            BlockSampler(5, 0.3, seed=1, c_mult=c_mult)
        with pytest.raises(ValueError):
            scaled_sampling(permute(gen_gaussian(50, 5, seed=12), seed=13), 0.3, 1,
                            ScaledSampler(5, 0.3, seed=2), c_mult=c_mult)

    def test_deterministic_given_seed(self):
        stream = permute(gen_gaussian(900, 7, seed=13), seed=14)
        a, _ = scaled_sampling(stream, 0.4, seed=15)
        b, _ = scaled_sampling(stream, 0.4, seed=15)
        assert a.indices == b.indices and a.weights == b.weights


class TestPassThroughApprox:
    """A plug that keeps what it is fed shows what the block sampler feeds it."""

    def test_keeps_everything_at_weight_one(self):
        # every row reaches the plug once, in order, dense
        stream = permute(gen_kd_multigraph(5, 20), seed=16)
        plug = PassThroughPlug(5)
        _, diag = improved_scaled_sampling(stream, 0.4, 15, plug)
        q = plug.query()
        assert q.indices == list(range(stream.n))
        assert q.weights == [1.0] * stream.n
        assert np.array_equal(q.rows, stream.materialize())
        assert np.array_equal(q.gram_matrix(), stream.gram_matrix())
        assert diag.max_working_rows == plug.peak_rows == stream.n

    def test_improved_with_passthrough_tracks_whole_stream(self):
        stream = permute(gen_gaussian(800, 6, seed=17), seed=18)
        sketch, diag = improved_scaled_sampling(stream, 0.4, 19, PassThroughPlug(6))
        assert diag.max_working_rows == 800
        eps_actual, _ = verify(stream, sketch)
        assert eps_actual <= 0.4
        assert diag.pinv_recomputes == len(oracles.block_schedule(800, 6)[1])


class TestResparsifyApprox:
    def test_capacity_formulas(self):
        d, beta, cap = 6, 0.25, 4.0
        plug = ResparsifyApprox(cap, beta, seed=1, dim=d)
        assert plug.capacity_rows == math.ceil(cap * beta ** -2 * d * math.log(d))
        assert plug.c_beta == pytest.approx(cap * beta ** -2 * math.log(d))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ResparsifyApprox(4.0, 0.5, seed=1, dim=4)
        with pytest.raises(ValueError):
            ResparsifyApprox(3.0, 0.3, seed=1, dim=4)
        with pytest.raises(DimensionMismatch):
            ResparsifyApprox(4.0, 0.3, seed=1, dim=1)
        for capacity_mult in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="capacity_mult"):
                ResparsifyApprox(capacity_mult, 0.4, seed=3, dim=5)

    @pytest.mark.parametrize("shape", [(1, 4), (1, 6), (5,)])
    def test_block_width_checked(self, shape):
        plug = ResparsifyApprox(4.0, 0.4, seed=3, dim=5)
        with pytest.raises(DimensionMismatch):
            plug.add_rows(0, np.ones(shape))
        assert plug.n_rows == 0

    def test_below_trigger_returns_rows_verbatim(self):
        plug = ResparsifyApprox(4.0, 0.4, seed=2, dim=3)
        rows = np.random.default_rng(20).standard_normal((50, 3))
        for i in range(50):
            plug.add(i, rows[i])
        q = plug.query()
        assert q.n_rows == 50
        assert q.weights == [1.0] * 50

    def test_dim_is_required(self):
        with pytest.raises(TypeError):
            ResparsifyApprox(4.0, 0.4, seed=3)
        plug = ResparsifyApprox(4.0, 0.4, seed=3, dim=5)
        row = (np.array([1]), np.array([1.0]))  # a sparse row fits the given dim
        plug.add(0, row)
        assert (plug.buffer.indices, plug.buffer.weights) == ([0], [1.0])
        assert np.array_equal(plug.buffer.rows, [[0.0, 1.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(plug.query().gram_matrix(), np.diag([0.0, 1.0, 0.0, 0.0, 0.0]))

    def test_identity_cycle_stays_bounded_and_accurate(self):
        # 8C rows cycling the axes: buffer capped at 2C, Gram a (1 +/- beta)
        # approximation of (n/d) I on almost every seed. The rows go in as
        # one run, which the plug splits where its buffer reaches 2C, so the
        # passes are those of a row-at-a-time feed
        d, beta, cap = 4, 1.0 / 3.0, 4.0
        C = math.ceil(cap * beta ** -2 * d * math.log(d))
        n = 8 * C
        rows = np.eye(d)[np.arange(n) % d]
        ok = 0
        for s in range(50):
            plug = ResparsifyApprox(cap, beta, seed=1000 + s, dim=d)
            plug.add_rows(0, rows)
            assert plug.peak_rows <= 2 * C
            target = SymPsd(n / d * np.eye(d))
            if approx_factor(target, plug.query().gram) <= beta:
                ok += 1
        assert ok >= 48

    def test_gaussian_quality_at_block_boundaries(self):
        # every query() is a (1 +/- beta) approximation of the rows fed so
        # far, checked at all block boundaries of an 8000-row stream. Each
        # stretch between boundaries, and the tail, goes in as one run: the
        # plug splits it where its buffer reaches 2C, so the same passes fire
        d, beta = 8, 1.0 / 3.0
        base = gen_gaussian(8000, d, seed=21)
        _, boundaries = oracles.block_schedule(8000, d)
        ok = 0
        for s in range(50):
            stream = permute(base, seed=s)
            a = stream.materialize()
            plug = ResparsifyApprox(4.0, beta, seed=2000 + s, dim=d)
            good = True
            for lo, hi in zip((0, *boundaries), (*boundaries, stream.n)):
                plug.add_rows(lo, stream.block(lo, hi))
                fed = a[:hi].T @ a[:hi]
                if hi in boundaries and approx_factor(SymPsd(fed), plug.query().gram) > beta:
                    good = False
            ok += good
        assert ok >= 45

    def test_collapse_after_one_retry(self):
        # an absurd keep rate makes the pass keep all 2C rows
        plug = ResparsifyApprox(4.0, 0.45, seed=4, dim=3)
        plug.c_beta = 1e12
        n = 2 * plug.capacity_rows
        with pytest.raises(CapacityCollapse):
            for i in range(n):
                plug.add(i, np.eye(3)[i % 3])
        assert plug.buffer.n_rows == n

    def test_weights_compound_across_passes(self):
        # after passes, each surviving weight is a product of 1/sqrt(p)
        # factors, so all are >= 1 and the Gram tracks the fed mass
        d = 3
        plug = ResparsifyApprox(4.0, 0.45, seed=5, dim=d)
        n = 6 * plug.capacity_rows
        rng = np.random.default_rng(22)
        fed = np.zeros((d, d))
        for i in range(n):
            row = rng.standard_normal(d)
            plug.add(i, row)
            fed += np.outer(row, row)
        assert plug.passes >= 1
        weights = plug.buffer.weights
        assert all(w >= 1.0 for w in weights)
        assert any(w > 1.0 for w in weights)
        assert approx_factor(SymPsd(fed), plug.query().gram) < 3 * 0.45
        # query() folds the held rows afresh, as one append_rows of them would
        held = plug.buffer
        fresh = Sketch(d)
        fresh.append_rows(held.indices, held.weights, held.rows)
        assert np.array_equal(plug.query().gram_matrix(), fresh.gram_matrix())


class TestImprovedSampler:
    def test_self_plug_guarantee_smoke(self):
        fails = 0
        for s in range(10):
            stream = permute(gen_gaussian(1500, 8, seed=700 + s), seed=800 + s)
            plug = ScaledSampler(8, 0.5, seed=900 + s)
            sketch, diag = improved_scaled_sampling(stream, 0.4, 1000 + s, plug)
            eps_actual, _ = verify(stream, sketch)
            fails += eps_actual > 0.4
            assert diag.pinv_recomputes == len(oracles.block_schedule(1500, 8)[1])
        assert fails == 0

    def test_resparsify_plug_bounds_working_set(self):
        stream = permute(gen_gaussian(3000, 6, seed=23), seed=24)
        plug = ResparsifyApprox(4.0, 1.0 / 3.0, seed=25, dim=6)
        sketch, diag = improved_scaled_sampling(stream, 0.4, 26, plug)
        assert diag.max_working_rows <= 2 * plug.capacity_rows
        eps_actual, _ = verify(stream, sketch)
        assert eps_actual <= 0.4

    def test_one_sampler_records_its_freezes(self):
        # scaled and improved are one BlockSampler; both record the rows they
        # froze at, and those are the doubling boundaries
        assert ScaledSampler is ImprovedSampler is BlockSampler
        stream = permute(gen_gaussian(900, 5, seed=34), seed=35)
        want = oracles.block_schedule(900, 5)[1]
        for plug in (None, PassThroughPlug(5)):
            _, diag = scaled_sampling(stream, 0.4, 36, plug)
            assert diag.schedule == want
            assert diag.pinv_recomputes == len(want)

    @pytest.mark.parametrize("plug", ["resparsify", "block", "pass-through"])
    def test_plug_of_another_width_refused_at_construction(self, plug):
        # a plug of width 4 behind a d = 3 sampler fails before any row is taken
        approx = {"resparsify": lambda: ResparsifyApprox(4.0, 0.45, seed=2, dim=4),
                  "block": lambda: BlockSampler(4, 0.5, seed=2),
                  "pass-through": lambda: PassThroughPlug(4)}[plug]()
        with pytest.raises(DimensionMismatch, match="plug of dimension 4 for dim 3"):
            BlockSampler(3, 0.5, seed=1, approx=approx)
        assert approx.query().n_rows == 0

    def test_default_multiplier_is_two(self):
        sampler = ImprovedSampler(5, 0.4, 1, PassThroughPlug(5))
        assert sampler.multiplier == 2.0

    def test_broken_plug_detected(self):
        # a plug that silently drops a direction must raise at the boundary
        class LossyPlug:
            beta = 0.25

            def __init__(self, dim):
                self.dim = dim
                self.rows = []

            @property
            def peak_rows(self):
                return len(self.rows)

            def add_rows(self, lo, block):
                for i, row in enumerate(block):
                    squashed = np.array(row, dtype=float)
                    squashed[0] = 0.0  # loses every component along axis 0
                    self.rows.append((lo + i, squashed))

            def query(self):
                sk = Sketch(self.dim)
                for idx, row in self.rows:
                    sk.append(idx, 1.0, row)
                return sk

        stream = gen_gaussian(60, 4, seed=27)
        with pytest.raises(ConstApproxFailure):
            improved_scaled_sampling(stream, 0.4, 28, LossyPlug(4))

    def test_plugs_are_interchangeable(self):
        stream = permute(gen_gaussian(1200, 6, seed=29), seed=30)
        for plug in (
            PassThroughPlug(6),
            ScaledSampler(6, 0.5, seed=31),
            ResparsifyApprox(4.0, 1.0 / 3.0, seed=32, dim=6),
        ):
            sketch, diag = improved_scaled_sampling(stream, 0.4, 33, plug)
            eps_actual, _ = verify(stream, sketch)
            assert eps_actual <= 0.4
            assert diag.pinv_recomputes == len(oracles.block_schedule(1200, 6)[1])


def _zero_and_duplicate_rows():
    rows = np.random.default_rng(80).standard_normal((1500, 5))
    rows[::7] = 0.0
    rows[11::11] = rows[10::11][: len(rows[11::11])]
    return permute(make_stream(rows), seed=81)


def _sparse_with_explicit_zeros():
    d = 6
    rng = np.random.default_rng(82)
    payload = []
    for _ in range(2000):
        idx = np.sort(rng.choice(d, size=3, replace=False))
        val = rng.standard_normal(3)
        val[rng.integers(3)] = 0.0
        payload.append((idx, val))
    return RowStream(d, payload, {"kind": "test"}, sparse=True)


BLOCK_PARITY_STREAMS = {
    "gaussian": lambda: permute(gen_gaussian(3000, 6, seed=83), seed=84),
    "kd": lambda: permute(gen_kd_multigraph(8, 64), seed=85),
    "zero-duplicate": _zero_and_duplicate_rows,
    "sparse-zeros": _sparse_with_explicit_zeros,
    "d2": lambda: permute(gen_gaussian(600, 2, seed=86), seed=87),
}

BLOCK_PARITY_PLUGS = {
    "none": lambda d: None,
    "self": lambda d: ScaledSampler(d, 0.5, seed=88),
    # beta 0.45 keeps the buffer small enough that passes fire on every stream
    "resparsify": lambda d: ResparsifyApprox(4.0, 0.45, seed=89, dim=d),
}


DERIVED_FIGURE_PLUGS = {**BLOCK_PARITY_PLUGS, "pass-through": PassThroughPlug}


class TestDerivedFigures:
    """A block run's schedule and pinv count follow from the rows it took,
    and its working set from the plug's peak."""

    @pytest.mark.parametrize("plug_name", sorted(DERIVED_FIGURE_PLUGS))
    @pytest.mark.parametrize("blocks, extra", [(1, 0), (1, 1), (3, 0), (3, 1)])
    def test_figures_at_and_past_boundaries(self, plug_name, blocks, extra):
        d = 6
        n = blocks * seed_block_size(d) + extra
        stream = permute(gen_gaussian(n, d, seed=102), seed=103)
        plug = DERIVED_FIGURE_PLUGS[plug_name](d)
        sampler = BlockSampler(d, 0.4, 104, plug)
        for i in range(n):
            sampler.step(i, stream.row(i))
        sketch, diag = sampler.finalize()
        want = oracles.block_schedule(n, d)[1]
        assert diag.schedule == want
        assert diag.pinv_recomputes == len(sampler.frozen_pinvs) == len(want)
        assert diag.max_working_rows == (sketch.n_rows if plug is None else plug.peak_rows)


class TestBlockReference:
    # jl-*: JL scoring against the oracle's numpy restatement of it
    @pytest.mark.parametrize("plug_name", sorted(BLOCK_PARITY_PLUGS) + ["jl-none", "jl-self"])
    @pytest.mark.parametrize("stream_name", sorted(BLOCK_PARITY_STREAMS))
    def test_matches_fresh_pinv_reference(self, stream_name, plug_name):
        stream = BLOCK_PARITY_STREAMS[stream_name]()
        use_jl = plug_name.startswith("jl-")
        make_plug = BLOCK_PARITY_PLUGS[plug_name.removeprefix("jl-")]
        plug, twin = make_plug(stream.d), make_plug(stream.d)
        eps = 0.4
        n_hint = stream.n if use_jl else None
        sketch, diag = scaled_sampling(stream, eps, 90, plug, use_jl=use_jl)
        kept, weights, levels, _ = oracles.block_reference(stream, eps, 90, twin, n_hint)
        flipped = set(sketch.indices) ^ set(kept)
        assert not flipped, f"{len(flipped)} flipped decisions"
        assert np.allclose(sketch.weights, weights, rtol=1e-9, atol=0.0)
        c = 6.0 * eps ** -2 * math.log(stream.d)
        probs = np.minimum(c * diag.scores, 1.0)
        assert np.max(np.abs(probs - np.minimum(c * levels, 1.0))) <= 1e-9
        if plug_name == "resparsify":
            assert plug.passes == twin.passes >= 1
            assert diag.max_working_rows == plug.peak_rows == twin.peak_rows
        if plug_name.endswith("self"):
            assert plug.query().indices == twin.query().indices

    @pytest.mark.parametrize("plug_name", ["none", "resparsify", "jl-self"])
    def test_step_loop_matches_whole_stream_run(self, plug_name):
        stream = permute(gen_gaussian(3000, 6, seed=91), seed=92)
        # jl-self: JL scoring with a self plug, the configuration of criterion 8
        use_jl = plug_name == "jl-self"
        make_plug = BLOCK_PARITY_PLUGS["self" if use_jl else plug_name]
        config = dict(use_jl=use_jl, n_hint=stream.n)
        sampler = BlockSampler(6, 0.4, 93, make_plug(6), **config)
        for i in range(stream.n):
            sampler.step(i, stream.row(i))
        stepped, step_diag = sampler.finalize()
        whole, whole_diag = scaled_sampling(stream, 0.4, 93, make_plug(6), **config)
        assert stepped.indices == whole.indices
        assert np.allclose(stepped.weights, whole.weights, rtol=1e-12, atol=0.0)
        assert np.allclose(step_diag.scores, whole_diag.scores, rtol=1e-12, atol=1e-15)

    def test_jl_freeze_computes_one_pinv(self, monkeypatch):
        from specstream import jl, linalg, random_order

        calls = []

        def counted(s):
            calls.append(1)
            return linalg.pinv(s)

        monkeypatch.setattr(random_order, "pinv", counted)
        monkeypatch.setattr(jl, "pinv", counted)
        stream = permute(gen_gaussian(3000, 6, seed=94), seed=95)
        _, diag = scaled_sampling(stream, 0.4, 96, use_jl=True)
        assert diag.pinv_recomputes >= 5
        assert len(calls) == diag.pinv_recomputes


class TestResparsifyCounters:
    def test_pass_count_is_recorded(self):
        # a pass shows from outside as the buffer shrinking; a twin fed one
        # row at a time counts those shrinks
        d, n = 3, 3000
        stream = permute(gen_gaussian(n, d, seed=97), seed=98)
        plug = ResparsifyApprox(4.0, 0.45, seed=99, dim=d)
        _, diag = improved_scaled_sampling(stream, 0.4, 100, plug)
        twin = ResparsifyApprox(4.0, 0.45, seed=99, dim=d)
        shrinks = 0
        for i in range(n):
            before = twin.n_rows
            twin.add(i, stream.row(i))
            shrinks += twin.n_rows <= before
        assert diag.resparsify_passes == plug.passes == shrinks == 43

    @pytest.mark.parametrize("stream_name", ["gaussian", "kd", "d2"])
    def test_matches_fresh_pinv_reference(self, stream_name):
        stream = BLOCK_PARITY_STREAMS[stream_name]()
        plug = ResparsifyApprox(4.0, 0.45, seed=101, dim=stream.d)
        for lo in range(0, stream.n, 500):
            plug.add_rows(lo, stream.block(lo, min(lo + 500, stream.n)))
        held, weights, passes, peak = oracles.resparsify_reference(
            stream.materialize(), 4.0, 0.45, seed=101)
        assert (plug.passes, plug.peak_rows) == (passes, peak)
        assert plug.buffer.indices == held
        assert np.allclose(plug.buffer.weights, weights, rtol=1e-9, atol=0.0)

    def test_collapse_counts_its_retry(self):
        # an absurd keep rate fails the first pass
        plug = ResparsifyApprox(4.0, 0.45, seed=4, dim=3)
        plug.c_beta = 1e12
        with pytest.raises(CapacityCollapse):
            rows = np.eye(3)[np.arange(2 * plug.capacity_rows) % 3]
            plug.add_rows(0, rows)
        assert plug.passes == 0
