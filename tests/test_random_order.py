"""Block samplers for random-order streams and their ConstApprox plugs."""
import math

import numpy as np
import pytest

from specstream import (
    BlockSampler,
    BlockSchedule,
    CapacityCollapse,
    ConstApproxFailure,
    DimensionMismatch,
    EmptyStream,
    ImprovedSampler,
    PassThroughApprox,
    ResparsifyApprox,
    ScaledSampler,
    Sketch,
    SymPsd,
    approx_factor,
    gen_gaussian,
    improved_scaled_sampling,
    permute,
    resparsify_const_approx,
    scaled_sampling,
    seed_block_size,
    verify,
)

from conftest import make_stream


class TestBlockSchedule:
    def test_seed_block_size(self):
        assert seed_block_size(2) == 2
        assert seed_block_size(10) == math.ceil(10 * math.log(10))
        with pytest.raises(DimensionMismatch):
            seed_block_size(1)

    def test_boundaries_double(self):
        sched = BlockSchedule.for_stream(4000, 10)
        k = seed_block_size(10)
        assert sched.k == k
        assert sched.boundaries == tuple((2 ** (i + 1) - 1) * k for i in range(len(sched.boundaries)))
        assert sched.boundaries[-1] < 4000
        assert 2 * sched.boundaries[-1] + k >= 4000
        assert sched.alpha == len(sched.boundaries)

    def test_short_stream_has_no_boundaries(self):
        sched = BlockSchedule.for_stream(5, 10)
        assert sched.boundaries == ()
        assert sched.alpha == 0


class TestScaledSampler:
    def test_short_stream_passes_through(self):
        # n <= K: the seed block copies everything at weight 1
        stream = gen_gaussian(20, 10, seed=3)  # K(10) = 24
        sketch, diag = scaled_sampling(stream, 0.3, seed=4)
        assert sketch.n_rows == 20
        assert sketch.weights == [1.0] * 20
        assert approx_factor(stream.gram(), sketch.gram) < 1e-12
        assert diag.pinv_recomputes == 0

    def test_doubled_identity_copied_exactly(self):
        rows = np.vstack([np.eye(10), np.eye(10)])
        stream = permute(make_stream(rows), seed=5)
        sketch, _ = scaled_sampling(stream, 0.5, seed=6)
        assert sketch.n_rows == 20
        assert approx_factor(stream.gram(), sketch.gram) < 1e-12

    def test_recomputes_equal_block_count(self):
        stream = permute(gen_gaussian(4000, 10, seed=7), seed=8)
        sketch, diag = scaled_sampling(stream, 0.3, seed=9)
        sched = BlockSchedule.for_stream(4000, 10)
        assert diag.pinv_recomputes == len(sched.boundaries) == 7
        assert diag.schedule.boundaries == sched.boundaries

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
            block = int(np.searchsorted(np.asarray(diag.schedule.boundaries), pos, side="right")) - 1
            q = float(marker @ diag.frozen_pinvs[block] @ marker)
            want = min(mult * q / (q + 1.0), 1.0)
            assert diag.scores[pos] == pytest.approx(want, rel=1e-12)

    def test_block_score_sums_bounded(self):
        # per-block score mass stays within a small multiple of d
        d = 8
        sums = []
        for s in range(20):
            stream = permute(gen_gaussian(2000, d, seed=100 + s), seed=200 + s)
            _, diag = scaled_sampling(stream, 0.3, seed=300 + s)
            sums.append(diag.block_sums[1:])
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
        assert plug.beta == 0.5
        for i in range(30):
            plug.add(i, np.eye(6)[i % 6])
        assert isinstance(plug.query(), Sketch)
        assert plug.n_rows == plug.query().n_rows

    def test_multiplier_defaults(self):
        assert ScaledSampler(5, 0.3, seed=1).multiplier == pytest.approx(1.3)
        assert ScaledSampler(5, 0.3, seed=1, multiplier=2.0).multiplier == 2.0

    def test_eps_bounds(self):
        with pytest.raises(ValueError):
            ScaledSampler(5, 0.6, seed=1)
        with pytest.raises(EmptyStream):
            scaled_sampling(make_stream(np.zeros((0, 5))), 0.3, seed=1)

    def test_deterministic_given_seed(self):
        stream = permute(gen_gaussian(900, 7, seed=13), seed=14)
        a, _ = scaled_sampling(stream, 0.4, seed=15)
        b, _ = scaled_sampling(stream, 0.4, seed=15)
        assert a.indices == b.indices and a.weights == b.weights


class TestPassThroughApprox:
    def test_keeps_everything_at_weight_one(self):
        plug = PassThroughApprox(3)
        rows = np.random.default_rng(16).standard_normal((7, 3))
        for i in range(7):
            plug.add(i, rows[i])
        q = plug.query()
        assert q.n_rows == 7
        assert q.weights == [1.0] * 7
        assert plug.beta == 0.0
        assert plug.peak_rows == 7

    def test_improved_with_passthrough_tracks_whole_stream(self):
        stream = permute(gen_gaussian(800, 6, seed=17), seed=18)
        sketch, diag = improved_scaled_sampling(stream, 0.4, 19, PassThroughApprox(6))
        assert diag.max_working_rows == 800
        eps_actual, _ = verify(stream, sketch)
        assert eps_actual <= 0.4
        assert diag.pinv_recomputes == len(BlockSchedule.for_stream(800, 6).boundaries)


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

    def test_below_trigger_returns_rows_verbatim(self):
        plug = resparsify_const_approx(4.0, 0.4, seed=2, dim=3)
        rows = np.random.default_rng(20).standard_normal((50, 3))
        for i in range(50):
            plug.add(i, rows[i])
        q = plug.query()
        assert q.n_rows == 50
        assert q.weights == [1.0] * 50

    def test_dim_inference(self):
        plug = resparsify_const_approx(4.0, 0.4, seed=3)
        plug.add(0, np.ones(5))
        assert plug.dim == 5
        lazy = resparsify_const_approx(4.0, 0.4, seed=3)
        from specstream import rows as rowops
        with pytest.raises(DimensionMismatch):
            lazy.add(0, rowops.sparse_row([1], [1.0], 5))

    def test_identity_cycle_stays_bounded_and_accurate(self):
        # 8C rows cycling the axes: buffer capped at 2C, Gram a (1 +/- beta)
        # approximation of (n/d) I on almost every seed
        d, beta, cap = 4, 1.0 / 3.0, 4.0
        C = math.ceil(cap * beta ** -2 * d * math.log(d))
        n = 8 * C
        eye = np.eye(d)
        ok = 0
        for s in range(50):
            plug = ResparsifyApprox(cap, beta, seed=1000 + s, dim=d)
            for i in range(n):
                plug.add(i, eye[i % d])
            assert plug.peak_rows <= 2 * C
            target = SymPsd(n / d * np.eye(d))
            if approx_factor(target, plug.query().gram) <= beta:
                ok += 1
        assert ok >= 48

    def test_gaussian_quality_at_block_boundaries(self):
        # every query() is a (1 +/- beta) approximation of the rows fed so
        # far, checked at all block boundaries of an 8000-row stream
        d, beta = 8, 1.0 / 3.0
        base = gen_gaussian(8000, d, seed=21)
        boundaries = set(BlockSchedule.for_stream(8000, d).boundaries)
        ok = 0
        for s in range(50):
            stream = permute(base, seed=s)
            plug = ResparsifyApprox(4.0, beta, seed=2000 + s, dim=d)
            fed = np.zeros((d, d))
            good = True
            for i in range(stream.n):
                row = stream.row(i)
                plug.add(i, row)
                fed += np.outer(row, row)
                if i + 1 in boundaries:
                    if approx_factor(SymPsd(fed.copy()), plug.query().gram) > beta:
                        good = False
            ok += good
        assert ok >= 45

    def test_collapse_after_one_retry(self):
        # an absurd keep rate makes both passes keep all 2C rows
        plug = ResparsifyApprox(4.0, 0.45, seed=4, dim=3)
        plug.c_beta = 1e12
        n = 2 * plug.capacity_rows
        with pytest.raises(CapacityCollapse):
            for i in range(n):
                plug.add(i, np.eye(3)[i % 3])
        assert len(plug.buffer) == n

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
        assert plug._passes >= 1
        weights = [w for _, w, _ in plug.buffer]
        assert all(w >= 1.0 for w in weights)
        assert any(w > 1.0 for w in weights)
        assert approx_factor(SymPsd(fed), plug.query().gram) < 3 * 0.45


class TestImprovedSampler:
    def test_self_plug_guarantee_smoke(self):
        fails = 0
        for s in range(10):
            stream = permute(gen_gaussian(1500, 8, seed=700 + s), seed=800 + s)
            plug = ScaledSampler(8, 0.5, seed=900 + s)
            sketch, diag = improved_scaled_sampling(stream, 0.4, 1000 + s, plug)
            eps_actual, _ = verify(stream, sketch)
            fails += eps_actual > 0.4
            assert diag.pinv_recomputes == len(BlockSchedule.for_stream(1500, 8).boundaries)
        assert fails == 0

    def test_resparsify_plug_bounds_working_set(self):
        stream = permute(gen_gaussian(3000, 6, seed=23), seed=24)
        plug = resparsify_const_approx(4.0, 1.0 / 3.0, seed=25, dim=6)
        sketch, diag = improved_scaled_sampling(stream, 0.4, 26, plug)
        assert diag.capacity_rows == plug.capacity_rows
        assert diag.max_working_rows <= 2 * plug.capacity_rows
        eps_actual, _ = verify(stream, sketch)
        assert eps_actual <= 0.4

    def test_one_sampler_records_its_freezes(self):
        # scaled and improved are one BlockSampler; both record the rows they
        # froze at, and those are the doubling boundaries
        assert ScaledSampler is ImprovedSampler is BlockSampler
        stream = permute(gen_gaussian(900, 5, seed=34), seed=35)
        want = BlockSchedule.for_stream(900, 5)
        for plug in (None, PassThroughApprox(5)):
            _, diag = scaled_sampling(stream, 0.4, 36, plug)
            assert diag.schedule == want
            assert diag.pinv_recomputes == want.alpha

    def test_default_multiplier_is_two(self):
        sampler = ImprovedSampler(5, 0.4, 1, PassThroughApprox(5))
        assert sampler.multiplier == 2.0

    def test_broken_plug_detected(self):
        # a plug that silently drops a direction must raise at the boundary
        class LossyPlug:
            beta = 0.25

            def __init__(self, dim):
                self.dim = dim
                self.rows = []

            @property
            def n_rows(self):
                return len(self.rows)

            def add(self, index, row):
                squashed = np.array(row, dtype=float)
                squashed[0] = 0.0  # loses every component along axis 0
                self.rows.append((index, squashed))

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
            PassThroughApprox(6),
            ScaledSampler(6, 0.5, seed=31),
            resparsify_const_approx(4.0, 1.0 / 3.0, seed=32, dim=6),
        ):
            sketch, diag = improved_scaled_sampling(stream, 0.4, 33, plug)
            eps_actual, _ = verify(stream, sketch)
            assert eps_actual <= 0.4
            assert diag.pinv_recomputes == len(BlockSchedule.for_stream(1200, 6).boundaries)
