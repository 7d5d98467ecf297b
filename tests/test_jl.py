"""Sign-projected leverage scoring: exact with an identity projection, concentrated otherwise."""
import math

import numpy as np
import pytest

from specstream import (
    DimensionMismatch,
    EmptySketch,
    ScaledSampler,
    Sketch,
    gen_gaussian,
    leverage_scores,
    permute,
    scaled_sampling,
    seed_block_size,
    verify,
)
from specstream.jl import MIN_PROJECTION_ROWS, JlScorer, jl_build, projection_rows, signs
from specstream.linalg import pinv
from specstream.online import ImageBasis, whitener

from conftest import identity_stream
import oracles


def build_sketch(rows):
    sk = Sketch(rows.shape[1])
    for i, r in enumerate(rows):
        sk.append(i, 1.0, r)
    return sk


class TestProjectionRows:
    def test_formula(self):
        for n in (2, 10, 1000, 10 ** 6):
            assert projection_rows(n) == max(4, math.ceil(8.0 * math.log(n)))
        assert projection_rows(2) == 6
        assert projection_rows(1) == projection_rows(2)  # hint floor

    @pytest.mark.parametrize("n_hint", [2.5, np.float64(2000.0), 0, -5])
    def test_non_integer_or_non_positive_hint_refused(self, n_hint):
        # int() truncated 2.5 and the floor took -5 as 2: both runs went ahead
        with pytest.raises(DimensionMismatch):
            projection_rows(n_hint)
        for use_jl in (True, False):  # refused at construction, before any row
            with pytest.raises(DimensionMismatch):
                ScaledSampler(8, 0.4, seed=1, use_jl=use_jl, n_hint=n_hint)
        with pytest.raises(DimensionMismatch):
            scaled_sampling(permute(gen_gaussian(400, 8, seed=1), seed=2), 0.4, 1, use_jl=True, n_hint=n_hint)
        assert projection_rows(np.int64(2000)) == projection_rows(2000)


class TestSigns:
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63 + 5, 2 ** 64 - 1])
    @pytest.mark.parametrize("k, m", [(MIN_PROJECTION_ROWS, 1), (MIN_PROJECTION_ROWS, 10_000),
                                      (84, 1), (84, 10_000), (9, 7)])  # 9 x 7 is odd
    def test_bit_equal_to_generator_integers(self, seed, k, m):
        # signs reads raw Philox words; the sampler's decisions rest on it
        # drawing exactly what Generator.integers(0, 2) draws
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        want = (2 * gen.integers(0, 2, (k, m)) - 1) / math.sqrt(k)
        got = signs(seed, k, m)
        assert got.shape == (k, m) and got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def frozen(sk):
    """(G+ = W W', U) of a sketch as a block freezes it, U grown by its rows."""
    image = ImageBasis(sk.dim)
    image.extend(sk.rows)
    w = whitener(sk, image)
    return w @ w.T, image


def identity_scorer(sk):
    """Score operator with Pi = I: N = M G+, whose Gram collapses to G+."""
    g_pinv, image = frozen(sk)
    return JlScorer(sk.weighted_matrix() @ g_pinv, image)


def projected_quad(scorer, a):
    """The projected estimate ||N a||^2 of a' G+ a."""
    y = scorer.n_matrix @ a
    return float(y @ y)


class TestDebugIdentity:
    def test_quad_matches_pinv_form_exactly(self):
        # with Pi = I the estimate equals the exact quadratic form, so the
        # score is the exact relative score
        rng = np.random.default_rng(40)
        rows = rng.standard_normal((12, 5))
        sk = build_sketch(rows)
        scorer = identity_scorer(sk)
        p = pinv(sk.gram).matrix
        for _ in range(20):
            a = rng.standard_normal(5)
            exact = float(a @ p @ a)
            assert projected_quad(scorer, a) == pytest.approx(exact, rel=1e-12)
            assert scorer.score(a) == pytest.approx(exact / (exact + 1.0), rel=1e-12)

    def test_identity_sketch_scores_half(self):
        scorer = identity_scorer(build_sketch(np.eye(4)))
        assert scorer.score(np.eye(4)[0]) == 0.5

    def test_zero_row_scores_zero(self):
        scorer = identity_scorer(build_sketch(np.eye(4)))
        assert scorer.score(np.zeros(4)) == 0.0


class TestProjectedEstimates:
    def test_identity_sketch_band(self):
        # exact value 1; the sign projection keeps it in [0.5, 1.5]
        sk = build_sketch(np.eye(6))
        e1, parts = np.eye(6)[0], frozen(sk)
        hits = sum(0.5 <= projected_quad(jl_build(sk, *parts, 1000, seed=s), e1) <= 1.5 for s in range(1000))
        assert hits >= 990

    def test_median_ratio_near_one(self):
        rng = np.random.default_rng(7)
        sk = build_sketch(rng.standard_normal((30, 6)))
        a = rng.standard_normal(6)
        q, parts = float(a @ pinv(sk.gram).matrix @ a), frozen(sk)
        ratios = [projected_quad(jl_build(sk, *parts, 1000, seed=s), a) / q for s in range(1000)]
        assert 0.9 <= float(np.median(ratios)) <= 1.1

    def test_kernel_branch_exact(self):
        # the projected form is finite off-image; the projector test must
        # still force a full score of 1
        rows = np.zeros((3, 4))
        rows[0, 0] = rows[1, 1] = rows[2, 2] = 1.0
        sk = build_sketch(rows)
        scorer = jl_build(sk, *frozen(sk), 100, seed=3)
        assert scorer.score(np.eye(4)[3]) == 1.0
        on_image = scorer.score(np.eye(4)[0])
        assert on_image < 1.0

    def test_empty_sketch_rejected(self):
        with pytest.raises(EmptySketch):
            jl_build(Sketch(4), *frozen(Sketch(4)), 10, seed=1)


class TestSamplerIntegration:
    def test_needs_n_hint(self):
        with pytest.raises(ValueError):
            ScaledSampler(5, 0.4, seed=1, use_jl=True)

    def test_wrapper_defaults_hint_and_keeps_guarantee(self):
        for s in range(3):
            stream = permute(gen_gaussian(1200, 6, seed=70 + s), seed=80 + s)
            sketch, diag = scaled_sampling(stream, 0.4, seed=90 + s, use_jl=True)
            eps_actual, _ = verify(stream, sketch)
            assert eps_actual <= 0.4

    def test_audit_pairs_track_exact_path(self):
        # the oracle restates the sampler's JL run and pairs every scored
        # row's (projected, exact) score; the projected score lands within
        # half the exact one for ~99% of rows
        fracs = []
        for s in range(5):
            stream = permute(gen_gaussian(2000, 8, seed=50 + s), seed=51 + s)
            sampler = ScaledSampler(8, 0.4, seed=52 + s, use_jl=True, n_hint=2000)
            for i in range(stream.n):
                sampler.step(i, stream.row(i))
            sketch, _ = sampler.finalize()
            kept, _, _, pairs = oracles.block_reference(stream, 0.4, 52 + s, n_hint=2000)
            assert sketch.indices == kept
            assert pairs.shape == (2000 - seed_block_size(8), 2)
            projected, exact = pairs.T
            fracs.append(np.mean(np.abs(projected - exact) <= 0.5 * exact))
        assert float(np.median(fracs)) >= 0.99

    def test_inflation_preserves_overestimate_rate(self):
        # the 1/(1 - distortion) inflation keeps logged scores dominating
        # true leverage at the same empirical rate as the exact path
        for s in (60, 61):
            stream = permute(gen_gaussian(2000, 8, seed=s), seed=s + 1)
            tau = leverage_scores(stream)
            exact = ScaledSampler(8, 0.4, seed=s + 2)
            projected = ScaledSampler(8, 0.4, seed=s + 2, use_jl=True, n_hint=2000)
            for i in range(stream.n):
                exact.step(i, stream.row(i))
                projected.step(i, stream.row(i))
            _, de = exact.finalize()
            _, dj = projected.finalize()
            rate_exact = np.mean(de.scores + 1e-9 >= tau)
            rate_jl = np.mean(dj.scores + 1e-9 >= tau)
            assert abs(rate_exact - rate_jl) <= 0.02

    def test_identity_stream_unaffected(self):
        stream = identity_stream(6, copies=40)
        sketch, _ = scaled_sampling(stream, 0.5, seed=5, use_jl=True)
        eps_actual, _ = verify(stream, sketch)
        assert eps_actual <= 0.5
