"""Leverage scores, relative scores, and relative scores as uniform-sampling overestimates."""
import math

import numpy as np
import pytest

from specstream import (
    DimensionMismatch,
    EmptyStream,
    SymPsd,
    gen_kd_multigraph,
    leverage_scores,
    permute,
    pinv,
    relative_leverage,
)
from specstream import rows as rowops

from conftest import make_psd, make_stream, identity_stream
import oracles


class TestLeverageScores:
    def test_identity_rows(self):
        sv = leverage_scores(identity_stream(4))
        assert np.allclose(sv, 1.0, atol=1e-12)

    def test_two_stacked_identities(self):
        sv = leverage_scores(identity_stream(4, copies=2))
        assert np.allclose(sv, 0.5, atol=1e-12)

    def test_path_graph_rank_equals_row_count(self):
        # two incidence rows, rank 2, so both scores are exactly 1
        rows = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        sv = leverage_scores(make_stream(rows))
        assert np.allclose(sv, 1.0, atol=1e-12)

    def test_axioms_on_random_matrices(self):
        # bounds and the rank sum, full-rank and rank-deficient alike
        rng = np.random.default_rng(61)
        for trial in range(100):
            d = int(rng.integers(2, 11))
            n = int(rng.integers(d, 4 * d + 1))
            r = int(rng.integers(1, d + 1))
            basis = rng.standard_normal((r, d))
            coeffs = rng.standard_normal((n, r))
            rows = coeffs @ basis
            sv = leverage_scores(make_stream(rows))
            assert np.all(sv >= 0.0)
            assert np.all(sv <= 1.0)
            rank = np.linalg.matrix_rank(rows)
            assert abs(sv.sum() - rank) <= 1e-6

    def test_matches_definitional_oracle(self):
        rng = np.random.default_rng(67)
        for trial in range(40):
            d = int(rng.integers(2, 9))
            rows = rng.standard_normal((3 * d, d))
            got = leverage_scores(make_stream(rows))
            assert np.allclose(got, oracles.exact_leverage(rows), atol=1e-10)

    def test_accepts_plain_arrays(self):
        rows = np.random.default_rng(1).standard_normal((6, 3))
        got = leverage_scores(rows)
        assert np.allclose(got, oracles.exact_leverage(rows), atol=1e-10)

    def test_zero_stream_and_zero_rows_score_exactly_zero(self):
        assert np.array_equal(leverage_scores(np.zeros((5, 3))), np.zeros(5))
        rows = np.random.default_rng(3).standard_normal((8, 4))
        rows[[0, 5]] = 0.0
        sv = leverage_scores(rows)
        assert sv[0] == 0.0 and sv[5] == 0.0
        assert np.allclose(sv, oracles.exact_leverage(rows), atol=1e-10)

    def test_rank_deficient_kd_stream(self):
        # a K_8 multigraph's incidence rows have rank 7; the whitened
        # product drops the kernel direction
        stream = permute(gen_kd_multigraph(8, 64), seed=5)
        sv = leverage_scores(stream)
        assert abs(sv.sum() - 7.0) <= 1e-9
        assert np.allclose(sv, oracles.exact_leverage(stream.materialize()), rtol=0.0, atol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(EmptyStream):
            leverage_scores(np.zeros((0, 3)))
        with pytest.raises(DimensionMismatch):
            leverage_scores(np.ones(3))


class TestRelativeLeverage:
    def test_zero_matrix_gives_one(self):
        p = pinv(SymPsd(np.zeros((3, 3))))
        assert relative_leverage(p, np.array([0.5, 0.0, 0.0])) == 1.0

    def test_identity_axis_vector(self):
        p = pinv(SymPsd(np.eye(3)))
        assert relative_leverage(p, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.5, abs=1e-12)

    def test_matches_stacked_oracle(self):
        # closed form q/(q+1) vs appending the row and recomputing the pinv
        rng = np.random.default_rng(71)
        for trial in range(200):
            d = int(rng.integers(2, 9))
            b = rng.standard_normal((5, d))
            a = b.T @ rng.standard_normal(5)  # stays inside the row span
            p = pinv(SymPsd(b.T @ b))
            got = relative_leverage(p, a)
            want = oracles.stacked_relative_leverage(b, a)
            assert math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-12)

    def test_off_image_is_exactly_one(self):
        b = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        p = pinv(SymPsd(b.T @ b))
        assert relative_leverage(p, np.array([0.0, 0.0, 2.0])) == 1.0

    def test_overestimates_exact_scores(self):
        # scoring against a submatrix that excludes the row dominates the
        # true score; with the row included the appended copy halves it
        rng = np.random.default_rng(73)
        for trial in range(100):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(d + 2, 3 * d + 2))
            rows = rng.standard_normal((n, d))
            tau = oracles.exact_leverage(rows)
            m = int(rng.integers(1, n))
            chosen = set(rng.choice(n, size=m, replace=False).tolist())
            sub = rows[sorted(chosen)]
            p = pinv(SymPsd(sub.T @ sub))
            for i in range(n):
                if i not in chosen:
                    assert relative_leverage(p, rows[i]) >= tau[i] - 1e-9

    def test_monotone_in_the_base_matrix(self):
        # growing B never increases the relative score of a fixed row
        rng = np.random.default_rng(79)
        for trial in range(100):
            d = int(rng.integers(2, 9))
            rows = rng.standard_normal((3 * d, d))
            a = rng.standard_normal(d)
            small = pinv(SymPsd(rows[: 2 * d].T @ rows[: 2 * d]))
            big = pinv(SymPsd(rows.T @ rows))
            assert relative_leverage(big, a) <= relative_leverage(small, a) + 1e-9

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(83)
        for trial in range(50):
            d = int(rng.integers(2, 7))
            p = pinv(SymPsd(make_psd(d, d, rng.integers(1 << 30), scale=1e-6)))
            val = relative_leverage(p, rng.standard_normal(d) * 1e3)
            assert 0.0 <= val <= 1.0


    def test_on_image_sparse_rows_never_score_one(self):
        # Every row of a kd stream lies on the image of the stream's Gram.
        # The sparse residual must resolve that at rounding level, not at
        # the ~1.5e-8 relative floor of an expanded-square residual, which
        # sits above ortho_tol and turned on-image rows into new directions.
        stream = permute(gen_kd_multigraph(8, 64), seed=3)
        p = pinv(SymPsd(stream.gram_matrix()))
        rows = [oracles.dense_row(stream.row(i), stream.d) for i in range(stream.n)]
        worst = max(rowops.kernel_residual(p.projector, r) / np.linalg.norm(r) for r in rows)
        assert worst < 1e-12
        assert sum(relative_leverage(p, r) == 1.0 for r in rows) == 0


class TestUniformOverestimate:
    """Relative scores against a uniformly sampled submatrix overestimate leverage."""

    def test_full_sample_equals_exact(self):
        # against every other row, a row's relative score is its exact leverage
        rng = np.random.default_rng(89)
        rows = rng.standard_normal((20, 5))
        tau = oracles.exact_leverage(rows)
        for i in range(20):
            rest = np.delete(rows, i, axis=0)
            p = pinv(SymPsd(rest.T @ rest))
            assert relative_leverage(p, rows[i]) == pytest.approx(tau[i], abs=1e-10)

    def test_zero_sample_gives_one(self):
        p = pinv(SymPsd(np.zeros((4, 4))))
        assert relative_leverage(p, np.ones(4)) == 1.0

    def test_capped_at_one(self):
        p = pinv(SymPsd(np.eye(2) * 1e-8))
        score = relative_leverage(p, np.array([1.0, 1.0]))
        assert score <= 1.0 and score == pytest.approx(1.0, abs=1e-7)

    def test_sum_bound_under_uniform_subsampling(self):
        # sum of relative scores against m uniform rows stays within C n d / m for C = 8
        n, d = 512, 8
        for m in (32, 64):
            violations = 0
            for s in range(50):
                rng = np.random.default_rng(1000 * m + s)
                rows = rng.standard_normal((n, d))
                sub = rows[rng.choice(n, size=m, replace=False)]
                p = pinv(SymPsd(sub.T @ sub))
                total = sum(relative_leverage(p, rows[i]) for i in range(n))
                if total > 8.0 * n * d / m:
                    violations += 1
            assert violations == 0
