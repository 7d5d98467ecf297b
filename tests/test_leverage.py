"""Leverage scores, relative scores and the uniform-sampling overestimate."""
import math

import numpy as np
import pytest

from specstream import (
    EmptyStream,
    SymPsd,
    gen_kd_multigraph,
    leverage_scores,
    permute,
    pinv,
    relative_leverage,
    uniform_overestimate,
)
from specstream import rows as rowops

from conftest import make_psd, make_stream, identity_stream
import oracles


class TestLeverageScores:
    def test_identity_rows(self):
        sv = leverage_scores(identity_stream(4))
        assert np.allclose(sv.scores, 1.0, atol=1e-12)
        assert sv.kind == "exact"
        assert sv.source_dims == (4, 4)

    def test_two_stacked_identities(self):
        sv = leverage_scores(identity_stream(4, copies=2))
        assert np.allclose(sv.scores, 0.5, atol=1e-12)

    def test_path_graph_rank_equals_row_count(self):
        # two incidence rows, rank 2, so both scores are exactly 1
        rows = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        sv = leverage_scores(make_stream(rows))
        assert np.allclose(sv.scores, 1.0, atol=1e-12)

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
            assert np.all(sv.scores >= 0.0)
            assert np.all(sv.scores <= 1.0)
            rank = np.linalg.matrix_rank(rows)
            assert abs(sv.total - rank) <= 1e-6

    def test_matches_definitional_oracle(self):
        rng = np.random.default_rng(67)
        for trial in range(40):
            d = int(rng.integers(2, 9))
            rows = rng.standard_normal((3 * d, d))
            got = leverage_scores(make_stream(rows)).scores
            assert np.allclose(got, oracles.exact_leverage(rows), atol=1e-10)

    def test_accepts_plain_arrays(self):
        rows = np.random.default_rng(1).standard_normal((6, 3))
        got = leverage_scores(rows).scores
        assert np.allclose(got, oracles.exact_leverage(rows), atol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(EmptyStream):
            leverage_scores(np.zeros((0, 3)))


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
        p = pinv(stream.gram())
        rows = [stream.row(i) for i in range(stream.n)]
        worst = max(rowops.kernel_residual(p.projector, r) / rowops.norm(r) for r in rows)
        assert worst < 1e-12
        assert sum(relative_leverage(p, r) == 1.0 for r in rows) == 0


class TestUniformOverestimate:
    def test_full_sample_equals_exact(self):
        rng = np.random.default_rng(89)
        rows = rng.standard_normal((20, 5))
        tau = oracles.exact_leverage(rows)
        p = pinv(SymPsd(rows.T @ rows))
        for i in range(20):
            assert uniform_overestimate(p, rows[i]) == pytest.approx(min(tau[i], 1.0), abs=1e-10)

    def test_zero_sample_gives_one(self):
        p = pinv(SymPsd(np.zeros((4, 4))))
        assert uniform_overestimate(p, np.ones(4)) == 1.0

    def test_capped_at_one(self):
        p = pinv(SymPsd(np.eye(2) * 1e-8))
        assert uniform_overestimate(p, np.array([1.0, 1.0])) == 1.0

    def test_sum_bound_under_uniform_subsampling(self):
        # sum of overestimates stays within C n d / m for C = 8
        n, d = 512, 8
        for m in (32, 64):
            violations = 0
            for s in range(50):
                rng = np.random.default_rng(1000 * m + s)
                rows = rng.standard_normal((n, d))
                sub = rows[rng.choice(n, size=m, replace=False)]
                p = pinv(SymPsd(sub.T @ sub))
                total = sum(uniform_overestimate(p, rows[i]) for i in range(n))
                if total > 8.0 * n * d / m:
                    violations += 1
            assert violations == 0
