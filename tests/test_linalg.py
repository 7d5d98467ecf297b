"""Linear-algebra kernel against independent numpy.linalg oracles."""
import math

import numpy as np
import pytest

from specstream import (
    DegenerateUpdate,
    DimensionMismatch,
    NotPsd,
    NotSymmetric,
    PInv,
    PreconditionViolation,
    SymPsd,
    ZeroMatrix,
    approx_factor,
    default_rank_tol,
    min_nonzero_eig,
    pinv,
    pinv_rank1_update,
    pseudo_det,
)
from specstream.linalg import on_image, pinv_quad_form

from conftest import make_psd
import oracles


def random_cases(count, seed, allow_full_rank=True):
    """Stream of (matrix, d, rank) with d in 2..12, mixing ranks."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(2, 13))
        hi = d + 1 if allow_full_rank else d
        r = int(rng.integers(1, hi))
        scale = 10.0 ** rng.integers(-2, 3)
        yield make_psd(d, r, rng.integers(1 << 30), scale=scale), d, r


class TestSymPsd:
    def test_rejects_nonsquare_and_empty(self):
        with pytest.raises(DimensionMismatch):
            SymPsd(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            SymPsd(np.zeros((0, 0)))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            SymPsd([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_asymmetric_with_huge_entries(self):
        # unscaled, both Frobenius norms overflow to inf and the check passes
        with pytest.raises(NotSymmetric):
            SymPsd([[1e200, 1e200], [0.0, 1e200]])
        assert SymPsd([[1e300, 1e299], [1e299, 1e300]]).rank == 2

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            SymPsd(np.diag([1.0, -1.0]))

    def test_clamps_roundoff_negatives(self):
        # eigenvalue -1e-18 vs lambda_max 1 sits inside the PSD floor
        g = np.array([[1.0, 1.0], [1.0, 1.0]]) + np.diag([0.0, -1e-18])
        s = SymPsd(g)
        assert s.rank == 1
        assert s.eigenvalues[-1] == 0.0

    def test_rank_and_support(self):
        for m, d, r in random_cases(60, seed=42):
            s = SymPsd(m)
            assert s.rank == min(r, d)
            assert int(np.count_nonzero(s.support())) == s.rank
            # descending order with matching eigenvectors
            assert np.all(np.diff(s.eigenvalues) <= 0)
            recon = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.T
            assert oracles.rel_err(recon, m) < 1e-10

    def test_default_rank_tol(self):
        assert default_rank_tol(8) == 8 * 2.0 ** -40


class TestPinv:
    def test_identity(self):
        p = pinv(SymPsd(np.eye(4)))
        assert np.allclose(p.matrix, np.eye(4), atol=1e-14)
        assert np.allclose(p.projector, np.eye(4), atol=1e-14)
        assert p.source_rank == 4

    def test_diagonal_reciprocal_on_support(self):
        p = pinv(SymPsd(np.diag([2.0, 0.0])))
        assert np.allclose(p.matrix, np.diag([0.5, 0.0]), atol=1e-15)

    def test_zero_matrix(self):
        p = pinv(SymPsd(np.zeros((3, 3))))
        assert np.all(p.matrix == 0.0)
        assert np.all(p.projector == 0.0)
        assert p.source_rank == 0

    def test_matches_numpy_oracle(self):
        for m, d, r in random_cases(200, seed=7):
            p = pinv(SymPsd(m))
            want = np.linalg.pinv(m, hermitian=True)
            assert oracles.rel_err(p.matrix, want) < 1e-9

    def test_penrose_identities_500(self):
        # library invariant: 500 random PSD inputs, relative error <= 1e-8
        worst = 0.0
        for m, d, r in random_cases(500, seed=11):
            p = pinv(SymPsd(m))
            worst = max(worst, oracles.penrose_residual(m, p.matrix))
        assert worst <= 1e-8

    def test_projector_idempotent_symmetric(self):
        for m, d, r in random_cases(50, seed=13):
            pr = pinv(SymPsd(m)).projector
            assert oracles.rel_err(pr @ pr, pr) < 1e-10
            assert np.linalg.norm(pr - pr.T) < 1e-10

    def test_quad_form_matches_matrix(self):
        rng = np.random.default_rng(5)
        for m, d, r in random_cases(50, seed=17):
            s = SymPsd(m)
            p = pinv(s)
            a = rng.standard_normal(d)
            assert math.isclose(pinv_quad_form(s, a), float(a @ p.matrix @ a),
                                rel_tol=1e-10, abs_tol=1e-12)
        assert pinv_quad_form(SymPsd(np.zeros((2, 2))), np.ones(2)) == 0.0


class TestRank1Update:
    def test_identity_example(self):
        p = pinv(SymPsd(np.eye(2)))
        q = pinv_rank1_update(p, np.array([1.0, 0.0]), 1.0)
        assert np.allclose(q.matrix, np.diag([0.5, 1.0]), atol=1e-14)

    def test_subtraction_on_support(self):
        p = pinv(SymPsd(np.diag([3.0, 0.0])))
        q = pinv_rank1_update(p, np.array([1.0, 0.0]), -1.0)
        assert np.allclose(q.matrix, np.diag([0.5, 0.0]), atol=1e-14)

    def test_single_update_matches_recompute(self):
        rng = np.random.default_rng(23)
        for m, d, r in random_cases(200, seed=23):
            s = SymPsd(m)
            p = pinv(s)
            u = p.projector @ rng.standard_normal(d)
            got = pinv_rank1_update(p, u, 1.0)
            want = np.linalg.pinv(m + np.outer(u, u), hermitian=True)
            assert oracles.rel_err(got.matrix, want) < 1e-8

    def test_chained_updates_match_recompute(self):
        # 20-step chains, update vectors projected into the running image
        rng = np.random.default_rng(29)
        for trial in range(25):
            d = int(rng.integers(3, 10))
            m = make_psd(d, int(rng.integers(1, d + 1)), rng.integers(1 << 30))
            p = pinv(SymPsd(m))
            for _ in range(20):
                u = p.projector @ rng.standard_normal(d)
                k = float(rng.uniform(0.2, 1.5))
                p = pinv_rank1_update(p, u, k)
                m = m + k * np.outer(u, u)
            want = np.linalg.pinv(m, hermitian=True)
            assert oracles.rel_err(p.matrix, want) < 1e-7

    def test_rejects_kernel_component(self):
        p = pinv(SymPsd(np.diag([1.0, 0.0])))
        with pytest.raises(PreconditionViolation):
            pinv_rank1_update(p, np.array([0.5, 1.0]), 1.0)

    def test_degenerate_denominator(self):
        # k = -1/(u' p u) makes the Sherman-Morrison denominator vanish
        p = pinv(SymPsd(np.eye(2)))
        with pytest.raises(DegenerateUpdate):
            pinv_rank1_update(p, np.array([1.0, 0.0]), -1.0)


class TestPseudoDet:
    def test_zero_matrix_is_one(self):
        assert pseudo_det(SymPsd(np.zeros((3, 3)))) == 1.0

    def test_diagonal_example(self):
        assert math.isclose(pseudo_det(SymPsd(np.diag([2.0, 3.0, 0.0]))), 6.0,
                            rel_tol=1e-12)

    def test_rank1_update_lemma(self):
        # Det(A + uu') = Det(A) (1 + u' A+ u) for u in the image
        rng = np.random.default_rng(31)
        for m, d, r in random_cases(200, seed=31):
            s = SymPsd(m)
            p = pinv(s)
            u = p.projector @ rng.standard_normal(d)
            lhs = pseudo_det(SymPsd(m + np.outer(u, u)))
            rhs = pseudo_det(s) * (1.0 + float(u @ p.matrix @ u))
            assert math.isclose(lhs, rhs, rel_tol=1e-8)

    def test_rank_growth_inequality(self):
        # Det(A + uu') >= lambda_min_nz(A + uu') Det(A) when u leaves the image
        rng = np.random.default_rng(37)
        for _ in range(200):
            d = int(rng.integers(2, 13))
            r = int(rng.integers(1, d))
            m = make_psd(d, r, rng.integers(1 << 30))
            u = rng.standard_normal(d)
            grown = SymPsd(m + np.outer(u, u))
            lhs = pseudo_det(grown)
            rhs = min_nonzero_eig(grown) * pseudo_det(SymPsd(m))
            assert lhs >= rhs * (1.0 - 1e-9)

    def test_delta_limit_oracle(self):
        # Det(A) = lim det(A + delta I) / delta^(d-r), probed at a small delta
        rng = np.random.default_rng(41)
        for _ in range(50):
            d = int(rng.integers(2, 10))
            r = int(rng.integers(1, d + 1))
            m = make_psd(d, r, rng.integers(1 << 30))
            s = SymPsd(m)
            delta = 1e-6 * min_nonzero_eig(s)
            probe = np.linalg.det(m + delta * np.eye(d)) / delta ** (d - s.rank)
            assert math.isclose(pseudo_det(s), probe, rel_tol=1e-4)

    def test_overflow_flagged(self):
        s = SymPsd(np.diag([1e200, 1e200, 1e200]))
        with pytest.raises(OverflowError):
            pseudo_det(s)


class TestOrderingLemmas:
    def test_pinv_ordering_on_image(self):
        # A <= B implies x' B+ x <= x' A+ x for x in Im(A)
        rng = np.random.default_rng(43)
        for _ in range(200):
            d = int(rng.integers(2, 13))
            a = make_psd(d, int(rng.integers(1, d + 1)), rng.integers(1 << 30))
            b = a + make_psd(d, int(rng.integers(1, d + 1)), rng.integers(1 << 30))
            pa = pinv(SymPsd(a))
            pb = pinv(SymPsd(b))
            x = pa.projector @ rng.standard_normal(d)
            assert float(x @ pb.matrix @ x) <= float(x @ pa.matrix @ x) + 1e-9

    def test_eigenvalue_monotonicity(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            d = int(rng.integers(2, 13))
            a = make_psd(d, int(rng.integers(1, d + 1)), rng.integers(1 << 30))
            b = a + make_psd(d, int(rng.integers(1, d + 1)), rng.integers(1 << 30))
            wa = np.linalg.eigvalsh(a)
            wb = np.linalg.eigvalsh(b)
            assert np.all(wb >= wa - 1e-9 * max(wb[-1], 1.0))


class TestKernelOrthogonal:
    """on_image: the kernel test behind every score and rank-one update."""

    def test_full_rank_accepts_everything(self):
        p = pinv(SymPsd(np.eye(3)))
        assert on_image(p, np.array([1.0, -2.0, 0.5]))

    def test_kernel_vector_rejected(self):
        p = pinv(SymPsd(np.diag([1.0, 0.0])))
        assert not on_image(p, np.array([0.0, 1.0]))

    def test_zero_vector_accepted(self):
        p = pinv(SymPsd(np.diag([1.0, 0.0])))
        assert on_image(p, np.zeros(2))

    def test_near_membership_within_tolerance(self):
        rng = np.random.default_rng(53)
        m = make_psd(6, 3, 99)
        p = pinv(SymPsd(m))
        a = p.projector @ rng.standard_normal(6)
        noisy = a + 1e-12 * rng.standard_normal(6)
        assert on_image(p, noisy)

    def test_shape_checked(self):
        p = pinv(SymPsd(np.eye(3)))
        with pytest.raises(DimensionMismatch):
            pinv_rank1_update(p, np.ones(4), 1.0)


class TestMinNonzeroEig:
    def test_examples(self):
        assert min_nonzero_eig(SymPsd(np.diag([5.0, 2.0, 0.0]))) == pytest.approx(2.0, rel=1e-12)
        assert min_nonzero_eig(SymPsd(np.eye(7))) == pytest.approx(1.0, rel=1e-12)

    def test_k3_laplacian(self):
        lap = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        assert min_nonzero_eig(SymPsd(lap)) == pytest.approx(3.0, rel=1e-12)

    def test_zero_matrix_raises(self):
        with pytest.raises(ZeroMatrix):
            min_nonzero_eig(SymPsd(np.zeros((2, 2))))


class TestApproxFactor:
    def test_self_is_zero(self):
        s = SymPsd(make_psd(5, 5, 3))
        assert approx_factor(s, s) < 1e-12

    def test_uniform_scaling(self):
        s = SymPsd(make_psd(5, 5, 3))
        t = SymPsd(1.1 * s.entries)
        assert approx_factor(s, t) == pytest.approx(0.1, abs=1e-12)
        t2 = SymPsd(1.44 * s.entries)
        assert approx_factor(s, t2) == pytest.approx(0.44, abs=1e-12)

    def test_rank_loss_reads_one(self):
        ref = SymPsd(np.eye(3))
        test = SymPsd(np.diag([1.0, 1.0, 0.0]))
        assert approx_factor(ref, test) == pytest.approx(1.0, abs=1e-12)

    def test_kernel_mass_reads_inf(self):
        ref = SymPsd(np.diag([1.0, 0.0]))
        test = SymPsd(np.eye(2))
        assert approx_factor(ref, test) == math.inf

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            approx_factor(SymPsd(np.eye(2)), SymPsd(np.eye(3)))

    def test_matches_whitened_oracle(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            d = int(rng.integers(2, 10))
            rows = rng.standard_normal((3 * d, d))
            scales = rng.uniform(0.7, 1.3, size=3 * d)
            test_gram = (rows * scales[:, None]).T @ (rows * scales[:, None])
            got = approx_factor(SymPsd(rows.T @ rows), SymPsd(test_gram))
            want = oracles.spectral_eps(rows, test_gram)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)

    def test_leverage_sampling_template(self):
        # Rows kept with p = min(theta tau, 1), weight 1/sqrt(p), at the
        # library's default rate theta = 3 eps^-2 ln d; the bare eps^-2
        # rate fails this check at any scale.
        eps, d, n = 0.5, 6, 300
        theta = 3.0 * eps ** -2 * math.log(d)
        fails = 0
        for s in range(100):
            rng = np.random.default_rng(10_000 + s)
            rows = rng.standard_normal((n, d))
            tau = oracles.exact_leverage(rows)
            p = np.minimum(theta * tau, 1.0)
            keep = rng.random(n) < p
            kept = rows[keep] / np.sqrt(p[keep])[:, None]
            got = approx_factor(SymPsd(rows.T @ rows), SymPsd(kept.T @ kept))
            if got > eps:
                fails += 1
        assert fails == 0
