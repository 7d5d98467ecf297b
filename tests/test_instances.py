"""Seeded stream generators and the permutation model."""
import math
from collections import Counter

import numpy as np
import pytest

from specstream import (
    DimensionMismatch,
    EmptyStream,
    NonFiniteInput,
    RowStream,
    SpecstreamError,
    SymPsd,
    gen_gaussian,
    gen_kd_multigraph,
    gen_mu_controlled,
    leverage_scores,
    mu,
    permute,
)
from specstream.rows import SparseRows


class TestRowStream:
    def test_dense_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            RowStream(3, np.zeros((4, 2)), {"kind": "test"})
        with pytest.raises(DimensionMismatch):
            RowStream(0, np.zeros((4, 0)), {"kind": "test"})

    @pytest.mark.parametrize("sparse", [True, False])
    def test_non_integer_dimension_refused(self, sparse):
        # sparse rows in d = 2.5 were taken as d = 2, and block() then raised
        # numpy's IndexError; d = 3.0 was taken as 3
        payload = [([0, 2], [1.0, 1.0])] if sparse else np.ones((3, 3))
        for d in (2.5, 3.0, np.float64(3.9)):
            with pytest.raises(DimensionMismatch, match="not an integer"):
                RowStream(d, payload, {"kind": "test"}, sparse=sparse)
        stream = RowStream(np.int64(3), payload, {"kind": "test"}, sparse=sparse)
        assert stream.d == 3 and type(stream.d) is int

    def test_dense_nan_row_rejected(self):
        # Unchecked, this row made run_online raise numpy's LinAlgError and
        # scaled_sampling log a NaN score.
        rows = gen_gaussian(200, 6, seed=1).materialize()
        rows[57, 2] = np.nan
        with pytest.raises(NonFiniteInput):
            RowStream(6, rows, {"kind": "test"})
        assert issubclass(NonFiniteInput, SpecstreamError)

    def test_sparse_inf_value_rejected(self):
        payload = [([0, 2], [1.0, -1.0]), ([1], [np.inf])]
        with pytest.raises(NonFiniteInput):
            RowStream(3, payload, {"kind": "test"}, sparse=True)

    @pytest.mark.parametrize("payload, error", [
        ([([0, 2], [1.0, 1.0]), ([2, 1], [1.0, 1.0])], DimensionMismatch),  # unsorted
        ([([1, 1], [1.0, 1.0])], DimensionMismatch),  # duplicate
        ([([-1, 2], [1.0, 1.0])], DimensionMismatch),  # negative
        ([([0], [1.0]), ([3], [1.0])], DimensionMismatch),  # out of range
        ([([0, 1], [1.0])], DimensionMismatch),  # index/value lengths differ
        ([([0], [1.0]), ([1, 2], [1.0, np.nan])], NonFiniteInput),
        ([([0], [-np.inf]), ([], [])], NonFiniteInput),
        # CSR arrays whose row pointers fall, or stop short of the entries
        (SparseRows(np.array([0, 2, 1, 2]), np.array([0, 1]), np.array([1.0, 1.0])), DimensionMismatch),
        (SparseRows(np.array([0, 1]), np.array([0, 1]), np.array([1.0, 1.0])), DimensionMismatch),
        (SparseRows(np.array([], dtype=np.int64), np.array([0]), np.array([1.0])), DimensionMismatch),
    ])
    def test_malformed_sparse_payload_rejected(self, payload, error):
        with pytest.raises(error):
            RowStream(3, payload, {"kind": "test"}, sparse=True)

    def test_sparse_materialize_matches_gram(self):
        payload = [([0, 2], [1.0, -1.0]), ([1], [2.0])]
        s = RowStream(3, payload, {"kind": "test"}, sparse=True)
        dense = s.materialize()
        assert dense.shape == (2, 3)
        assert np.array_equal(dense, [[1.0, 0.0, -1.0], [0.0, 2.0, 0.0]])
        assert np.allclose(s.gram_matrix(), dense.T @ dense)
        assert len(s) == 2

    @pytest.mark.parametrize("build", [
        lambda: gen_mu_controlled(6, 4, 10.0),
        lambda: permute(gen_kd_multigraph(6, 5), seed=3),
        lambda: RowStream(4, [([0, 3], [0.0, -0.0]), ([], []), ([1, 2], [2.5, 0.0])],
                          {"kind": "test"}, sparse=True),
        # a row ending on column d - 1 followed by one starting at 0, and
        # empty rows first, inside and last
        lambda: RowStream(4, [([], []), ([1, 3], [1.0, 2.0]), ([0, 1], [3.0, 0.0]), ([], []),
                              ([3], [-0.0]), ([0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0]), ([], [])],
                          {"kind": "test"}, sparse=True),
        lambda: permute(RowStream(4, [([], []), ([1, 3], [1.0, 0.0]), ([0], [-0.0]), ([], [])],
                                  {"kind": "test"}, sparse=True), seed=2),
        lambda: RowStream(3, [], {"kind": "test"}, sparse=True),
    ])
    def test_sparse_materialize_and_gram_match_row_loops(self, build):
        from specstream import rows as rowops

        s = build()
        want = np.zeros((s.n, s.d))
        gram = np.zeros((s.d, s.d))
        for i, (idx, val) in enumerate(s.iter_rows()):
            want[i, idx] = val
            rowops.add_outer(gram, (idx, val), 1.0)
        assert s.materialize().tobytes() == want.tobytes()
        assert np.linalg.norm(s.gram_matrix() - gram) <= 1e-12 * np.linalg.norm(gram)
        if s.meta["kind"] == "permuted":  # integer entries: the sums are exact
            assert np.array_equal(s.gram_matrix(), gram)
        # every split, empty ranges included, gives the rows dense
        for lo in range(s.n + 1):
            for hi in range(lo, s.n + 1):
                assert s.block(lo, hi).tobytes() == want[lo:hi].tobytes()


class TestKdMultigraph:
    def test_triangle_laplacian(self):
        s = gen_kd_multigraph(3, 1)
        assert s.n == 3
        want = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        assert np.array_equal(s.gram_matrix(), want)
        assert np.array_equal(gen_kd_multigraph(3, 2).gram_matrix(), 2 * want)
        assert gen_kd_multigraph(3, 2).n == 6

    def test_gram_closed_form(self):
        for d in (2, 5, 7, 10):
            s = gen_kd_multigraph(d, 3)
            assert s.n == 3 * d * (d - 1) // 2
            want = 3.0 * (d * np.eye(d) - np.ones((d, d)))
            assert np.allclose(s.gram_matrix(), want, atol=1e-12)

    def test_rows_are_canonical_incidence(self):
        s = gen_kd_multigraph(4, 2)
        edges = []
        for idx, val in s.iter_rows():
            assert len(idx) == 2 and idx[0] < idx[1]
            assert val[0] + val[1] == 0.0 and val[0] == 1.0
            edges.append((int(idx[0]), int(idx[1])))
        # copies consecutive, edges in lexicographic order
        assert edges == sorted(edges)
        assert edges[0::2] == edges[1::2]

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            gen_kd_multigraph(1, 1)
        with pytest.raises(DimensionMismatch):
            gen_kd_multigraph(3, 0)

    @pytest.mark.parametrize("args", [(4, 2.5), (4.0, 2), (np.float64(4.0), 2)])
    def test_non_integer_argument_refused(self, args):
        # gen_kd_multigraph(4, 2.5) raised numpy's TypeError
        with pytest.raises(DimensionMismatch):
            gen_kd_multigraph(*args)
        assert gen_kd_multigraph(np.int64(4), np.int32(2)).meta == {"kind": "kd", "d": 4, "copies": 2}

    def test_random_prefix_edge_counts_concentrate(self):
        # half-length prefixes of a permuted multigraph hold every edge
        # count within (1 +/- 1/2) of the mean on >= 95% of seeds
        base = gen_kd_multigraph(8, 64)
        D = base.n // 2
        lo, hi = 0.5 * D / 28, 1.5 * D / 28
        ok = 0
        for s in range(100):
            cnt = Counter()
            p = permute(base, seed=s)
            for i in range(D):
                idx, _ = p.row(i)
                cnt[(int(idx[0]), int(idx[1]))] += 1
            ok += len(cnt) == 28 and all(lo <= c <= hi for c in cnt.values())
        assert ok >= 95


class TestGaussian:
    def test_deterministic(self):
        a = gen_gaussian(50, 4, seed=9)
        b = gen_gaussian(50, 4, seed=9)
        assert np.array_equal(a.materialize(), b.materialize())
        assert not np.array_equal(a.materialize(), gen_gaussian(50, 4, seed=10).materialize())

    def test_square_is_full_rank(self):
        for s in range(5):
            g = SymPsd(gen_gaussian(6, 6, seed=s).gram_matrix())
            assert g.rank == 6

    def test_leverage_mass_is_dimension(self):
        total = leverage_scores(gen_gaussian(1000, 10, seed=11)).sum()
        assert total == pytest.approx(10.0, abs=1e-6)

    def test_validation(self):
        with pytest.raises(EmptyStream):
            gen_gaussian(0, 4, seed=1)
        with pytest.raises(EmptyStream):
            gen_gaussian(3, 0, seed=1)

    @pytest.mark.parametrize("args", [(2.5, 3, 0), (4, 3.0, 0), (4, 3, 1.5), (4, 3, np.float64(2.0)), (4, 3, -1)])
    def test_non_integer_argument_or_negative_seed_refused(self, args):
        # numpy raised its own TypeError (non-integers) or ValueError (seed -1)
        with pytest.raises(DimensionMismatch):
            gen_gaussian(*args)
        same = gen_gaussian(np.int64(4), np.int32(3), np.uint8(2))
        assert np.array_equal(same.materialize(), gen_gaussian(4, 3, 2).materialize())
        assert same.meta["seed"] == 2 and type(same.meta["seed"]) is int


class TestMuControlled:
    def test_single_level_is_isotropic(self):
        s = gen_mu_controlled(5, 1, 2.0)
        assert s.meta["mu"] == 1.0
        assert mu(s) == 1.0

    def test_closed_form(self):
        s = gen_mu_controlled(4, 3, 10.0)
        assert s.n == 12
        assert s.meta["mu"] == 1e4
        assert abs(mu(s) - 1e4) / 1e4 <= 1e-6

    def test_measured_matches_meta_across_settings(self):
        for d, levels, gamma in ((3, 2, 2.0), (6, 4, 3.0), (2, 5, 1.5)):
            s = gen_mu_controlled(d, levels, gamma)
            want = gamma ** (2 * (levels - 1))
            assert s.meta["mu"] == pytest.approx(want, rel=1e-12)
            assert mu(s) == pytest.approx(want, rel=1e-6)

    def test_rows_are_single_coordinate(self):
        for idx, val in gen_mu_controlled(3, 2, 2.0).iter_rows():
            assert len(idx) == 1 and val[0] > 0.0

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            gen_mu_controlled(4, 1, 1.0)
        with pytest.raises(DimensionMismatch):
            gen_mu_controlled(4, 0, 2.0)

    @pytest.mark.parametrize("args", [(3, 2.5, 2.0), (2.5, 3, 2.0), (3, np.float64(2.0), 2.0)])
    def test_non_integer_argument_refused(self, args):
        # a non-integer levels raised numpy's TypeError
        with pytest.raises(DimensionMismatch):
            gen_mu_controlled(*args)

    def test_overflowing_or_non_finite_gamma_refused(self):
        # gamma^(2(levels-1)) is meta["mu"] and every coordinate's Gram mass:
        # a setting that overflows it, or a gamma that is not finite, is a
        # typed error, not Python's OverflowError
        for levels, gamma in ((160, 10.0), (200, 10.0), (1, math.inf), (3, math.inf), (3, math.nan)):
            with pytest.raises(DimensionMismatch):
                gen_mu_controlled(3, levels, gamma)
        # the largest finite setting still builds
        assert gen_mu_controlled(3, 155, 10.0).meta["mu"] == 10.0 ** 308


class TestPermute:
    def test_single_row_unchanged(self):
        s = RowStream(2, np.array([[1.0, 2.0]]), {"kind": "test"})
        p = permute(s, seed=1)
        assert np.array_equal(p.materialize(), s.materialize())

    @pytest.mark.parametrize("seed", [1.5, np.float64(1.0), -1])
    def test_non_integer_or_negative_seed_refused(self, seed):
        # numpy raised SeedSequence's TypeError, or a ValueError for -1
        with pytest.raises(DimensionMismatch):
            permute(gen_gaussian(30, 3, seed=12), seed)

    def test_deterministic_and_meta(self):
        s = gen_gaussian(30, 3, seed=12)
        a, b = permute(s, seed=7), permute(s, seed=7)
        assert np.array_equal(a.materialize(), b.materialize())
        assert a.meta["kind"] == "permuted"
        assert a.meta["perm_seed"] == 7
        assert a.meta["base"] == s.meta

    def test_gram_invariance(self):
        dense = gen_gaussian(40, 5, seed=13)
        assert np.allclose(permute(dense, seed=2).gram_matrix(), dense.gram_matrix(), atol=1e-12)
        sparse = gen_kd_multigraph(5, 2)
        assert np.allclose(permute(sparse, seed=3).gram_matrix(), sparse.gram_matrix(), atol=1e-12)
        assert permute(sparse, seed=3).is_sparse

    def test_sparse_rows_reused_in_permuted_order(self):
        # the second stream has explicit zeros and empty rows, kept in place
        zeros = [([], []), ([0, 4], [0.0, -0.0]), ([2], [1.5]), ([], []), ([1, 2, 3], [1.0, 0.0, -2.0])]
        for s in (gen_kd_multigraph(5, 3), RowStream(5, zeros * 4, {"kind": "test"}, sparse=True)):
            p = permute(s, seed=5)
            order = np.random.default_rng(5).permutation(s.n)
            assert p.n == s.n and p.is_sparse
            for j, i in enumerate(order):
                (idx, val), (want_idx, want_val) = p.row(j), s.row(int(i))
                assert idx.tobytes() == want_idx.tobytes() and val.tobytes() == want_val.tobytes()
                assert idx.dtype == np.int64 and val.dtype == np.float64

    def test_rows_form_same_multiset(self):
        s = gen_gaussian(25, 4, seed=14)
        p = permute(s, seed=4)
        a = np.sort(s.materialize().round(12), axis=0)
        b = np.sort(p.materialize().round(12), axis=0)
        assert np.array_equal(a, b)

    def test_all_orders_equally_likely(self):
        # 4 rows, 24 orders, 10^4 seeds: every order frequency within a
        # 3 sigma multinomial band around 1/24
        s = RowStream(1, np.arange(4.0).reshape(4, 1), {"kind": "test"})
        counts = Counter()
        for seed in range(10 ** 4):
            counts[tuple(permute(s, seed=seed).materialize().ravel())] += 1
        assert len(counts) == 24
        mean = 10 ** 4 / 24
        sigma = (10 ** 4 * (1 / 24) * (23 / 24)) ** 0.5
        for c in counts.values():
            assert abs(c - mean) <= 3 * sigma
