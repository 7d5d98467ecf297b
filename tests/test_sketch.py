"""Row payloads, the weighted sketch container, and counter-based randomness."""
import numpy as np
import pytest

from specstream import DimensionMismatch, Sketch
from specstream import rows as rowops
from specstream.randomness import CHUNK, IndexedUniforms, derive_seed


class TestRowOps:
    def test_sparse_row_validation(self):
        with pytest.raises(DimensionMismatch):
            rowops.sparse_row([2, 1], [1.0, 1.0], 4)  # indices must increase
        with pytest.raises(DimensionMismatch):
            rowops.sparse_row([0, 4], [1.0, 1.0], 4)  # out of range
        with pytest.raises(DimensionMismatch):
            rowops.sparse_row([0], [1.0, 2.0], 4)  # length mismatch

    def test_densify_and_nnz(self):
        r = rowops.sparse_row([1, 3], [2.0, -1.0], 5)
        assert rowops.is_sparse(r)
        assert np.array_equal(rowops.densify(r, 5), [0.0, 2.0, 0.0, -1.0, 0.0])
        assert rowops.nnz(r) == 2
        dense = np.array([0.0, 2.0, 0.0, -1.0, 0.0])
        assert rowops.nnz(dense) == 2
        assert not rowops.is_sparse(dense)

    def test_norm_and_is_zero(self):
        r = rowops.sparse_row([0], [3.0], 2)
        assert rowops.norm(r) == 3.0
        assert rowops.is_zero(rowops.sparse_row([], [], 2))
        assert rowops.is_zero(np.zeros(3))
        assert not rowops.is_zero(r)

    def test_quad_form_sparse_matches_dense(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 6))
        m = m + m.T
        r = rowops.sparse_row([1, 4], [2.0, -3.0], 6)
        dense = rowops.densify(r, 6)
        assert rowops.quad_form(m, r) == pytest.approx(float(dense @ m @ dense), rel=1e-12)
        assert rowops.quad_form(m, dense) == pytest.approx(float(dense @ m @ dense), rel=1e-12)

    def test_matvec_sparse_matches_dense(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((3, 6))
        r = rowops.sparse_row([0, 5], [1.5, 2.0], 6)
        assert np.allclose(rowops.matvec(m, r), m @ rowops.densify(r, 6), atol=1e-13)

    def test_kernel_residual_sparse_matches_dense(self):
        rng = np.random.default_rng(6)
        v = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        proj = v @ v.T
        r = rowops.sparse_row([0, 2, 5], [1.0, -2.0, 0.5], 6)
        dense = rowops.densify(r, 6)
        want = float(np.linalg.norm(dense - proj @ dense))
        assert rowops.kernel_residual(proj, r) == pytest.approx(want, rel=1e-12)
        assert rowops.kernel_residual(proj, dense) == want
        assert rowops.on_image(proj, rowops.sparse_row([], [], 6), 1e-8)
        assert not rowops.on_image(proj, r, 1e-8)

    def test_add_outer_accumulates_weighted(self):
        g = np.zeros((3, 3))
        rowops.add_outer(g, np.array([1.0, 2.0, 0.0]), 4.0)
        assert np.allclose(g, 4.0 * np.outer([1, 2, 0], [1, 2, 0]), atol=1e-13)
        rowops.add_outer(g, rowops.sparse_row([2], [3.0], 3), 2.0)
        assert g[2, 2] == pytest.approx(18.0)


class TestSketch:
    def test_gram_matches_weighted_rows(self):
        rng = np.random.default_rng(5)
        sk = Sketch(4)
        rows = rng.standard_normal((9, 4))
        weights = rng.uniform(0.5, 2.0, size=9)
        for i in range(9):
            sk.append(i * 3, weights[i], rows[i])
        m = sk.weighted_matrix()
        assert np.allclose(m, rows * weights[:, None], atol=1e-13)
        assert np.allclose(sk.gram_matrix(), m.T @ m, atol=1e-10)
        assert sk.gram.dim == 4
        assert sk.n_rows == 9

    def test_iteration_yields_provenance(self):
        sk = Sketch(2)
        sk.append(5, 1.5, np.array([1.0, 0.0]))
        (idx, w, row), = list(sk)
        assert idx == 5 and w == 1.5 and np.array_equal(row, [1.0, 0.0])

    def test_indices_must_increase(self):
        sk = Sketch(2)
        sk.append(3, 1.0, np.array([1.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            sk.append(3, 1.0, np.array([0.0, 1.0]))

    def test_row_shape_checked(self):
        sk = Sketch(3)
        with pytest.raises(DimensionMismatch):
            sk.append(0, 1.0, np.ones(4))
        with pytest.raises(DimensionMismatch):
            sk.append(0, 1.0, rowops.sparse_row([3], [1.0], 4))

    def test_sparse_rows_accumulate(self):
        sk = Sketch(4)
        sk.append(0, 2.0, rowops.sparse_row([1], [1.0], 4))
        sk.append(1, 1.0, rowops.sparse_row([1, 2], [1.0, 1.0], 4))
        want = np.zeros((4, 4))
        want[1, 1] = 4.0 + 1.0
        want[1, 2] = want[2, 1] = 1.0
        want[2, 2] = 1.0
        assert np.allclose(sk.gram_matrix(), want, atol=1e-13)


class TestRandomness:
    def test_take_matches_range(self):
        u = IndexedUniforms(123)
        singles = np.array([u.take(i) for i in range(10_000)])
        block = IndexedUniforms(123).take_range(0, 10_000)
        assert np.array_equal(singles, block)
        # Back and forth across a CHUNK boundary: only the last chunk is
        # held, and a revisited chunk comes back with the same values.
        for i in (CHUNK - 1, CHUNK, CHUNK - 2, 2 * CHUNK + 3, CHUNK + 5, 7, CHUNK):
            assert u.take(i) == singles[i]
        for lo, hi in ((CHUNK - 3, CHUNK + 3), (5, 9), (2 * CHUNK - 1, 2 * CHUNK + 1)):
            assert np.array_equal(u.take_range(lo, hi), singles[lo:hi])

    def test_chunk_boundaries(self):
        u = IndexedUniforms(9)
        for idx in (CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK):
            assert u.take(idx) == IndexedUniforms(9).take(idx)

    def test_random_access_order_free(self):
        u1 = IndexedUniforms(77)
        u2 = IndexedUniforms(77)
        idxs = [5000, 3, 9999, 3, 4096]
        a = [u1.take(i) for i in idxs]
        b = [u2.take(i) for i in reversed(idxs)]
        assert a == list(reversed(b))

    def test_values_in_unit_interval(self):
        vals = IndexedUniforms(1).take_range(0, 5000)
        assert np.all(vals >= 0.0) and np.all(vals < 1.0)

    def test_different_seeds_differ(self):
        a = IndexedUniforms(1).take_range(0, 100)
        b = IndexedUniforms(2).take_range(0, 100)
        assert not np.array_equal(a, b)

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2) != derive_seed(2, 1)
        assert 0 <= derive_seed(9, 9) < 2 ** 64
