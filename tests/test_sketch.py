"""Row payloads, the weighted sketch container, and counter-based randomness."""
import numpy as np
import pytest

from specstream import BarrierState, DimensionMismatch, InvalidWeight, NonFiniteInput, OnlineState, Sketch
from specstream import rows as rowops
from specstream.linalg import PInv, on_image_rows
from specstream.random_order import BlockSampler, ResparsifyApprox
from specstream.randomness import CHUNK, IndexedUniforms, derive_seed

import oracles


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
        dense = rowops.densify(r, 5)
        assert np.array_equal(dense, [0.0, 2.0, 0.0, -1.0, 0.0])
        assert np.count_nonzero(dense) == r[0].size == 2
        assert not rowops.is_sparse(dense)
        assert np.array_equal(oracles.dense_row(r, 5), dense)

    def test_quad_form_sparse_matches_dense(self):
        # a densified sparse row gives the quadratic form of its nonzero block
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 6))
        m = m + m.T
        idx, val = rowops.sparse_row([1, 4], [2.0, -3.0], 6)
        dense = oracles.dense_row((idx, val), 6)
        block = float(val @ m[np.ix_(idx, idx)] @ val)
        assert rowops.quad_form(m, dense) == pytest.approx(block, rel=1e-12)
        assert rowops.quad_form(m, dense) == float(dense @ (m @ dense))

    def test_kernel_residual_sparse_matches_dense(self):
        rng = np.random.default_rng(6)
        v = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        proj = v @ v.T
        r = rowops.sparse_row([0, 2, 5], [1.0, -2.0, 0.5], 6)
        dense = oracles.dense_row(r, 6)
        want = float(np.linalg.norm(dense - proj @ dense))
        assert rowops.kernel_residual(proj, dense) == pytest.approx(want, rel=1e-12)
        p = PInv(3, proj, proj)
        zero = oracles.dense_row(rowops.sparse_row([], [], 6), 6)
        assert on_image_rows(p, np.array([zero, dense])).tolist() == [True, False]

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

    def test_indices_must_increase(self):
        sk = Sketch(2)
        sk.append(3, 1.0, np.array([1.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            sk.append(3, 1.0, np.array([0.0, 1.0]))
        # write_sketch refuses a source index below 0, so the sketch does too
        fresh = Sketch(2)
        with pytest.raises(DimensionMismatch):
            fresh.append(-1, 1.0, np.array([1.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            fresh.append_rows([-4, -2], [1.0, 1.0], np.eye(2))
        assert fresh.n_rows == 0 and not fresh.gram_matrix().any()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_refused_untouched(self, value):
        # such a row would reach the Gram, whose eigensolver then fails to converge
        sk = Sketch(3)
        sk.append(0, 1.0, np.array([1.0, 0.0, 0.0]))
        gram = sk.gram_matrix().copy()
        sparse = rowops.sparse_row([2], [value], 3)
        with pytest.raises(NonFiniteInput):
            sk.append(1, 1.0, np.array([value, 0.0, 0.0]))
        with pytest.raises(NonFiniteInput):
            sk.append_rows([1, 2], [1.0, 1.0], np.array([[0.0, 1.0, 0.0], [0.0, 0.0, value]]))
        with pytest.raises(NonFiniteInput):
            sk.append(1, 1.0, sparse)
        assert (sk.indices, sk.n_rows) == ([0], 1)
        assert np.array_equal(sk.gram_matrix(), gram)
        assert sk.gram.rank == 1

    def test_row_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            Sketch(0)
        sk = Sketch(3)
        with pytest.raises(DimensionMismatch):
            sk.append(0, 1.0, np.ones(4))
        with pytest.raises(DimensionMismatch):
            sk.append(0, 1.0, rowops.sparse_row([3], [1.0], 4))

    @pytest.mark.parametrize("make", [
        Sketch,
        lambda d: OnlineState(d, 0.5, seed=1),
        lambda d: BarrierState(d, 0.5, seed=1),
        lambda d: BlockSampler(d, 0.5, seed=1),
        lambda d: ResparsifyApprox(4.0, 0.45, seed=2, dim=d),
    ], ids=["sketch", "online", "barrier", "block", "resparsify"])
    def test_non_integer_dimension_refused(self, make):
        # numpy's own TypeError came from np.zeros((2.5, 2.5)), after int() had truncated dim
        for dim in (2.5, np.float64(3.9)):
            with pytest.raises(DimensionMismatch, match="not an integer"):
                make(dim)
        made = make(np.int64(3))
        assert made.dim == 3 and type(made.dim) is int

    def test_sparse_rows_accumulate(self):
        sk = Sketch(4)
        sk.append(0, 2.0, rowops.sparse_row([1], [1.0], 4))
        sk.append(1, 1.0, rowops.sparse_row([1, 2], [1.0, 1.0], 4))
        want = np.zeros((4, 4))
        want[1, 1] = 4.0 + 1.0
        want[1, 2] = want[2, 1] = 1.0
        want[2, 2] = 1.0
        assert np.allclose(sk.gram_matrix(), want, atol=1e-13)


    @pytest.mark.parametrize("weight", [-1.0, 0.0, np.nan, np.inf])
    def test_weight_not_finite_and_positive_refused_untouched(self, weight):
        # both entries refuse a weight read_sketch would refuse, before any change
        sk = Sketch(2)
        sk.append(0, 2.0, np.array([1.0, 1.0]))
        gram = sk.gram_matrix().copy()
        with pytest.raises(InvalidWeight):
            sk.append(1, weight, np.array([1.0, 0.0]))
        with pytest.raises(InvalidWeight):
            sk.append_rows([1, 2], [1.0, weight], np.eye(2))
        assert (sk.indices, sk.weights, sk.n_rows) == ([0], [2.0], 1)
        assert np.array_equal(sk.gram_matrix(), gram)
        sk.append(1, 1.0, np.array([1.0, 0.0]))  # index 1 was never taken

    # (indices, weights, block) that append_rows refuses after the held row
    # 0, and the error it raises; the 2-row block fits the sketch unless noted
    APPEND_REFUSALS = {
        "negative-index": ([-4, -2], [1.0, 1.0], np.eye(2), DimensionMismatch),
        "index-not-past-held": ([0, 1], [1.0, 1.0], np.eye(2), DimensionMismatch),
        "repeated-index": ([1, 1], [1.0, 1.0], np.eye(2), DimensionMismatch),
        "decreasing-index": ([2, 1], [1.0, 1.0], np.eye(2), DimensionMismatch),
        "non-integer-index": ([1.7, 2.2], [1.0, 1.0], np.eye(2), DimensionMismatch),
        "2-d-indices": ([[1, 2]], [1.0, 1.0], np.eye(2), DimensionMismatch),
        "weights-too-short": ([1, 2], [1.0], np.eye(2), DimensionMismatch),
        "weights-too-long": ([1, 2], [1.0, 1.0, 1.0], np.eye(2), DimensionMismatch),
        "block-too-wide": ([1, 2], [1.0, 1.0], np.ones((2, 3)), DimensionMismatch),
        "block-too-short": ([1, 2], [1.0, 1.0], np.ones((1, 2)), DimensionMismatch),
        "non-finite-row": ([1, 2], [1.0, 1.0], np.array([[1.0, 0.0], [0.0, np.nan]]),
                           NonFiniteInput),
        "zero-weight": ([1, 2], [1.0, 0.0], np.eye(2), InvalidWeight),
        "infinite-weight": ([1, 2], [np.inf, 1.0], np.eye(2), InvalidWeight),
    }

    @pytest.mark.parametrize("case", sorted(APPEND_REFUSALS))
    def test_append_rows_refusal_leaves_the_sketch_untouched(self, case):
        indices, weights, block, error = self.APPEND_REFUSALS[case]
        sk = Sketch(2)
        sk.append_rows([0], [2.0], np.array([[1.0, 1.0]]))
        gram = sk.gram_matrix().copy()
        with pytest.raises(error):
            sk.append_rows(indices, weights, block)
        assert (sk.indices, sk.weights, sk.n_rows) == ([0], [2.0], 1)
        assert np.array_equal(sk.gram_matrix(), gram)
        sk.append_rows([1, 2], [1.0, 1.0], np.eye(2))  # indices 1 and 2 were never taken
        assert sk.indices == [0, 1, 2]

    def test_keep_compacts_in_place(self):
        rng = np.random.default_rng(7)
        block = rng.standard_normal((9, 3))
        sk = Sketch(3)
        sk.append_rows(np.arange(9) * 2, np.full(9, 1.5), block)
        pos = np.array([1, 4, 5, 7])  # drops the last held row, index 16
        weights = rng.uniform(1.0, 3.0, size=4)
        sk._keep(pos, weights)
        assert sk.indices == (2 * pos).tolist()
        assert sk.weights == weights.tolist()
        assert np.array_equal(sk.rows, block[pos])
        assert np.array_equal(sk.weighted_matrix(), block[pos] * weights[:, None])
        fresh = Sketch(3)
        fresh.append_rows(2 * pos, weights, block[pos])
        assert np.array_equal(sk.gram_matrix(), fresh.gram_matrix())
        # appends check indices against the last row kept, 14
        with pytest.raises(DimensionMismatch):
            sk.append_rows([14], [1.0], np.ones((1, 3)))
        sk.append_rows([15], [1.0], np.ones((1, 3)))
        fresh.append_rows([15], [1.0], np.ones((1, 3)))
        assert sk.indices == [2, 8, 10, 14, 15]
        assert np.array_equal(sk.gram_matrix(), fresh.gram_matrix())


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

    @pytest.mark.parametrize("draw", [lambda u: u.take(-1), lambda u: u.take(-5000),
                                      lambda u: u.take_range(5, 2), lambda u: u.take_range(-1, 3)],
                             ids=["take-1", "take-5000", "range-5-2", "range-from-1"])
    def test_negative_index_or_reversed_range_refused(self, draw):
        u = IndexedUniforms(4)
        with pytest.raises(DimensionMismatch):
            draw(u)
        assert u._chunk_no is None  # refused before any draw
        assert u.take_range(5, 5).size == 0
        assert u.take(0) == IndexedUniforms(4).take_range(0, 1)[0]

    @pytest.mark.parametrize("draw", [lambda u: u.take(1.5), lambda u: u.take(np.float64(1.0)),
                                      lambda u: u.take_range(0.5, 2.7), lambda u: u.take_range(0, 2.5),
                                      lambda u: u.take_range(np.float64(0.0), 2)],
                             ids=["take-1.5", "take-np-float", "range-0.5-2.7", "range-0-2.5",
                                  "range-np-float"])
    def test_non_integer_index_refused(self, draw):
        # int() would truncate: take(1.5) was take(1), take_range(0.5, 2.7) indices 0 and 1
        u = IndexedUniforms(4)
        u.take(CHUNK)
        with pytest.raises(DimensionMismatch):
            draw(u)
        assert u._chunk_no == 1  # refused before any draw

    def test_numpy_integer_index_accepted(self):
        u = IndexedUniforms(4)
        assert u.take(np.int64(3)) == u.take(3)
        assert np.array_equal(u.take_range(np.int32(1), np.uint64(5)), u.take_range(1, 5))

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
        assert derive_seed(np.int64(7), np.uint8(1)) == derive_seed(7, 1)
        assert derive_seed(-1) == derive_seed(2 ** 64 - 1)

    @pytest.mark.parametrize("seed", [1.5, 1.99, np.float64(1.0)])
    @pytest.mark.parametrize("make", [IndexedUniforms, lambda s: ResparsifyApprox(4.0, 0.45, s, dim=6),
                                      derive_seed, lambda s: derive_seed(7, s)],
                             ids=["uniforms", "resparsify", "derive-seed", "derive-seed-part"])
    def test_non_integer_seed_refused(self, make, seed):
        # int() truncated these: seeds 1, 1.5 and 1.99 drew alike
        with pytest.raises(DimensionMismatch):
            make(seed)
