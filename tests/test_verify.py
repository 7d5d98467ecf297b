"""Ground-truth referee: approximation factor, score audits, stream condition number."""
import importlib

import numpy as np
import pytest

from specstream import (
    AllZeroStream,
    DimensionMismatch,
    EmptyStream,
    RowStream,
    Sketch,
    gen_gaussian,
    gen_kd_multigraph,
    gen_mu_controlled,
    leverage_scores,
    mu,
    permute,
    run_online,
    scaled_sampling,
    verify,
)
from specstream.verify import online_leverage

import oracles
from conftest import make_stream


def sketch_of(stream, weight=1.0):
    sk = Sketch(stream.d)
    for i in range(stream.n):
        sk.append(i, weight, stream.row(i))
    return sk


class TestVerify:
    def test_full_copy_is_exact(self):
        stream = gen_gaussian(60, 5, seed=1)
        eps_actual, audit = verify(stream, sketch_of(stream))
        assert eps_actual < 1e-10
        assert audit is None

    def test_scaled_copy_measures_weight_algebra(self):
        stream = gen_gaussian(60, 5, seed=2)
        eps, _ = verify(stream, sketch_of(stream, weight=np.sqrt(1.2)))
        assert eps == pytest.approx(0.2, abs=1e-12)
        eps, _ = verify(stream, sketch_of(stream, weight=1.2))
        assert eps == pytest.approx(0.44, abs=1e-12)

    def test_rank_loss_and_foreign_mass(self):
        stream = make_stream(np.eye(3))
        dropped = Sketch(3)
        dropped.append(0, 1.0, np.eye(3)[0])
        eps, _ = verify(stream, dropped)
        assert eps == 1.0

        narrow = make_stream(np.eye(3)[:1])
        eps, _ = verify(narrow, sketch_of(stream))
        assert eps == np.inf

    def test_dimension_mismatch(self):
        stream = gen_gaussian(10, 4, seed=3)
        with pytest.raises(DimensionMismatch):
            verify(stream, Sketch(5))
        with pytest.raises(EmptyStream):
            verify(make_stream(np.zeros((0, 4))), Sketch(4))

    def test_overestimate_audit(self):
        stream = gen_gaussian(80, 4, seed=4)
        tau = leverage_scores(stream)
        sk = sketch_of(stream)
        _, ok = verify(stream, sk, scores=tau)  # sits exactly on the bound
        assert ok is True
        _, ok = verify(stream, sk, scores=np.ones(stream.n))
        assert ok is True
        bad = tau.copy()
        bad[17] *= 0.5
        _, ok = verify(stream, sk, scores=bad)
        assert ok is False

    def test_audit_log_validation(self):
        stream = gen_gaussian(10, 3, seed=5)
        sk = sketch_of(stream)
        with pytest.raises(DimensionMismatch):
            verify(stream, sk, scores=np.ones(9))

    def test_sampler_agnostic(self):
        # identical (stream, sketch) pairs verify identically no matter how
        # the sketch was produced
        stream = gen_gaussian(300, 6, seed=6)
        sk, diag = run_online(stream, 0.4, seed=7)
        copy = Sketch(stream.d)
        for idx, w, row in zip(sk.indices, sk.weights, sk.rows):
            copy.append(idx, w, row)
        assert verify(stream, sk)[0] == verify(stream, copy)[0]

    def test_judges_rows_not_the_accumulated_gram(self):
        # a block sampler folds kept rows a segment at a time, so its sketch's
        # running Gram differs in the last bits from one built row by row;
        # verify reads the weights and rows, which are the same
        stream = permute(gen_gaussian(3000, 6, seed=8), seed=9)
        sk, _ = scaled_sampling(stream, 0.4, seed=10)
        copy = Sketch(stream.d)
        for idx, w, row in sk:
            copy.append(idx, w, row)
        assert verify(stream, sk)[0] == verify(stream, copy)[0]


class TestOnlineLeverage:
    def test_matches_brute_force_prefix_scan(self):
        # zero prefix, duplicate rows, sparse kd rows and a wide-spectrum
        # mu stream all go through the same exact prefix-Gram definition
        dup = np.vstack([np.zeros((2, 4)), np.eye(4), np.eye(4), 3.0 * np.eye(4)[:1]])
        streams = [
            gen_gaussian(300, 6, seed=13),
            permute(gen_kd_multigraph(6, 4), seed=14),
            gen_mu_controlled(4, 3, 10.0),
            make_stream(dup),
        ]
        for s in streams:
            got = online_leverage(s)
            want = oracles.exact_online_leverage(s.materialize())
            assert got == pytest.approx(want, abs=1e-10)
            rank = np.linalg.matrix_rank(s.materialize())
            assert got.sum() >= rank - 1e-9
            assert np.all((got >= 0.0) & (got <= 1.0))

    def test_batches_join_seamlessly(self, monkeypatch):
        stream = gen_gaussian(50, 3, seed=15)
        whole = online_leverage(stream)
        # the package re-exports the verify function under the module's name
        verify_module = importlib.import_module("specstream.verify")
        monkeypatch.setattr(verify_module, "PREFIX_BATCH_ENTRIES", 7 * 9)
        assert online_leverage(stream) == pytest.approx(whole, rel=1e-12)

    def test_empty_stream(self):
        with pytest.raises(EmptyStream):
            online_leverage(make_stream(np.zeros((0, 3))))


class TestMu:
    def test_identity_is_one(self):
        assert mu(make_stream(np.eye(7))) == 1.0

    def test_controlled_instance_closed_form(self):
        assert mu(gen_mu_controlled(4, 3, 10.0)) == pytest.approx(1e4, rel=1e-6)

    def test_exact_mode_matches_brute_force(self):
        stream = gen_gaussian(200, 6, seed=8)
        want = oracles.brute_mu(stream.materialize())
        assert mu(stream) == pytest.approx(want, rel=1e-8)

    def test_structured_streams_match_brute_force(self):
        streams = [
            gen_gaussian(400, 6, seed=9),
            gen_mu_controlled(4, 3, 10.0),
            gen_kd_multigraph(6, 4),
            permute(gen_gaussian(500, 5, seed=10), seed=11),
        ]
        # a zero prefix before the identity stresses the rank-0 stretch
        zero_prefix = np.vstack([np.zeros((3, 4)), np.eye(4), np.eye(4)])
        streams.append(make_stream(zero_prefix))
        for s in streams:
            assert mu(s) == pytest.approx(oracles.brute_mu(s.materialize()), rel=1e-8)

    def test_long_stream_matches_brute_force(self, monkeypatch):
        # past 5000 rows, and cut into many batches of prefix Grams
        s = permute(gen_gaussian(6000, 4, seed=12), seed=16)
        want = oracles.brute_mu(s.materialize())
        whole = mu(s)
        assert whole == pytest.approx(want, rel=1e-8)
        verify_module = importlib.import_module("specstream.verify")
        monkeypatch.setattr(verify_module, "PREFIX_BATCH_ENTRIES", 16 * 700)
        assert mu(s) == pytest.approx(whole, rel=1e-12)

    def test_rank_growth_prefix_minimum(self):
        # the minimum lives at an early low-rank prefix: a tiny first row
        # drives mu up by its inverse square
        rows = np.vstack([0.01 * np.eye(3)[:1], np.eye(3)])
        got = mu(make_stream(rows))
        want = oracles.brute_mu(rows)
        assert got == pytest.approx(want, rel=1e-12)
        assert got >= 1e4

    def test_error_cases(self):
        with pytest.raises(AllZeroStream):
            mu(make_stream(np.zeros((4, 3))))
        with pytest.raises(EmptyStream):
            mu(make_stream(np.zeros((0, 3))))
