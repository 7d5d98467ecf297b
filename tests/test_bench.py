"""Benchmark harness: records, CSV, dispatch, and suite summaries."""
import math

import numpy as np
import pytest

import specstream.online as online_module
from specstream import RunStats, UnknownSuite, gen_gaussian
from specstream.online import DEFAULT_ONLINE_C_MULT
from specstream.randomness import derive_seed
from specstream.verify import online_leverage
from specstream.bench import (
    ALGO_NAMES,
    CSV_COLUMNS,
    SUITE_NAMES,
    TrialRecord,
    bench_suite,
    predicted_online_rows,
    probe_checkpoints,
    read_csv,
    record_to_row,
    row_to_record,
    run_sampler,
    run_trial,
    suite_mu_scaling,
    write_csv,
)


def make_record(**over):
    base = dict(
        algo="online", n=100, d=5, eps=0.3,
        seed_stream=1, seed_perm=2, seed_sample=3,
        sketch_rows=40, eps_actual=0.21, score_total=12.5, mu=None,
        max_working_rows=40, pinv_recomputes=5, drift_events=0, wall_ms=7.25,
    )
    base.update(over)
    return TrialRecord(**base)


class TestTrialRecord:
    def test_known_algos_accepted(self):
        for algo in ALGO_NAMES:
            assert make_record(algo=algo).algo == algo

    def test_unknown_algos_rejected(self):
        for algo in ("improved-passthrough", "greedy", ""):
            with pytest.raises(ValueError):
                make_record(algo=algo)

    def test_row_round_trip_bit_identical(self):
        records = [
            make_record(),
            make_record(algo="optimal", mu=1e4, eps_actual=1.0 / 3.0),
            make_record(algo="scaled", eps_actual=float("inf"), score_total=math.pi),
            make_record(algo="improved-resparsify", mu=123456.789012345678),
        ]
        for rec in records:
            assert row_to_record(record_to_row(rec)) == rec

    def test_missing_mu_serializes_empty(self):
        assert record_to_row(make_record(mu=None))[10] == ""
        assert record_to_row(make_record(mu=2.0))[10] == "2"

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            row_to_record(["online", "1"])


class TestCsv:
    def test_file_round_trip(self, tmp_path):
        records = [make_record(seed_sample=s, mu=None if s % 2 else float(s)) for s in range(6)]
        path = tmp_path / "trials.csv"
        write_csv(path, records)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert read_csv(path) == records

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_csv(path)


class TestDispatch:
    def test_all_algos_run(self):
        stream = gen_gaussian(300, 5, seed=20)
        for algo in ALGO_NAMES:
            sketch, stats = run_sampler(algo, stream, 0.5, seed=21)
            assert isinstance(stats, RunStats)
            assert sketch.dim == 5
            assert 0 < sketch.n_rows <= stream.n
            assert stats.score_total > 0.0
            assert type(stats.max_working_rows) is int
            if algo.startswith("improved"):
                assert stats.max_working_rows > 0
            else:
                assert stats.max_working_rows == sketch.n_rows
            assert (stats.scores is None) == (algo == "optimal")
            if algo not in ("online", "optimal"):
                assert stats.drift_events == 0
        for algo in ("greedy", "improved-passthrough"):
            with pytest.raises(ValueError):
                run_sampler(algo, stream, 0.5, seed=21)

    def test_misspelled_or_unread_setting_refused(self):
        stream = gen_gaussian(100, 4, seed=20)
        with pytest.raises(TypeError):
            run_sampler("online", stream, 0.5, 2, c_mul=100.0)
        unread = (
            ("online", dict(use_jl=True, plug_beta=0.1)),
            ("optimal", dict(c_mult=0.0)),
            ("scaled", dict(plug_capacity_mult=8.0)),
            ("improved-self", dict(plug_beta=0.1)),
        )
        for algo, cfg in unread:
            with pytest.raises(ValueError, match="does not read"):
                run_sampler(algo, stream, 0.5, 2, **cfg)
        with pytest.raises(TypeError):
            run_trial("online", stream, 0.5, 0, 0, 2, c_mul=100.0)

    def test_optimal_reports_barrier_drift(self, monkeypatch):
        # a negative tolerance makes every periodic pinv check count as drift
        monkeypatch.setattr(online_module, "PINV_DRIFT_TOL", -1.0)
        stream = gen_gaussian(300, 5, seed=20)
        _, stats = run_sampler("optimal", stream, 0.5, seed=21)
        assert stats.drift_events > 0
        assert stats.pinv_recomputes == 2 * 5 + stats.drift_events

    def test_run_trial_assembles_record(self):
        stream = gen_gaussian(200, 4, seed=22)
        rec, sketch = run_trial("online", stream, 0.4, 22, 0, 23)
        assert rec.algo == "online" and rec.n == 200 and rec.d == 4
        assert rec.mu is None and rec.wall_ms >= 0.0
        assert rec.eps_actual >= 0.0 and rec.sketch_rows <= rec.n
        assert rec.sketch_rows == sketch.n_rows

        rec, _ = run_trial("online", stream, 0.4, 22, 0, 23, measure_mu_flag=True)
        assert rec.mu is not None and rec.mu >= 1.0


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            bench_suite("speed-run")
        assert set(SUITE_NAMES) == {
            "eps-scaling", "n-scaling", "mu-scaling", "algo-compare", "lower-bound-probe",
        }

    def test_probe_checkpoints_double(self):
        assert probe_checkpoints(14336) == [2048, 4096, 8192]
        assert probe_checkpoints(2048) == []
        assert probe_checkpoints(100, first=16) == [16, 32, 64]

    def test_mu_scaling_summary(self):
        records, summary = suite_mu_scaling()
        assert [r.mu for r in records] == pytest.approx([1e2, 1e4, 1e6], rel=1e-6)
        assert all(r.algo == "online" for r in records)
        assert summary["fit"]["r2"] >= 0.9
        assert summary["pass"] is True

    def test_eps_scaling_structure(self):
        # reduced seed grid: checks shape and bookkeeping, not the size law
        records, summary = bench_suite("eps-scaling", seeds=5)
        assert len(records) == 10
        assert set(summary["median_rows"]) == {0.5, 0.25}
        lo, hi = summary["band"]
        predicted = summary["predicted_ratio"]
        assert lo < predicted < hi
        assert (lo + hi) / 2 == pytest.approx(predicted, rel=1e-12)
        assert summary["ratio"] > 1.0

        # the band must tell the sampler's c ~ eps^-2 apart from a rate
        # c = c_mult * eps^-1 * ln d, which only doubles c when eps halves
        d = 10
        linear = {eps: [] for eps in (0.5, 0.25)}
        for s in range(5):
            tau = online_leverage(gen_gaussian(4000, d, derive_seed(61, s)))
            for eps in linear:
                linear[eps].append(predicted_online_rows(tau, eps, d, DEFAULT_ONLINE_C_MULT * eps))
        assert np.median(linear[0.25]) / np.median(linear[0.5]) < lo

    def test_n_scaling_structure(self):
        records, summary = bench_suite("n-scaling", seeds=1)
        sizes = [2 ** k for k in range(10, 16)]
        assert sorted(summary["median_rows"]) == sizes
        assert sorted(summary["working_rows"]) == sizes
        assert {"intercept", "slope_per_doubling", "r2"} <= set(summary["fit"])
        assert len(records) == 2 * len(sizes)
        by_algo = {r.algo for r in records}
        assert by_algo == {"scaled", "improved-resparsify"}

    def test_algo_compare_win_rate(self):
        # paired runs on shared stream seeds: the barrier sampler's sketch
        # is smaller on at least 80% of pairs
        records, summary = bench_suite("algo-compare", seeds=50)
        assert len(records) == 100
        assert summary["optimal_win_rate"] >= 0.8
        assert summary["pass"] is True
        assert summary["median_rows"]["optimal"] < summary["median_rows"]["online"]

    def test_lower_bound_probe_structure(self):
        records, summary = bench_suite("lower-bound-probe", seeds=3)
        assert summary["checkpoints"] == [2048, 4096, 8192]
        assert len(records) == 3
        assert 0.0 <= summary["uniform_prefix_rate"] <= 1.0
        assert 0.0 <= summary["monotone_increment_rate"] <= 1.0
