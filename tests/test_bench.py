"""Benchmark harness: records, CSV, dispatch, and suite summaries."""
import csv
import hashlib
import io
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from specstream import (
    ResparsifyApprox,
    RunStats,
    ScaledSampler,
    UnknownSuite,
    gen_gaussian,
    permute,
    run_barrier,
    run_online,
    scaled_sampling,
)
from specstream.online import DEFAULT_ONLINE_C_MULT
from specstream.randomness import derive_seed
from specstream.sketch import RunCounters
from specstream.verify import online_leverage
from specstream.bench import (
    ALGO_NAMES,
    BENCH_PLUG_BETA,
    BENCH_PLUG_CAPACITY_MULT,
    CSV_COLUMNS,
    SUITE_NAMES,
    TrialRecord,
    bench_suite,
    guarantee,
    predicted_online_rows,
    probe_checkpoints,
    read_csv,
    record_to_row,
    row_to_record,
    run_grid,
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
        col = CSV_COLUMNS.index("mu")
        assert record_to_row(make_record(mu=None))[col] == ""
        assert record_to_row(make_record(mu=2.0))[col] == "2"

    def test_optional_int_counter_round_trips(self):
        col = CSV_COLUMNS.index("resparsify_passes")
        for algo, passes, cell in (("online", None, ""), ("improved-resparsify", 5, "5")):
            rec = make_record(algo=algo, resparsify_passes=passes)
            assert record_to_row(rec)[col] == cell
            back = row_to_record(record_to_row(rec))
            assert back == rec and back.resparsify_passes == passes

    def test_every_run_counter_is_a_column(self):
        counters = [f.name for f in fields(RunCounters)]
        assert counters == list(CSV_COLUMNS[:len(counters)])
        assert set(counters) <= {f.name for f in fields(RunStats)}

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
        for text in ("a,b,c\n1,2,3\n", ""):
            path.write_text(text)
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
            assert stats.drift_events == 0
        for algo in ("greedy", "improved-passthrough"):
            with pytest.raises(ValueError):
                run_sampler(algo, stream, 0.5, seed=21)

    def test_settings_left_out_take_the_runner_defaults(self):
        # None and False are not given, so they reach no runner; the plug's
        # beta and capacity multiplier are the bench's
        stream = permute(gen_gaussian(1500, 5, seed=24), seed=25)
        plug_seed = derive_seed(26, 1)
        runs = {
            "online": lambda: run_online(stream, 0.4, 26),
            "optimal": lambda: run_barrier(stream, 0.4, 26),
            "scaled": lambda: scaled_sampling(stream, 0.4, 26),
            "improved-self": lambda: scaled_sampling(
                stream, 0.4, 26, ScaledSampler(5, 0.4, plug_seed)),
            "improved-resparsify": lambda: scaled_sampling(stream, 0.4, 26, ResparsifyApprox(
                BENCH_PLUG_CAPACITY_MULT, BENCH_PLUG_BETA, plug_seed, dim=5)),
        }
        assert sorted(runs) == sorted(ALGO_NAMES)
        for algo, run in runs.items():
            sketch, stats = run_sampler(algo, stream, 0.4, 26, c_mult=None, use_jl=False, plug_beta=None)
            want, want_stats = run()
            assert (sketch.indices, sketch.weights) == (want.indices, want.weights), algo
            assert stats.max_working_rows == want_stats.max_working_rows, algo
            assert stats.resparsify_passes == want_stats.resparsify_passes, algo
        assert stats.resparsify_passes >= 1  # the resparsify run, last, made passes

    def test_misspelled_or_unread_setting_refused(self):
        stream = gen_gaussian(100, 4, seed=20)
        with pytest.raises(TypeError):
            run_sampler("online", stream, 0.5, 2, c_mul=100.0)
        # the plug's capacity multiplier is not a setting
        with pytest.raises(TypeError):
            run_sampler("scaled", stream, 0.5, 2, plug_capacity_mult=8.0)
        unread = (
            ("online", dict(use_jl=True, plug_beta=0.1)),
            ("optimal", dict(c_mult=0.0)),
            ("improved-self", dict(plug_beta=0.1)),
        )
        for algo, cfg in unread:
            with pytest.raises(ValueError, match="does not read"):
                run_sampler(algo, stream, 0.5, 2, **cfg)
        with pytest.raises(TypeError):
            run_trial("online", stream, 0.5, 0, 0, 2, c_mul=100.0)

    def test_run_trial_assembles_record(self):
        stream = gen_gaussian(200, 4, seed=22)
        rec, sketch = run_trial("online", stream, 0.4, 22, 0, 23)
        assert rec.algo == "online" and rec.n == 200 and rec.d == 4
        assert rec.mu is None and rec.wall_ms >= 0.0
        assert rec.eps_actual >= 0.0 and rec.sketch_rows <= rec.n
        assert rec.sketch_rows == sketch.n_rows

    def test_run_trial_carries_every_counter(self):
        stream = permute(gen_gaussian(1500, 5, seed=24), seed=25)
        for algo in ALGO_NAMES:
            _, stats = run_sampler(algo, stream, 0.4, 26)
            rec, _ = run_trial(algo, stream, 0.4, 24, 25, 26)
            assert {name: getattr(rec, name) for name in stats.counters()} == stats.counters(), algo
            assert (rec.resparsify_passes is None) == (algo != "improved-resparsify"), algo


class TestSuites:
    # sha256 prefixes of each suite's CSV with wall_ms set to 0.0, over the
    # 15 columns it had before saturated and resparsify_passes joined, in
    # their order then; taken before the suites moved onto run_grid (the
    # same at 1 and 2 BLAS threads); those with online or barrier runs were
    # taken again when the walks moved into U coordinates with Cholesky
    # rebuilds in place of the drift certificate, which moved pinv_recomputes
    # and the last bits of eps_actual and score_total, and no kept row;
    # n-scaling's again when the block samplers moved onto the image basis
    # and a Cholesky whitener, which moved the same last bits and no kept row;
    # those with online runs again when the online walk scored its candidates
    # fresh, which moved the last bits of eps_actual and score_total only
    PINNED_COLUMNS = ("algo", "n", "d", "eps", "seed_stream", "seed_perm", "seed_sample",
                      "sketch_rows", "eps_actual", "score_total", "mu", "max_working_rows",
                      "pinv_recomputes", "drift_events", "wall_ms")
    PINNED_CSV = {
        "eps-scaling": ({"seeds": 3}, "c32a1e603d4709f8"),
        "n-scaling": ({"seeds": 1}, "fd38836844aeed92"),
        "mu-scaling": ({}, "4d855c6a0b1ca9c2"),
        "algo-compare": ({"seeds": 3}, "f3f1c55613e5446e"),
        "lower-bound-probe": ({"seeds": 3}, "6da4d05693c24ec1"),
    }
    # each suite's saturated column, and the resparsify_passes of its
    # improved-resparsify runs (the only cells not empty), in CSV order
    PINNED_NEW_COLUMNS = {
        "eps-scaling": ([406, 409, 411, 1405, 1371, 1371], []),
        "n-scaling": ([912, 973, 1187, 1581, 1284, 1696, 1267, 1776, 1262, 1871, 1249, 1783],
                      [2, 5, 11, 23, 48, 98]),
        "mu-scaling": ([12, 18, 24], []),
        "algo-compare": ([531, 234, 553, 226, 550, 232], []),
        "lower-bound-probe": ([60, 61, 58], []),
    }

    def test_pinned_records_and_guarantee_counts(self, tmp_path):
        for name, (kwargs, digest) in self.PINNED_CSV.items():
            records, summary = bench_suite(name, **kwargs)
            path = tmp_path / f"{name}.csv"
            write_csv(path, [replace(r, wall_ms=0.0) for r in records])
            with open(path, newline="") as fh:
                table = list(csv.DictReader(fh))
            pinned = io.StringIO()
            w = csv.writer(pinned)
            w.writerow(self.PINNED_COLUMNS)
            w.writerows([row[col] for col in self.PINNED_COLUMNS] for row in table)
            assert hashlib.sha256(pinned.getvalue().encode()).hexdigest()[:16] == digest, name
            saturated, passes = self.PINNED_NEW_COLUMNS[name]
            assert [int(row["saturated"]) for row in table] == saturated, name
            resparsify = [row["algo"] == "improved-resparsify" for row in table]
            assert [int(row["resparsify_passes"]) for row, r in zip(table, resparsify) if r] == passes, name
            assert all(row["resparsify_passes"] == "" for row, r in zip(table, resparsify) if not r), name
            # every run at these seeds meets its eps
            assert summary["guarantee"] == {"met": len(records), "runs": len(records)}, name

    def test_guarantee_counts_runs_within_eps(self):
        records = [make_record(eps=0.3, eps_actual=e) for e in (0.21, 0.3, 0.30000001, 0.9)]
        assert guarantee(records) == {"met": 2, "runs": 4}

    def test_empty_grid_refused_before_any_run(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr("specstream.bench.run_trial", no_run)
        for name in ("eps-scaling", "n-scaling", "algo-compare", "lower-bound-probe"):
            with pytest.raises(ValueError, match="at least one case"):
                bench_suite(name, seeds=0)
        case = (gen_gaussian(50, 3, seed=1), 1, 0, 2)
        with pytest.raises(ValueError, match="at least one case"):
            next(run_grid([case], []))

    def test_run_grid_builds_one_case_at_a_time(self):
        built = []

        def cases():
            for s in range(3):
                built.append(s)
                yield gen_gaussian(100, 3, seed=s), s, 0, s

        grid = run_grid(cases(), [("online", 0.5, None, {})])
        for s in range(3):
            next(grid)
            assert built == list(range(s + 1))

    def test_predicted_rows_clamp_d_as_the_sampler_does(self):
        # the online sampler's rate uses ln max(d, 2), so d = 1 predicts as d = 2
        tau = online_leverage(gen_gaussian(400, 1, 3))
        one, two = (predicted_online_rows(tau, 0.5, d, 0.7) for d in (1, 2))
        assert one == two > 0.0

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
