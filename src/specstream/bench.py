"""Benchmark suites: size laws, algorithm comparisons, and structural probes.

Each suite runs a deterministic seed grid, verifies every sketch against
the exact stream Gram, and emits TrialRecord rows plus a pass/fail summary.
Trials fan out to a thread pool capped by SPECSTREAM_THREADS.
"""
from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import UnknownSuite
from .instances import (
    RowStream,
    gen_gaussian,
    gen_kd_multigraph,
    gen_mu_controlled,
    permute,
)
from .online import DEFAULT_ONLINE_C_MULT, run_barrier, run_online
from .random_order import (
    DEFAULT_SCALED_C_MULT,
    ResparsifyApprox,
    ScaledSampler,
    scaled_sampling,
)
from .randomness import derive_seed
from .verify import mu as measure_mu
from .verify import online_leverage, verify

ALGO_NAMES = ("online", "optimal", "scaled", "improved-self", "improved-resparsify")

SUITE_NAMES = ("eps-scaling", "n-scaling", "mu-scaling", "algo-compare", "lower-bound-probe")

# Sampling-rate multiplier pinned for guarantee-style bench and acceptance
# runs of the fully-online sampler. The library default saturates p = 1 on
# nearly every row at bench scale (n <= 3e4, d <= 16), which hides the
# size behavior entirely; 0.7 is the smallest rate whose measured failure
# frequency at (1000, 10, eps=0.3) stays well under 5 over 100 seeds
# (0 fails measured, vs 5 at 0.6 and 22 at 0.45).
BENCH_ONLINE_C_MULT = 0.7

# Plug parameters for the bounded-memory runs: quality of the constant
# approximation and its capacity multiplier.
BENCH_PLUG_BETA = 1.0 / 3.0
BENCH_PLUG_CAPACITY_MULT = 4.0

# Relative half-width of the eps-scaling band around the predicted ratio.
# Over the suite's 50 seeds every per-seed size ratio lies within 2.5% of
# the prediction (measured 2.018..2.090 against 2.066) and the median ratio
# within 0.6%; the rest of the width covers the gap between a sketch that
# tracks each prefix within eps and one that matches it exactly. The band
# still excludes the ratio a rate c = c_mult * eps^-1 * ln d would give
# on these streams (predicted 1.45, -30%) and the asymptotic 4.
EPS_RATIO_REL_BAND = 0.10

# First doubling checkpoint of the random-order structural probe. Chosen
# so the hypergeometric per-edge concentration at relative width 0.5 has
# several sigmas of margin; earlier checkpoints would fail for purely
# statistical reasons unrelated to the samplers.
PROBE_FIRST_CHECKPOINT = 2048


@dataclass
class TrialRecord:
    """One benchmark run; serializes to one CSV row."""

    algo: str
    n: int
    d: int
    eps: float
    seed_stream: int
    seed_perm: int
    seed_sample: int
    sketch_rows: int
    eps_actual: float
    score_total: float
    mu: float | None
    max_working_rows: int
    pinv_recomputes: int
    drift_events: int
    wall_ms: float

    def __post_init__(self):
        if self.algo not in ALGO_NAMES:
            raise ValueError(f"unknown algo {self.algo!r}")


CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord))

# Cell parsers by field annotation; an empty cell is a missing optional value.
_PARSE = {"str": str, "int": int, "float": float,
          "float | None": lambda cell: None if cell == "" else float(cell)}


def _cell(value) -> str:
    """CSV text of one field; floats carry 17 significant digits to round-trip."""
    if value is None:
        return ""
    return "%.17g" % value if isinstance(value, float) else str(value)


def record_to_row(rec: TrialRecord) -> list[str]:
    return [_cell(getattr(rec, name)) for name in CSV_COLUMNS]


def row_to_record(row: list[str]) -> TrialRecord:
    if len(row) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(row)}")
    return TrialRecord(**{f.name: _PARSE[f.type](cell) for f, cell in zip(fields(TrialRecord), row)})


def write_csv(path, records) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for rec in records:
            w.writerow(record_to_row(rec))


def read_csv(path) -> list[TrialRecord]:
    import csv

    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        return [row_to_record(row) for row in r]


def worker_count(threads: int | None = None) -> int:
    """Pool size: explicit arg, then SPECSTREAM_THREADS, then CPU count."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("SPECSTREAM_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def run_sampler(algo: str, stream: RowStream, eps: float, seed: int, **cfg):
    """Dispatch one sampler run; returns (sketch, info dict).

    cfg accepts c_mult, use_jl, jl_audit, plug_beta, plug_capacity_mult and
    audit. None values fall back to the sampler defaults.
    """
    c_mult = cfg.get("c_mult")
    if algo == "online":
        sketch, diag = run_online(
            stream, eps, seed, c_mult=DEFAULT_ONLINE_C_MULT if c_mult is None else c_mult,
        )
        return sketch, {
            "scores": diag.scores, "score_total": diag.score_total,
            "pinv_recomputes": diag.pinv_recomputes, "drift_events": diag.drift_events,
            "max_working_rows": sketch.n_rows,
        }
    if algo == "optimal":
        sketch, diag = run_barrier(stream, eps, seed, audit=bool(cfg.get("audit", False)))
        return sketch, {
            "scores": None, "score_total": diag.score_total,
            "pinv_recomputes": diag.pinv_recomputes, "drift_events": diag.drift_events,
            "max_working_rows": sketch.n_rows, "diag": diag,
        }
    if algo == "scaled":
        plug = None
    elif algo == "improved-self":
        plug = ScaledSampler(stream.d, eps, derive_seed(seed, 1), n_hint=stream.n)
    elif algo == "improved-resparsify":
        cap, beta = cfg.get("plug_capacity_mult"), cfg.get("plug_beta")
        plug = ResparsifyApprox(
            BENCH_PLUG_CAPACITY_MULT if cap is None else cap,
            BENCH_PLUG_BETA if beta is None else beta,
            derive_seed(seed, 1),
            dim=stream.d,
        )
    else:
        raise ValueError(f"unknown algo {algo!r}")
    sketch, diag = scaled_sampling(
        stream, eps, seed, plug,
        c_mult=DEFAULT_SCALED_C_MULT if c_mult is None else c_mult,
        use_jl=bool(cfg.get("use_jl", False)), jl_audit=bool(cfg.get("jl_audit", False)),
    )
    return sketch, {
        "scores": diag.scores, "score_total": diag.score_total,
        "pinv_recomputes": diag.pinv_recomputes, "drift_events": 0,
        "max_working_rows": sketch.n_rows if plug is None else diag.max_working_rows,
        "diag": diag,
    }


def run_trial(
    algo: str,
    stream: RowStream,
    eps: float,
    seed_stream: int,
    seed_perm: int,
    seed_sample: int,
    measure_mu_flag: bool = False,
    **cfg,
) -> tuple[TrialRecord, dict]:
    """Run one sampler, verify the sketch, and assemble the record."""
    t0 = time.perf_counter()
    sketch, info = run_sampler(algo, stream, eps, seed_sample, **cfg)
    wall_ms = (time.perf_counter() - t0) * 1e3
    eps_actual, _ = verify(stream, sketch)
    mu_val = measure_mu(stream) if measure_mu_flag else None
    rec = TrialRecord(
        algo=algo, n=stream.n, d=stream.d, eps=eps,
        seed_stream=seed_stream, seed_perm=seed_perm, seed_sample=seed_sample,
        sketch_rows=sketch.n_rows, eps_actual=eps_actual,
        score_total=float(info["score_total"]), mu=mu_val,
        max_working_rows=int(info["max_working_rows"]),
        pinv_recomputes=int(info["pinv_recomputes"]),
        drift_events=int(info["drift_events"]),
        wall_ms=wall_ms,
    )
    info["sketch"] = sketch
    return rec, info


def _pool_map(jobs, threads):
    """Run thunks on a pool, preserving submission order."""
    workers = worker_count(threads)
    if workers == 1 or len(jobs) == 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def _linear_fit_r2(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares y = a + b x; returns (a, b, R^2)."""
    b, a = np.polyfit(x, y, 1)
    pred = a + b * x
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(a), float(b), r2


def predicted_online_rows(tau, eps: float, d: int, c_mult: float = DEFAULT_ONLINE_C_MULT) -> float:
    """Expected kept rows of the online sampler on a stream with online leverage tau.

    The sampler keeps row i with p_i = min(c * l_i, 1), c = c_mult *
    eps^-2 * ln d, and its score l_i = (1 + eps) * (relative leverage
    against the sketch) equals (1 + eps) * tau_i when the sketch matches
    the prefix exactly. The rate law is restated here, not taken from the
    sampler, so a sampler whose rate drifts from it misses the prediction.
    """
    c = c_mult * eps ** -2 * math.log(d)
    return float(np.minimum(c * (1.0 + eps) * np.asarray(tau), 1.0).sum())


def suite_eps_scaling(threads: int | None = None, seeds: int = 50) -> tuple[list[TrialRecord], dict]:
    """Halving eps and watching the online sketch size multiply.

    The ratio is checked against the one the sampling law predicts from the
    exact online leverage of the same streams, not against the asymptotic
    4: the rows kept at p = 1 grow with c as well, so the ratio sits well
    below 4 at this scale.
    """
    n, d = 4000, 10
    eps_grid = (0.5, 0.25)
    jobs = []
    for s in range(seeds):
        def job(s=s):
            seed_stream = derive_seed(61, s)
            stream = gen_gaussian(n, d, seed_stream)
            recs = [
                run_trial("online", stream, eps, seed_stream, 0, derive_seed(62, s))[0]
                for eps in eps_grid
            ]
            tau = online_leverage(stream)
            return recs, [predicted_online_rows(tau, eps, d) for eps in eps_grid]

        jobs.append(job)
    results = _pool_map(jobs, threads)
    records = [recs[k] for k in range(len(eps_grid)) for recs, _ in results]
    medians = {
        eps: float(np.median([r.sketch_rows for r in records if r.eps == eps]))
        for eps in eps_grid
    }
    predicted = {
        eps: float(np.median([pred[k] for _, pred in results]))
        for k, eps in enumerate(eps_grid)
    }
    ratio = medians[0.25] / medians[0.5]
    predicted_ratio = predicted[0.25] / predicted[0.5]
    half = EPS_RATIO_REL_BAND * predicted_ratio
    band = (predicted_ratio - half, predicted_ratio + half)
    summary = {
        "suite": "eps-scaling",
        "median_rows": medians,
        "predicted_rows": predicted,
        "ratio": ratio,
        "predicted_ratio": predicted_ratio,
        "band": band,
        "pass": band[0] <= ratio <= band[1],
    }
    return records, summary


def suite_n_scaling(threads: int | None = None, seeds: int = 20) -> tuple[list[TrialRecord], dict]:
    """Block-sampler size vs log n, plus the bounded-memory working set."""
    d, eps = 8, 0.4
    sizes = [2 ** k for k in range(10, 16)]
    jobs = []
    for n in sizes:
        for s in range(seeds):
            seed_stream = derive_seed(71, n, s)
            seed_sample = derive_seed(72, n, s)

            def job(n=n, seed_stream=seed_stream, seed_sample=seed_sample):
                stream = gen_gaussian(n, d, seed_stream)
                rec_a, _ = run_trial("scaled", stream, eps, seed_stream, 0, seed_sample)
                rec_b, _ = run_trial(
                    "improved-resparsify", stream, eps, seed_stream, 0,
                    derive_seed(seed_sample, 3),
                    plug_beta=0.45, plug_capacity_mult=4.0,
                )
                return [rec_a, rec_b]

            jobs.append(job)
    nested = _pool_map(jobs, threads)
    records = [rec for pair in nested for rec in pair]
    med_rows = np.array([
        float(np.median([r.sketch_rows for r in records if r.algo == "scaled" and r.n == n]))
        for n in sizes
    ])
    a, b, r2 = _linear_fit_r2(np.log2(np.array(sizes, dtype=float)), med_rows)
    med_work = {
        n: float(np.median([
            r.max_working_rows for r in records
            if r.algo == "improved-resparsify" and r.n == n
        ]))
        for n in sizes
    }
    growth = med_work[sizes[-1]] / med_work[sizes[0]]
    summary = {
        "suite": "n-scaling",
        "median_rows": dict(zip(sizes, med_rows.tolist())),
        "fit": {"intercept": a, "slope_per_doubling": b, "r2": r2},
        "working_rows": med_work,
        "working_growth": growth,
        "pass": r2 >= 0.85 and growth <= 1.05,
    }
    return records, summary


def suite_mu_scaling(threads: int | None = None) -> tuple[list[TrialRecord], dict]:
    """Online score mass against the stream condition number."""
    d, gamma, eps = 6, 10.0, 0.3
    levels_grid = (2, 3, 4)
    jobs = []
    for levels in levels_grid:
        def job(levels=levels):
            stream = gen_mu_controlled(d, levels, gamma)
            seed_sample = derive_seed(81, levels)
            rec, _ = run_trial(
                "online", stream, eps, 0, 0, seed_sample,
                measure_mu_flag=True, c_mult=BENCH_ONLINE_C_MULT,
            )
            return rec

        jobs.append(job)
    records = _pool_map(jobs, threads)
    logmu = np.array([math.log(r.mu) for r in records])
    totals = np.array([r.score_total for r in records])
    a, b, r2 = _linear_fit_r2(logmu, totals)
    summary = {
        "suite": "mu-scaling",
        "mu": [r.mu for r in records],
        "score_total": totals.tolist(),
        "fit": {"intercept": a, "slope": b, "r2": r2},
        "pass": r2 >= 0.9,
    }
    return records, summary


def suite_algo_compare(threads: int | None = None, seeds: int = 50) -> tuple[list[TrialRecord], dict]:
    """Paired sizes of the two fully-online samplers at shared seeds."""
    n, d, eps = 2000, 12, 0.5
    jobs = []
    for s in range(seeds):
        seed_stream = derive_seed(91, s)
        seed_sample = derive_seed(92, s)

        def job(seed_stream=seed_stream, seed_sample=seed_sample):
            stream = gen_gaussian(n, d, seed_stream)
            rec_on, _ = run_trial("online", stream, eps, seed_stream, 0, seed_sample)
            rec_op, _ = run_trial("optimal", stream, eps, seed_stream, 0, seed_sample)
            return [rec_on, rec_op]

        jobs.append(job)
    nested = _pool_map(jobs, threads)
    records = [rec for pair in nested for rec in pair]
    wins = 0
    for pair in nested:
        if pair[1].sketch_rows < pair[0].sketch_rows:
            wins += 1
    win_rate = wins / seeds
    summary = {
        "suite": "algo-compare",
        "median_rows": {
            "online": float(np.median([r.sketch_rows for r in records if r.algo == "online"])),
            "optimal": float(np.median([r.sketch_rows for r in records if r.algo == "optimal"])),
        },
        "optimal_win_rate": win_rate,
        "pass": win_rate >= 0.8,
    }
    return records, summary


def probe_checkpoints(n: int, first: int = PROBE_FIRST_CHECKPOINT) -> list[int]:
    marks = []
    s = first
    while s < n:
        marks.append(s)
        s *= 2
    return marks


def _edge_key(row) -> tuple:
    idx, _ = row
    return tuple(int(v) for v in idx)


def suite_lower_bound_probe(threads: int | None = None, seeds: int = 100) -> tuple[list[TrialRecord], dict]:
    """Random-order structure: prefix uniformity and sample growth per doubling."""
    d, copies, eps = 8, 512, 0.5
    base = gen_kd_multigraph(d, copies)
    n = base.n
    marks = probe_checkpoints(n)
    expected = {mark: mark * copies / n for mark in marks}
    jobs = []
    for s in range(seeds):
        def job(s=s):
            stream = permute(base, s)
            # Per-edge counts of uniform prefixes at each checkpoint.
            counts: dict[tuple, int] = {}
            uniform_ok = True
            pos = 0
            for mark in marks:
                while pos < mark:
                    key = _edge_key(stream.row(pos))
                    counts[key] = counts.get(key, 0) + 1
                    pos += 1
                exp = expected[mark]
                if len(counts) < d * (d - 1) // 2:
                    uniform_ok = False
                for c in counts.values():
                    if not 0.5 * exp <= c <= 1.5 * exp:
                        uniform_ok = False
            rec, info = run_trial(
                "online", stream, eps, 0, s, derive_seed(9, s),
                c_mult=BENCH_ONLINE_C_MULT,
            )
            sampled_idx = np.asarray(info["sketch"].indices)
            cum = [int(np.count_nonzero(sampled_idx < mark)) for mark in marks]
            increments = [cum[i + 1] - cum[i] for i in range(len(cum) - 1)]
            return rec, uniform_ok, min(increments) if increments else 0

        jobs.append(job)
    results = _pool_map(jobs, threads)
    records = [r[0] for r in results]
    uniform_rate = sum(1 for r in results if r[1]) / seeds
    growth_rate = sum(1 for r in results if r[2] >= 1) / seeds
    summary = {
        "suite": "lower-bound-probe",
        "checkpoints": marks,
        "uniform_prefix_rate": uniform_rate,
        "monotone_increment_rate": growth_rate,
        "pass": uniform_rate >= 0.95 and growth_rate >= 0.90,
    }
    return records, summary


_SUITES = {
    "eps-scaling": suite_eps_scaling,
    "n-scaling": suite_n_scaling,
    "mu-scaling": suite_mu_scaling,
    "algo-compare": suite_algo_compare,
    "lower-bound-probe": suite_lower_bound_probe,
}


def bench_suite(name: str, threads: int | None = None, **kwargs) -> tuple[list[TrialRecord], dict]:
    """Run a registered suite by name."""
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    return _SUITES[name](threads=threads, **kwargs)
