"""Benchmark suites: size laws, algorithm comparisons, and structural probes.

Each suite runs a deterministic seed grid, verifies every sketch against
the exact stream Gram, and emits TrialRecord rows plus a pass/fail summary.
run_sampler returns the runner's own (sketch, RunStats), and run_trial fills
one record from it. Trials run one after another in one thread: the per-row
sampler loops hold the interpreter lock, so a pool would not run two at once.
"""
from __future__ import annotations

import csv
import math
import time
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
from .sketch import RunStats, Sketch
from .verify import mu as measure_mu
from .verify import online_leverage, verify

# The settings each sampler reads; run_sampler refuses any other it is given.
_BLOCK_READS = ("c_mult", "use_jl", "jl_audit")
_READS = {
    "online": ("c_mult",),
    "optimal": ("audit",),
    "scaled": _BLOCK_READS,
    "improved-self": _BLOCK_READS,
    "improved-resparsify": _BLOCK_READS + ("plug_beta", "plug_capacity_mult"),
}
ALGO_NAMES = tuple(_READS)

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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for rec in records:
            w.writerow(record_to_row(rec))


def read_csv(path) -> list[TrialRecord]:
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        return [row_to_record(row) for row in r]


def unread_settings(algo: str, **settings) -> list[str]:
    """Names of the settings given (neither None nor False) that algo does not read."""
    return [name for name, value in settings.items()
            if value is not None and value is not False and name not in _READS[algo]]


def run_sampler(
    algo: str,
    stream: RowStream,
    eps: float,
    seed: int,
    *,
    c_mult: float | None = None,
    use_jl: bool = False,
    jl_audit: bool = False,
    plug_beta: float | None = None,
    plug_capacity_mult: float | None = None,
    audit: bool = False,
) -> tuple[Sketch, RunStats]:
    """Dispatch one sampler run; returns the runner's (sketch, RunStats).

    None settings fall back to the sampler defaults. A setting the chosen
    sampler would not read raises ValueError.
    """
    if algo not in ALGO_NAMES:
        raise ValueError(f"unknown algo {algo!r}")
    unread = unread_settings(algo, c_mult=c_mult, use_jl=use_jl, jl_audit=jl_audit, audit=audit,
                             plug_beta=plug_beta, plug_capacity_mult=plug_capacity_mult)
    if unread:
        raise ValueError(f"{algo} does not read {', '.join(unread)}")
    if algo == "online":
        return run_online(stream, eps, seed, c_mult=DEFAULT_ONLINE_C_MULT if c_mult is None else c_mult)
    if algo == "optimal":
        return run_barrier(stream, eps, seed, audit=audit)
    plug = None
    if algo == "improved-self":
        plug = ScaledSampler(stream.d, eps, derive_seed(seed, 1), n_hint=stream.n)
    elif algo == "improved-resparsify":
        plug = ResparsifyApprox(
            BENCH_PLUG_CAPACITY_MULT if plug_capacity_mult is None else plug_capacity_mult,
            BENCH_PLUG_BETA if plug_beta is None else plug_beta,
            derive_seed(seed, 1),
            dim=stream.d,
        )
    return scaled_sampling(
        stream, eps, seed, plug,
        c_mult=DEFAULT_SCALED_C_MULT if c_mult is None else c_mult,
        use_jl=use_jl, jl_audit=jl_audit,
    )


def run_trial(
    algo: str,
    stream: RowStream,
    eps: float,
    seed_stream: int,
    seed_perm: int,
    seed_sample: int,
    measure_mu_flag: bool = False,
    **cfg,
) -> tuple[TrialRecord, Sketch]:
    """Run one sampler, verify the sketch, and assemble the record."""
    t0 = time.perf_counter()
    sketch, stats = run_sampler(algo, stream, eps, seed_sample, **cfg)
    wall_ms = (time.perf_counter() - t0) * 1e3
    eps_actual, _ = verify(stream, sketch)
    mu_val = measure_mu(stream) if measure_mu_flag else None
    rec = TrialRecord(
        algo=algo, n=stream.n, d=stream.d, eps=eps,
        seed_stream=seed_stream, seed_perm=seed_perm, seed_sample=seed_sample,
        sketch_rows=sketch.n_rows, eps_actual=eps_actual,
        score_total=float(stats.score_total), mu=mu_val,
        max_working_rows=stats.max_working_rows,
        pinv_recomputes=stats.pinv_recomputes,
        drift_events=stats.drift_events,
        wall_ms=wall_ms,
    )
    return rec, sketch


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


def suite_eps_scaling(seeds: int = 50) -> tuple[list[TrialRecord], dict]:
    """Halving eps and watching the online sketch size multiply.

    The ratio is checked against the one the sampling law predicts from the
    exact online leverage of the same streams, not against the asymptotic
    4: the rows kept at p = 1 grow with c as well, so the ratio sits well
    below 4 at this scale.
    """
    n, d = 4000, 10
    eps_grid = (0.5, 0.25)
    by_eps = {eps: [] for eps in eps_grid}
    predicted = {eps: [] for eps in eps_grid}
    for s in range(seeds):
        seed_stream = derive_seed(61, s)
        stream = gen_gaussian(n, d, seed_stream)
        tau = online_leverage(stream)
        for eps in eps_grid:
            by_eps[eps].append(run_trial("online", stream, eps, seed_stream, 0, derive_seed(62, s))[0])
            predicted[eps].append(predicted_online_rows(tau, eps, d))
    records = [rec for eps in eps_grid for rec in by_eps[eps]]
    medians = {eps: float(np.median([r.sketch_rows for r in by_eps[eps]])) for eps in eps_grid}
    predicted = {eps: float(np.median(rows)) for eps, rows in predicted.items()}
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


def suite_n_scaling(seeds: int = 20) -> tuple[list[TrialRecord], dict]:
    """Block-sampler size vs log n, plus the bounded-memory working set."""
    d, eps = 8, 0.4
    sizes = [2 ** k for k in range(10, 16)]
    records = []
    for n in sizes:
        for s in range(seeds):
            seed_stream = derive_seed(71, n, s)
            seed_sample = derive_seed(72, n, s)
            stream = gen_gaussian(n, d, seed_stream)
            records.append(run_trial("scaled", stream, eps, seed_stream, 0, seed_sample)[0])
            records.append(run_trial(
                "improved-resparsify", stream, eps, seed_stream, 0,
                derive_seed(seed_sample, 3),
                plug_beta=0.45, plug_capacity_mult=4.0,
            )[0])
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


def suite_mu_scaling() -> tuple[list[TrialRecord], dict]:
    """Online score mass against the stream condition number."""
    d, gamma, eps = 6, 10.0, 0.3
    records = [
        run_trial(
            "online", gen_mu_controlled(d, levels, gamma), eps, 0, 0, derive_seed(81, levels),
            measure_mu_flag=True, c_mult=BENCH_ONLINE_C_MULT,
        )[0]
        for levels in (2, 3, 4)
    ]
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


def suite_algo_compare(seeds: int = 50) -> tuple[list[TrialRecord], dict]:
    """Paired sizes of the two fully-online samplers at shared seeds."""
    n, d, eps = 2000, 12, 0.5
    records = []
    wins = 0
    for s in range(seeds):
        seed_stream = derive_seed(91, s)
        seed_sample = derive_seed(92, s)
        stream = gen_gaussian(n, d, seed_stream)
        rec_on, _ = run_trial("online", stream, eps, seed_stream, 0, seed_sample)
        rec_op, _ = run_trial("optimal", stream, eps, seed_stream, 0, seed_sample)
        records += [rec_on, rec_op]
        wins += rec_op.sketch_rows < rec_on.sketch_rows
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


def suite_lower_bound_probe(seeds: int = 100) -> tuple[list[TrialRecord], dict]:
    """Random-order structure: prefix uniformity and sample growth per doubling."""
    d, copies, eps = 8, 512, 0.5
    base = gen_kd_multigraph(d, copies)
    n = base.n
    marks = probe_checkpoints(n)
    expected = {mark: mark * copies / n for mark in marks}
    records = []
    uniform_runs = growth_runs = 0
    for s in range(seeds):
        stream = permute(base, s)
        # Per-edge counts of uniform prefixes at each checkpoint; a row's
        # edge is the bit mask of its two columns.
        edges = (stream.materialize() != 0) @ (1 << np.arange(d))
        uniform_ok = True
        for mark in marks:
            counts = np.unique(edges[:mark], return_counts=True)[1]
            exp = expected[mark]
            uniform_ok &= len(counts) >= d * (d - 1) // 2 and bool(
                np.all((0.5 * exp <= counts) & (counts <= 1.5 * exp)))
        rec, sketch = run_trial(
            "online", stream, eps, 0, s, derive_seed(9, s),
            c_mult=BENCH_ONLINE_C_MULT,
        )
        records.append(rec)
        sampled_idx = np.asarray(sketch.indices)
        cum = [int(np.count_nonzero(sampled_idx < mark)) for mark in marks]
        increments = [cum[i + 1] - cum[i] for i in range(len(cum) - 1)]
        uniform_runs += uniform_ok
        growth_runs += (min(increments) if increments else 0) >= 1
    uniform_rate = uniform_runs / seeds
    growth_rate = growth_runs / seeds
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


SUITE_NAMES = tuple(_SUITES)


def bench_suite(name: str, **kwargs) -> tuple[list[TrialRecord], dict]:
    """Run a registered suite by name."""
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    return _SUITES[name](**kwargs)
