"""specstream benchmark: three sampler workloads, end-to-end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload online-kd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process
    python3 perfbench/run.py --self-check --seconds 1

One process, one thread: BLAS threads are pinned to 1 before numpy loads.
The package is imported from ./src of the checkout and is called only
through its public whole-stream entry points. A run sets its workload up
several times, then repeats whole passes over the workload's operations
(one sampler run on one stream plus its checks) while the next pass still
fits in --seconds. The last line of standard output is one JSON object with
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer split of a traced run with --trace 1. See
perfbench/README.md for the metrics, the workloads and reference figures.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from spans import Tracer  # noqa: E402

# Set-ups per run; setup_s is their median.
SETUPS = 5

# online-kd: criterion 9's stream family, sampled at the library's default
# rate. The size of one run swings 3x with its coins (false kernel hits come
# in bursts that end at random), so each stream is sampled with several seeds
# and the workload sums over all of them.
KD_STREAMS, KD_SAMPLES = 8, 5
KD_D, KD_COPIES, KD_EPS, KD_C_MULT = 8, 512, 0.5, 3.0

# adversarial-dense: the algo-compare shape, both fully-online samplers.
DENSE_STREAMS = 8
DENSE_N, DENSE_D, DENSE_EPS, DENSE_C_MULT = 2000, 12, 0.5, 3.0

# random-order: one permuted stream, four block-sampler configurations.
RO_N, RO_D, RO_EPS, RO_C_MULT = 32768, 10, 0.4, 6.0
PLUG_BETA, PLUG_CAPACITY_MULT = 1.0 / 3.0, 4.0

WORKLOADS = ("online-kd", "adversarial-dense", "random-order")

# Times are scaled to the box speed at which calibrate() takes this long.
CALIB_REF_S = 0.02


def import_package():
    """specstream from this checkout's src/; exits with status 1 when it is missing."""
    src = ROOT / "src"
    if not (src / "specstream" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {src / 'specstream'}; run from a source checkout")
    sys.path.insert(0, str(src))
    import specstream

    if Path(specstream.__file__).resolve().parent != (src / "specstream").resolve():
        sys.exit(f"perfbench: imported specstream from {specstream.__file__}, not {src}")
    return specstream


ss = None  # the package under test, imported by main()


def sub_seed(seed: int, *parts: int) -> int:
    """Independent 63-bit seed for one input of a workload."""
    state = np.random.SeedSequence([seed, *parts]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


class BoxSpeed:
    """Slowdown of the machine against a reference speed, per timed stretch.

    Where other tenants share the cores, speed wanders by a quarter between
    runs minutes apart, and CPU time wanders with wall time. Every timed
    stretch is bracketed by calibrate(), and its time is divided by the
    mean of the two calibrations over CALIB_REF_S. On a shared 2-core VM
    this cut the spread of 25 s medians of one sampler's run time from 0.21
    to 0.024 of the median.
    """

    def __init__(self):
        self._last = self.calibrate()
        self.seen: list[float] = []

    @staticmethod
    def calibrate() -> float:
        """Time of a fixed loop of small numpy calls, like a sampler's row work."""
        m = np.arange(100.0).reshape(10, 10) % 7.0
        m = m @ m.T + np.eye(10)
        v = np.linspace(-1.0, 1.0, 10)
        t0 = perf_counter()
        for i in range(3000):
            x = m @ v
            float(v @ x)
            np.outer(v, v)
            if i % 50 == 0:
                np.linalg.eigh(m)
        return perf_counter() - t0

    def slowdown(self) -> float:
        """Slowdown over the stretch since the previous call."""
        now = self.calibrate()
        factor = 0.5 * (self._last + now) / CALIB_REF_S
        self._last = now
        self.seen.append(factor)
        return factor


# -- workloads ----------------------------------------------------------------
#
# setup(seed) builds the streams through the package's instance generators;
# plan(seed, streams) lists the operations as (label, stream index, eps,
# call). A call runs one sampler and returns (sketch, score log or None,
# plug peak rows, diagnostics counts, misses of the sampler-specific checks).


def setup_online_kd(seed):
    base = ss.gen_kd_multigraph(KD_D, KD_COPIES)
    return [ss.permute(base, sub_seed(seed, 1, k)) for k in range(KD_STREAMS)]


def setup_adversarial_dense(seed):
    return [ss.gen_gaussian(DENSE_N, DENSE_D, sub_seed(seed, 2, k)) for k in range(DENSE_STREAMS)]


def setup_random_order(seed):
    return [ss.permute(ss.gen_gaussian(RO_N, RO_D, sub_seed(seed, 3, 0)), sub_seed(seed, 3, 1))]


def _online(stream, eps, seed, c_mult):
    sketch, diag = ss.run_online(stream, eps, seed, c_mult=c_mult)
    counts = {"pinv_recomputes": diag.pinv_recomputes, "drift_events": diag.drift_events}
    return sketch, diag.scores, 0, counts, []


def _barrier(stream, eps, seed):
    sketch, _ = ss.run_barrier(stream, eps, seed)
    return sketch, None, 0, {}, []


def _block_counts(stream, diag):
    freezes = len(diag.frozen_pinvs)
    misses = [] if freezes == checks.doubling_boundaries(stream.n, stream.d) else ["freezes"]
    return {"freezes": freezes, "score_mass": diag.score_total}, misses


def _scaled(stream, eps, seed, use_jl):
    sketch, diag = ss.scaled_sampling(stream, eps, seed, c_mult=RO_C_MULT, use_jl=use_jl)
    counts, misses = _block_counts(stream, diag)
    return sketch, diag.scores, 0, counts, misses


def _improved(stream, eps, seed, plug):
    sketch, diag = ss.improved_scaled_sampling(stream, eps, seed, plug, c_mult=RO_C_MULT)
    counts, misses = _block_counts(stream, diag)
    if isinstance(plug, ss.ResparsifyApprox):
        cap = checks.resparsify_capacity(PLUG_CAPACITY_MULT, PLUG_BETA, stream.d)
        if not plug.peak_rows <= 2 * cap:
            misses.append("plug-capacity")
    return sketch, diag.scores, diag.max_working_rows, counts, misses


def plan_online_kd(seed, streams):
    return [
        (f"online[{k}.{j}]", k, KD_EPS,
         lambda s, sample=sub_seed(seed, 11, k, j): _online(s, KD_EPS, sample, KD_C_MULT))
        for k in range(len(streams)) for j in range(KD_SAMPLES)
    ]


def plan_adversarial_dense(seed, streams):
    ops = []
    for k in range(len(streams)):
        sample = sub_seed(seed, 12, k)
        ops.append((f"online[{k}]", k, DENSE_EPS,
                    lambda s, sample=sample: _online(s, DENSE_EPS, sample, DENSE_C_MULT)))
        ops.append((f"barrier[{k}]", k, DENSE_EPS,
                    lambda s, sample=sample: _barrier(s, DENSE_EPS, sample)))
    return ops


def plan_random_order(seed, streams):
    s = [sub_seed(seed, 13, j) for j in range(6)]

    def self_plug(stream):
        plug = ss.ScaledSampler(stream.d, RO_EPS, s[3], n_hint=stream.n)
        return _improved(stream, RO_EPS, s[2], plug)

    def resparsify_plug(stream):
        plug = ss.ResparsifyApprox(PLUG_CAPACITY_MULT, PLUG_BETA, s[5], dim=stream.d)
        return _improved(stream, RO_EPS, s[4], plug)

    return [
        ("scaled", 0, RO_EPS, lambda st: _scaled(st, RO_EPS, s[0], False)),
        ("scaled-jl", 0, RO_EPS, lambda st: _scaled(st, RO_EPS, s[1], True)),
        ("improved-self", 0, RO_EPS, self_plug),
        ("improved-resparsify", 0, RO_EPS, resparsify_plug),
    ]


SETUP = {
    "online-kd": setup_online_kd,
    "adversarial-dense": setup_adversarial_dense,
    "random-order": setup_random_order,
}
PLAN = {
    "online-kd": plan_online_kd,
    "adversarial-dense": plan_adversarial_dense,
    "random-order": plan_random_order,
}


# -- measuring ------------------------------------------------------------------


@dataclass
class Pass:
    """One pass over a workload's operations."""

    attempted: int = 0
    failed: int = 0
    rows: int = 0
    sampler_s: float = 0.0
    wall_s: float = 0.0
    sketch_rows: int = 0
    peak_working_rows: int = 0
    counts: dict = field(default_factory=dict)
    digest: str = ""

    @property
    def rows_per_s(self) -> float:
        return self.rows / self.sampler_s if self.sampler_s else 0.0

    def fingerprint(self):
        """What must repeat exactly from pass to pass on one seed."""
        return (self.failed, self.sketch_rows, self.peak_working_rows,
                sorted(self.counts.items()), self.digest)


def run_pass(ops, streams, refs, box: BoxSpeed) -> Pass:
    p = Pass()
    h = hashlib.sha256()
    recomputes = drifts = ranks = 0
    for label, k, eps, call in ops:
        stream = streams[k]
        p.attempted += 1
        try:
            t0 = perf_counter()
            sketch, scores, plug_peak, counts, misses = call(stream)
            t1 = perf_counter()
            verified = ss.verify(stream, sketch, scores=scores)
            t2 = perf_counter()
        except Exception:  # a raising operation is a failed one; keep measuring
            traceback.print_exc()
            print(f"FAILED {label}: raised", file=sys.stderr)
            p.failed += 1
            continue
        slow = box.slowdown()
        p.rows += stream.n
        p.sampler_s += (t1 - t0) / slow
        p.wall_s += (t2 - t0) / slow
        misses = misses + checks.check_sketch(refs[k], sketch, eps, verified, scores)
        if misses:
            print(f"FAILED {label}: {', '.join(misses)}", file=sys.stderr)
            p.failed += 1
        idx = np.asarray(sketch.indices, dtype=np.int64)
        h.update(label.encode())
        h.update(idx.tobytes())
        p.sketch_rows += sketch.n_rows
        p.peak_working_rows += sketch.n_rows + int(plug_peak)
        for key, val in counts.items():
            p.counts[key] = p.counts.get(key, 0) + val
        if "pinv_recomputes" in counts:
            recomputes += counts["pinv_recomputes"]
            drifts += counts["drift_events"]
            ranks += int(np.linalg.matrix_rank(refs[k].a[idx])) if idx.size else 0
    if "pinv_recomputes" in p.counts:
        # Each new direction costs one recompute and each drift event one;
        # every recompute beyond those is a false kernel hit.
        p.counts["excess_recomputes"] = recomputes - drifts - ranks
    p.digest = h.hexdigest()
    return p


@dataclass
class Result:
    workload: str
    passes: list
    setup_s: list
    box: list
    untraced: Pass | None = None
    layers: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.all_passes())

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.all_passes())

    @property
    def correct(self) -> bool:
        prints = {repr(p.fingerprint()) for p in self.all_passes()}
        return len(prints) == 1

    def all_passes(self):
        return ([self.untraced] if self.untraced else []) + self.passes

    def end_to_end(self) -> dict:
        first = self.passes[0]
        return {
            "rows_per_s": (statistics.median(p.rows_per_s for p in self.passes), "rows/s"),
            "sketch_rows": (first.sketch_rows, "rows"),
            "peak_working_rows": (first.peak_working_rows, "rows"),
            "wall_s": (statistics.median(p.wall_s for p in self.passes), "s"),
            "setup_s": (statistics.median(self.setup_s), "s"),
        }


def measure_passes(ops, streams, refs, box, seconds, started) -> list:
    """Whole passes, as long as the next one is expected to end in time."""
    passes = []
    while True:
        t0 = perf_counter()
        passes.append(run_pass(ops, streams, refs, box))
        last = perf_counter() - t0
        if perf_counter() - started + last > seconds:
            return passes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    started = perf_counter()
    box = BoxSpeed()
    setup_s = []
    for _ in range(SETUPS if not trace else 1):
        t0 = perf_counter()
        streams = SETUP[workload](seed)
        t1 = perf_counter()
        setup_s.append((t1 - t0) / box.slowdown())
    refs = [checks.Reference(s) for s in streams]
    ops = PLAN[workload](seed, streams)
    if not trace:
        passes = measure_passes(ops, streams, refs, box, seconds, started)
        return Result(workload, passes, setup_s, box=box.seen)

    untraced = run_pass(ops, streams, refs, box)
    tracer = Tracer()
    tracer.install()
    try:
        SETUP[workload](seed)
        mark = tracer.mark()
        passes = measure_passes(ops, streams, refs, box, seconds, started)
    finally:
        tracer.restore()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.npz")
    result = Result(workload, passes, setup_s, box=box.seen, untraced=untraced)
    result.layers = layer_metrics(tracer, mark, passes, untraced)
    return result


# -- per-layer metrics -------------------------------------------------------------

# span name -> figures reported as <span>_<figure>: calls, inclusive s, self s
SPAN_METRICS = {
    "rows.kernel_residual": ("calls", "s"),
    "rows.quad_form": ("calls", "s"),
    "rows.add_outer": ("calls", "s"),
    "linalg.pinv": ("calls", "s"),
    "linalg.pinv_rank1_update": ("calls", "s"),
    "linalg.sympsd": ("calls", "s"),
    "linalg.pinv_quad_form": ("s",),
    "randomness.take": ("calls", "s"),
    "sketch.append": ("calls", "s"),
    "sketch.gram": ("s",),
    "online.online_step": ("self_s",),
    "online.barrier_step": ("self_s",),
    "random_order.step": ("self_s",),
    "random_order.plug_add": ("s",),
    "random_order.plug_query": ("s",),
    "jl.jl_build": ("calls", "s"),
    "jl.score": ("calls", "s"),
    "verify.verify": ("s",),
    "verify.approx_factor": ("s",),
    "verify.leverage_scores": ("s",),
}
COLUMN = {"calls": 0, "s": 1, "self_s": 2}

# metric name -> key of the per-pass diagnostics counts
COUNT_METRICS = {
    "online.pinv_recomputes": "pinv_recomputes",
    "online.drift_events": "drift_events",
    "online.excess_recomputes": "excess_recomputes",
    "random_order.freezes": "freezes",
    "random_order.score_mass": "score_mass",
}


def layer_metrics(tracer: Tracer, mark: int, passes: list, untraced: Pass) -> dict:
    """Per-pass layer figures of a traced run (set-up figures per set-up)."""
    n = len(passes)
    setup = tracer.totals(0, mark)
    body = tracer.totals(mark, tracer.mark())
    out = {
        "instances.gen_s": (setup.get("instances.gen", (0, 0.0, 0.0))[1], "s"),
        "instances.permute_s": (setup.get("instances.permute", (0, 0.0, 0.0))[1], "s"),
    }
    for span, figures in SPAN_METRICS.items():
        for figure in figures:
            value = body.get(span, (0, 0.0, 0.0))[COLUMN[figure]]
            out[f"{span}_{figure}"] = (value // n, "count") if figure == "calls" else (value / n, "s")
    for metric in ("rows.kernel_hits", "random_order.resparsify_passes"):
        out[metric] = (tracer.counters[metric] // n, "count")
    first = passes[0]
    for metric, key in COUNT_METRICS.items():
        unit = "score" if key == "score_mass" else "count"
        out[metric] = (first.counts.get(key, 0), unit)
    traced = statistics.median(p.rows_per_s for p in passes)
    out["trace.overhead"] = (untraced.rows_per_s / traced - 1.0, "ratio")
    return out


# -- output ----------------------------------------------------------------------


def _number(value):
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def report(result: Result, trace: bool) -> dict:
    metrics = result.layers if trace else result.end_to_end()
    first = result.passes[0]
    print(f"== {result.workload}: {len(result.all_passes())} passes, "
          f"attempted {result.attempted}, failed {result.failed}, "
          f"kept-index digest {first.digest[:16]}, "
          f"box slowdown {statistics.median(result.box):.3f} (times are divided by it)")
    for name, (value, unit) in metrics.items():
        print(f"   {name:34s} {value:>16.6g} {unit}")
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": _number(v), "unit": u} for name, (v, u) in metrics.items()},
    }


def self_check(seed: int, seconds: float) -> int:
    """Run every workload twice untraced and twice traced; 0 when they repeat.

    Counts, per-layer call counts and kept-index digests must match exactly;
    timing metrics must agree within the bounds in BENCHMARK.json.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = []
    for workload in WORKLOADS:
        a, b = (run_workload(workload, seed, seconds, False) for _ in range(2))
        ta, tb = (run_workload(workload, seed, seconds, True) for _ in range(2))
        runs = (a, b, ta, tb)
        if len({r.passes[0].digest for r in runs}) != 1:
            bad.append(f"{workload}: kept-index digests differ")
        for r in runs:
            if not r.correct or r.failed:
                bad.append(f"{workload}: {r.failed} failed, passes repeat: {r.correct}")
        ea, eb = a.end_to_end(), b.end_to_end()
        for name in ("sketch_rows", "peak_working_rows"):
            if ea[name] != eb[name]:
                bad.append(f"{workload}: {name} {ea[name][0]} vs {eb[name][0]}")
        for name in ("rows_per_s", "wall_s", "setup_s"):
            x, y = ea[name][0], eb[name][0]
            if abs(x - y) > bounds[name] * min(x, y):
                bad.append(f"{workload}: {name} {x:.4g} vs {y:.4g} beyond bound {bounds[name]}")
        calls = [{k: v for k, v in r.layers.items() if v[1] == "count"} for r in (ta, tb)]
        if calls[0] != calls[1]:
            diff = sorted(k for k in calls[0] if calls[0][k] != calls[1].get(k))
            bad.append(f"{workload}: per-layer counts differ: {', '.join(diff)}")
        print(f"self-check {workload}: digest {a.passes[0].digest[:16]}, "
              f"rows_per_s {ea['rows_per_s'][0]:.1f} / {eb['rows_per_s'][0]:.1f}")
    for line in bad:
        print("self-check FAILED", line)
    print("self-check", "FAILED" if bad else "passed")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload twice untraced and twice traced, check they repeat")
    args = ap.parse_args(argv)
    global ss
    ss = import_package()
    if args.self_check:
        return self_check(args.seed, args.seconds)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [report(run_workload(w, args.seed, args.seconds, bool(args.trace)), bool(args.trace))
               for w in names]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{k}": v for w, r in zip(names, results) for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
