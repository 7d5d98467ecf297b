"""End-to-end acceptance gate: one test per numbered criterion.

`pytest -v tests/test_acceptance.py` prints exactly one pass/fail line per
criterion. Each test measures every sub-clause first, prints the numbers,
and asserts at the end, so a failure names the clause and its distance to
the bar.

The two size clauses check the online sampler against its own sampling
law rather than against asymptotic bars. It keeps row i with
p_i = min(c * l_i, 1), so at this scale the first rows, roughly c * d of
them, are kept at p = 1 and that head grows with c. Criterion 3 brackets
the median size with the exact online leverage tau_i of its stream
(tests/oracles.py): a sketch that tracks every prefix within eps has
tau_i <= l_i <= (1 + eps) / (1 - eps) * tau_i. Criterion 6 centres the
eps-halving band on the ratio the same law predicts (bench.py).
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from specstream import (
    ResparsifyApprox,
    ScaledSampler,
    SymPsd,
    gen_gaussian,
    improved_scaled_sampling,
    leverage_scores,
    min_nonzero_eig,
    permute,
    pinv,
    pinv_rank1_update,
    pseudo_det,
    relative_leverage,
    run_barrier,
    run_online,
    scaled_sampling,
    verify,
)
from specstream.bench import (
    BENCH_ONLINE_C_MULT,
    BENCH_PLUG_BETA,
    BENCH_PLUG_CAPACITY_MULT,
    bench_suite,
    read_csv,
    run_trial,
)
from specstream.cli import main as cli_main
from specstream.randomness import derive_seed

import oracles
from conftest import make_psd, make_stream

GRID_ALGOS = ("scaled", "improved-self", "improved-resparsify")
GRID_N, GRID_D, GRID_EPS = 4000, 10, 0.3
GRID_STREAM_SEED = 314


def psd_cases(count, seed):
    """(matrix, d) pairs with d in 2..12, mixed rank and scale."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(2, 13))
        r = int(rng.integers(1, d + 1))
        scale = 10.0 ** rng.integers(-2, 3)
        yield make_psd(d, r, rng.integers(1 << 30), scale=scale), d


def report(label, checks):
    lines = [
        f"{label} | {name}: {detail} -> {'PASS' if ok else 'FAIL'}"
        for name, ok, detail in checks
    ]
    print("\n".join(lines))
    bad = [name for name, ok, _ in checks if not ok]
    assert not bad, f"{label}: failing clauses {bad}\n" + "\n".join(lines)


@pytest.fixture(scope="module")
def sampling_grid():
    """Shared random-order grid: 3 algorithms x 100 (perm, sample) pairs."""
    t0 = time.perf_counter()
    base = gen_gaussian(GRID_N, GRID_D, seed=GRID_STREAM_SEED)
    records = {algo: [] for algo in GRID_ALGOS}
    for s in range(100):
        stream = permute(base, seed=derive_seed(315, s))
        for algo in GRID_ALGOS:
            rec, _ = run_trial(
                algo, stream, GRID_EPS, GRID_STREAM_SEED, s, derive_seed(316, s),
            )
            records[algo].append(rec)
    return {"records": records, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def n_scaling():
    """Shared n-sweep: size fit for criterion 6b, working set for criterion 10."""
    t0 = time.perf_counter()
    records, summary = bench_suite("n-scaling", seeds=20)
    return {"records": records, "summary": summary, "elapsed": time.perf_counter() - t0}


def test_criterion_01_kernel_math_oracles():
    t0 = time.perf_counter()
    checks = []

    worst = 0.0
    for m, d in psd_cases(200, seed=101):
        p = pinv(SymPsd(m))
        scale = max(1.0, float(np.linalg.norm(m)), float(np.linalg.norm(p.matrix)))
        worst = max(worst, oracles.penrose_residual(m, p.matrix) / scale)
    checks.append(("penrose", worst <= 1e-7, f"worst residual {worst:.3g} <= 1e-7"))

    rng = np.random.default_rng(102)
    worst = 0.0
    for m, d in psd_cases(200, seed=103):
        p = pinv(SymPsd(m))
        u = p.projector @ rng.standard_normal(d)
        k = float(rng.uniform(0.2, 1.5))
        updated = pinv_rank1_update(p, u, k)
        direct = pinv(SymPsd(m + k * np.outer(u, u)))
        worst = max(worst, oracles.rel_err(updated.matrix, direct.matrix))
    checks.append(("rank1-update", worst <= 1e-7, f"worst rel err {worst:.3g} <= 1e-7"))

    rng = np.random.default_rng(104)
    worst = 0.0
    for m, d in psd_cases(200, seed=105):
        s = SymPsd(m)
        p = pinv(s)
        u = p.projector @ rng.standard_normal(d)
        lhs = pseudo_det(SymPsd(m + np.outer(u, u)))
        rhs = pseudo_det(s) * (1.0 + float(u @ p.matrix @ u))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    checks.append(("det-rank1", worst <= 1e-7, f"worst rel err {worst:.3g} <= 1e-7"))

    rng = np.random.default_rng(106)
    worst_margin = math.inf
    for _ in range(200):
        d = int(rng.integers(2, 13))
        r = int(rng.integers(1, d))
        m = make_psd(d, r, int(rng.integers(1 << 30)))
        u = rng.standard_normal(d)
        grown = SymPsd(m + np.outer(u, u))
        lhs = pseudo_det(grown)
        rhs = min_nonzero_eig(grown) * pseudo_det(SymPsd(m))
        worst_margin = min(worst_margin, lhs / rhs - 1.0)
    checks.append((
        "det-growth", worst_margin >= -1e-7,
        f"worst margin {worst_margin:.3g} >= -1e-7",
    ))

    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 13))
        a = make_psd(d, int(rng.integers(1, d + 1)), int(rng.integers(1 << 30)))
        b = a + make_psd(d, int(rng.integers(1, d + 1)), int(rng.integers(1 << 30)))
        pa, pb = pinv(SymPsd(a)), pinv(SymPsd(b))
        x = pa.projector @ rng.standard_normal(d)
        qa = float(x @ pa.matrix @ x)
        qb = float(x @ pb.matrix @ x)
        worst = max(worst, (qb - qa) / max(qa, 1.0))
    checks.append(("pinv-ordering", worst <= 1e-7, f"worst excess {worst:.3g} <= 1e-7"))

    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 13))
        n = int(rng.integers(d, 2 * d + 4))
        b_rows = rng.standard_normal((n, d))
        if rng.uniform() < 0.5:
            b_rows = b_rows @ np.outer(np.ones(d), np.ones(d)) / d  # rank 1
        a = rng.standard_normal(d)
        got = relative_leverage(pinv(SymPsd(b_rows.T @ b_rows)), a)
        want = oracles.stacked_relative_leverage(b_rows, a)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    checks.append(("relative-leverage", worst <= 1e-7, f"worst rel err {worst:.3g} <= 1e-7"))

    elapsed = time.perf_counter() - t0
    checks.append(("budget", elapsed < 5.0, f"{elapsed:.2f}s < 5s"))
    report("criterion 1", checks)


def test_criterion_02_leverage_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(201)
    worst_low, worst_high, worst_sum = 0.0, 0.0, 0.0
    for _ in range(100):
        d = int(rng.integers(2, 13))
        n = int(rng.integers(d + 2, 3 * d + 4))
        r = int(rng.integers(1, d + 1))
        coeffs = rng.standard_normal((n, r))
        basis = rng.standard_normal((r, d))
        arr = coeffs @ basis
        scores = leverage_scores(make_stream(arr))
        worst_low = max(worst_low, float(-scores.min()))
        worst_high = max(worst_high, float(scores.max() - 1.0))
        rank = int(np.linalg.matrix_rank(arr, tol=1e-6))
        worst_sum = max(worst_sum, abs(float(scores.sum()) - rank))
    elapsed = time.perf_counter() - t0
    report("criterion 2", [
        ("range", worst_low <= 0.0 and worst_high <= 0.0,
         f"below-0 excess {worst_low:.3g}, above-1 excess {worst_high:.3g}"),
        ("mass", worst_sum <= 1e-6, f"worst |sum - rank| {worst_sum:.3g} <= 1e-6"),
        ("budget", elapsed < 5.0, f"{elapsed:.2f}s < 5s"),
    ])


def test_criterion_03_online_guarantee_and_size():
    t0 = time.perf_counter()
    d, eps = 10, 0.3
    stream = gen_gaussian(1000, d, seed=311)
    passes, sizes = 0, []
    for s in range(100):
        sketch, _ = run_online(stream, eps, seed=derive_seed(312, s),
                               c_mult=BENCH_ONLINE_C_MULT)
        eps_actual, _ = verify(stream, sketch)
        passes += eps_actual <= eps
        sizes.append(sketch.n_rows)
    median = float(np.median(sizes))
    c = BENCH_ONLINE_C_MULT * eps ** -2 * math.log(d)
    lo, hi = oracles.online_size_bracket(
        oracles.exact_online_leverage(stream.materialize()), c, eps,
    )
    elapsed = time.perf_counter() - t0
    report("criterion 3", [
        ("guarantee", passes >= 95, f"eps_actual <= 0.3 on {passes}/100 (>= 95)"),
        ("size", lo <= median <= hi,
         f"median rows {median:g} in leverage bracket [{lo:.1f}, {hi:.1f}]"),
        ("budget", elapsed < 60.0, f"{elapsed:.1f}s < 60s"),
    ])


def test_criterion_04_barrier_guarantee_and_sandwich():
    stream = gen_gaussian(1000, 10, seed=311)
    passes = 0
    for s in range(100):
        sketch, _ = run_barrier(stream, 0.5, seed=derive_seed(412, s))
        eps_actual, _ = verify(stream, sketch)
        passes += eps_actual <= 0.5

    audited = gen_gaussian(200, 6, seed=411)
    sketch, _ = run_barrier(audited, 0.5, seed=413)
    gaps = oracles.barrier_gaps(audited, sketch, 0.5)
    tol = 1e-7 * 1.5 * float(np.trace(audited.gram_matrix()))
    worst_gap = float(gaps.min())
    report("criterion 4", [
        ("guarantee", passes >= 95, f"eps_actual <= 0.5 on {passes}/100 (>= 95)"),
        ("audit-length", len(gaps) == 200, f"{len(gaps)} audited steps == 200"),
        ("sandwich", worst_gap >= -tol,
         f"worst barrier gap {worst_gap:.3g} >= -{tol:.3g}"),
    ])


def test_criterion_05_random_order_guarantees(sampling_grid):
    records = sampling_grid["records"]
    checks = []
    bars = {"scaled": 95, "improved-self": 95, "improved-resparsify": 90}
    for algo in GRID_ALGOS:
        passes = sum(r.eps_actual <= GRID_EPS for r in records[algo])
        checks.append((
            f"{algo}-guarantee", passes >= bars[algo],
            f"eps_actual <= {GRID_EPS} on {passes}/100 (>= {bars[algo]})",
        ))
    bad_recomp = sum(
        r.pinv_recomputes != 7 for algo in GRID_ALGOS for r in records[algo]
    )
    checks.append(("block-recomputes", bad_recomp == 0,
                   f"{bad_recomp} runs off the 7-block schedule"))
    elapsed = sampling_grid["elapsed"]
    checks.append(("budget", elapsed < 300.0, f"grid took {elapsed:.1f}s < 300s"))
    report("criterion 5", checks)


def test_criterion_06_size_laws(n_scaling):
    t0 = time.perf_counter()
    _, eps_summary = bench_suite("eps-scaling", seeds=50)
    _, mu_summary = bench_suite("mu-scaling")
    elapsed = time.perf_counter() - t0 + n_scaling["elapsed"]
    ratio = eps_summary["ratio"]
    lo, hi = eps_summary["band"]
    fit = n_scaling["summary"]["fit"]
    report("criterion 6", [
        ("eps-ratio", lo <= ratio <= hi,
         f"halving eps multiplies size by {ratio:.3f} (predicted "
         f"{eps_summary['predicted_ratio']:.3f}, band {lo:.3f}..{hi:.3f})"),
        ("n-fit", fit["r2"] >= 0.85,
         f"rows vs log n fit R^2 {fit['r2']:.4f} >= 0.85 "
         f"(slope {fit['slope_per_doubling']:.1f}/doubling)"),
        ("mu-fit", mu_summary["fit"]["r2"] >= 0.9,
         f"score mass vs log mu fit R^2 {mu_summary['fit']['r2']:.4f} >= 0.9"),
        ("budget", elapsed < 600.0, f"{elapsed:.1f}s < 600s"),
    ])


def test_criterion_07_overestimate_audits():
    online_ok = 0
    for s in range(100):
        stream = gen_gaussian(2000, 8, seed=derive_seed(701, s))
        sketch, diag = run_online(stream, 0.3, seed=derive_seed(702, s),
                                  c_mult=BENCH_ONLINE_C_MULT)
        _, audit = verify(stream, sketch, scores=diag.scores)
        online_ok += bool(audit)

    scaled_ok = 0
    for s in range(100):
        stream = permute(gen_gaussian(2000, 8, seed=derive_seed(703, s)),
                         seed=derive_seed(704, s))
        sketch, diag = scaled_sampling(stream, 0.3, seed=derive_seed(705, s))
        _, audit = verify(stream, sketch, scores=diag.scores)
        scaled_ok += bool(audit)

    report("criterion 7", [
        ("online", online_ok >= 95, f"scores dominate leverage on {online_ok}/100 (>= 95)"),
        ("scaled", scaled_ok >= 95, f"scores dominate leverage on {scaled_ok}/100 (>= 95)"),
    ])


def test_criterion_08_projected_scoring_fidelity(sampling_grid):
    t0 = time.perf_counter()
    base = gen_gaussian(GRID_N, GRID_D, seed=GRID_STREAM_SEED)
    exact_passes = sum(
        r.eps_actual <= GRID_EPS for r in sampling_grid["records"]["improved-self"]
    )
    jl_passes = 0
    fracs = []
    for s in range(100):
        stream = permute(base, seed=derive_seed(315, s))
        seed = derive_seed(316, s)
        audit = s < 3  # three fully audited runs carry the fidelity clause
        plug = ScaledSampler(GRID_D, GRID_EPS, derive_seed(seed, 1), n_hint=GRID_N)
        sketch, diag = improved_scaled_sampling(stream, GRID_EPS, seed, plug, use_jl=True,
                                                jl_audit=audit, n_hint=GRID_N)
        eps_actual, _ = verify(stream, sketch)
        jl_passes += eps_actual <= GRID_EPS
        if audit:
            fracs.append(float(np.mean(
                np.abs(diag.jl_scores - diag.exact_scores) <= 0.5 * diag.exact_scores
            )))
    delta = abs(jl_passes - exact_passes) / 100.0
    elapsed = time.perf_counter() - t0
    report("criterion 8", [
        ("fidelity", float(np.median(fracs)) >= 0.99,
         f"median in-band score fraction {np.median(fracs):.4f} >= 0.99"),
        ("pass-rate", delta <= 0.03,
         f"projected {jl_passes}/100 vs exact {exact_passes}/100, delta {delta:.2f} <= 0.03"),
        ("budget", elapsed < 120.0, f"{elapsed:.1f}s < 120s"),
    ])


def test_criterion_09_random_order_structure():
    _, summary = bench_suite("lower-bound-probe", seeds=100)
    report("criterion 9", [
        ("uniform-prefixes", summary["uniform_prefix_rate"] >= 0.95,
         f"edge counts in band on {summary['uniform_prefix_rate']:.0%} (>= 95%)"),
        ("sample-growth", summary["monotone_increment_rate"] >= 0.90,
         f"new samples every doubling on {summary['monotone_increment_rate']:.0%} (>= 90%)"),
    ])


def test_criterion_10_working_set_contract(sampling_grid, n_scaling):
    cap = 2 * ResparsifyApprox(
        BENCH_PLUG_CAPACITY_MULT, BENCH_PLUG_BETA, seed=0, dim=GRID_D,
    ).capacity_rows
    worst = max(
        r.max_working_rows for r in sampling_grid["records"]["improved-resparsify"]
    )
    growth = n_scaling["summary"]["working_growth"]
    report("criterion 10", [
        ("buffer-cap", worst <= cap, f"peak buffered rows {worst} <= {cap}"),
        ("flat-across-n", growth <= 1.05,
         f"peak working set grows x{growth:.3f} over 32x stream growth (<= 1.05)"),
    ])


def test_criterion_11_reproducibility(tmp_path):
    checks = []

    def bytes_of(path):
        with open(path, "rb") as fh:
            return fh.read()

    gen_cases = {
        "gaussian": ["gen", "--kind", "gaussian", "--n", "200", "--d", "6", "--seed", "5"],
        "kd": ["gen", "--kind", "kd", "--d", "5", "--copies", "3"],
        "mu": ["gen", "--kind", "mu", "--d", "4", "--levels", "3", "--gamma", "10"],
    }
    all_same = True
    for name, argv in gen_cases.items():
        a, b = str(tmp_path / f"{name}-a"), str(tmp_path / f"{name}-b")
        assert cli_main(argv + ["--out", a]) == 0
        assert cli_main(argv + ["--out", b]) == 0
        all_same &= bytes_of(a) == bytes_of(b)
    checks.append(("gen-bytes", all_same, "3 generators, double runs byte-identical"))

    src = str(tmp_path / "rep.stream")
    cli_main(["gen", "--kind", "gaussian", "--n", "1500", "--d", "8",
              "--seed", "6", "--perm-seed", "7", "--out", src])
    all_same = True
    for algo_argv in (
        ["--algo", "online", "--eps", "0.3"],
        ["--algo", "improved-resparsify", "--eps", "0.4"],
    ):
        a, b = str(tmp_path / "run-a.sketch"), str(tmp_path / "run-b.sketch")
        assert cli_main(["run", *algo_argv, "--seed", "9", "-i", src, "-o", a]) == 0
        assert cli_main(["run", *algo_argv, "--seed", "9", "-i", src, "-o", b]) == 0
        all_same &= bytes_of(a) == bytes_of(b)
        all_same &= bytes_of(a + ".diag") == bytes_of(b + ".diag")
    checks.append(("run-bytes", all_same, "2 samplers, sketch + sidecar byte-identical"))

    a, b = str(tmp_path / "mu-a.csv"), str(tmp_path / "mu-b.csv")
    assert cli_main(["bench", "--suite", "mu-scaling", "--out", a]) == 0
    assert cli_main(["bench", "--suite", "mu-scaling", "--out", b]) == 0
    strip = lambda rec: dataclasses.replace(rec, wall_ms=0.0)
    csv_same = [strip(r) for r in read_csv(a)] == [strip(r) for r in read_csv(b)]
    checks.append(("bench-csv", csv_same, "mu-scaling CSV identical modulo wall_ms"))

    suite_seeds = {
        "eps-scaling": {"seeds": 5},
        "n-scaling": {"seeds": 2},
        "algo-compare": {"seeds": 5},
        "lower-bound-probe": {"seeds": 5},
    }
    all_same = True
    for suite, kwargs in suite_seeds.items():
        rec_a, _ = bench_suite(suite, **kwargs)
        rec_b, _ = bench_suite(suite, **kwargs)
        all_same &= [strip(r) for r in rec_a] == [strip(r) for r in rec_b]
    checks.append(("suite-records", all_same,
                   "4 suites re-run at reduced seed grids, records identical modulo wall_ms"))

    report("criterion 11", checks)
