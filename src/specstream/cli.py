"""Command-line entry point: gen | run | verify | bench.

Exit codes: 0 pass, 1 failure (verification miss, file mismatch, runtime
error), 2 usage. All randomness flows from the declared seeds, so a
repeated invocation reproduces its output files byte for byte.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import io as sio
from .bench import ALGO_NAMES, SUITE_NAMES, bench_suite, run_sampler, unread_settings, write_csv
from .errors import SpecstreamError
from .instances import gen_gaussian, gen_kd_multigraph, gen_mu_controlled, permute
from .verify import mu as measure_mu
from .verify import verify


def _cmd_gen(args) -> int:
    if args.kind == "kd":
        if args.d is None or args.copies is None:
            raise SpecstreamError("gen --kind kd needs --d and --copies")
        stream = gen_kd_multigraph(args.d, args.copies)
    elif args.kind == "gaussian":
        if args.n is None or args.d is None:
            raise SpecstreamError("gen --kind gaussian needs --n and --d")
        stream = gen_gaussian(args.n, args.d, args.seed)
    else:
        if args.d is None or args.levels is None or args.gamma is None:
            raise SpecstreamError("gen --kind mu needs --d, --levels and --gamma")
        stream = gen_mu_controlled(args.d, args.levels, args.gamma)
    if args.perm_seed is not None:
        stream = permute(stream, args.perm_seed)
    sio.write_stream(args.out, stream)
    print(f"wrote {args.out}: n={stream.n} d={stream.d} "
          f"meta={json.dumps(stream.meta, sort_keys=True)}")
    return 0


def _unread_run_flag(args) -> str | None:
    """The first run flag given that the chosen algorithm would not read."""
    unread = unread_settings(args.algo, use_jl=args.jl, c_mult=args.c_mult, plug_beta=args.plug_beta)
    # a flag is its setting's name, but --jl sets use_jl
    return "--" + unread[0].replace("use_", "").replace("_", "-") if unread else None


def _cmd_run(args) -> int:
    stream = sio.read_stream(args.input)
    if args.perm_seed is not None:
        stream = permute(stream, args.perm_seed)
    sketch, stats = run_sampler(args.algo, stream, args.eps, args.seed,
                                c_mult=args.c_mult, use_jl=args.jl, plug_beta=args.plug_beta)
    run = {
        "algo": args.algo,
        "eps": args.eps,
        "seed_sample": args.seed,
        "seed_perm": args.perm_seed if args.perm_seed is not None else 0,
    }
    sio.write_sketch(args.out, sketch, stream, {**run, "source": stream.meta})
    _write_diag(args.diag or args.out + ".diag",
                {"kind": "run", **run, "n": stream.n, "d": stream.d}, sketch, stats)
    print(f"wrote {args.out}: {sketch.n_rows} of {stream.n} rows "
          f"(score_total={stats.score_total:.6g})")
    return 0


def _write_diag(path, run: dict, sketch, stats) -> None:
    """The sidecar: the run line, the score log if the run keeps one, and a
    summary of sketch_rows and every counter that is not None."""
    summary = {name: value for name, value in stats.counters().items() if value is not None}
    lines = [run]
    if stats.scores is not None:
        lines.append({"kind": "scores", "values": [float(s) for s in stats.scores]})
    lines.append({"kind": "summary", "sketch_rows": sketch.n_rows, **summary})
    with open(path, "w") as fh:
        fh.write("".join(json.dumps(obj, sort_keys=True) + "\n" for obj in lines))


def _read_diag_scores(path) -> list[float] | None:
    with open(path) as fh:
        for line in fh:
            obj = json.loads(line)
            if obj.get("kind") == "scores":
                return obj["values"]
    return None


def _cmd_verify(args) -> int:
    stream = sio.read_stream(args.stream)
    if args.mu:
        value = measure_mu(stream)
        print(f"mu = {value:.17g}")
        if args.sketch is None:
            return 0
    if args.sketch is None:
        raise SpecstreamError("verify needs --sketch (or --mu alone)")
    sketch, _meta = sio.read_sketch(args.sketch)
    scores = _read_diag_scores(args.diag) if args.diag else None
    eps_actual, overestimate_ok = verify(stream, sketch, scores=scores)
    print(f"eps_actual = {eps_actual:.17g}")
    if overestimate_ok is None:
        print("overestimate audit: skipped (no score log)")
    else:
        print(f"overestimate audit: {'ok' if overestimate_ok else 'VIOLATED'}")
    ok = True
    if args.eps is not None:
        ok = eps_actual <= args.eps
        print(f"{'PASS' if ok else 'FAIL'} (eps_actual {'<=' if ok else '>'} {args.eps:g})")
    if overestimate_ok is False:
        ok = False
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    records, summary = bench_suite(args.suite)
    if args.out:
        write_csv(args.out, records)
        print(f"wrote {args.out}: {len(records)} records")
    for key, value in summary.items():
        if key in ("suite", "pass"):
            continue
        print(f"{key} = {value}")
    ok = bool(summary["pass"])
    print(f"{summary['suite']}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="specstream",
        description="Streaming spectral row sampling: generate, run, verify, bench.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance stream file")
    g.add_argument("--kind", choices=("kd", "gaussian", "mu"), required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--copies", type=int)
    g.add_argument("--levels", type=int)
    g.add_argument("--gamma", type=float)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--perm-seed", type=int, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen)

    r = sub.add_parser("run", help="run a sampler over a stream file")
    r.add_argument("--algo", choices=ALGO_NAMES, required=True)
    r.add_argument("--eps", type=float, required=True)
    r.add_argument("--input", "-i", required=True)
    r.add_argument("--out", "-o", required=True)
    r.add_argument("--diag", default=None,
                   help="diagnostics sidecar path (default: <out>.diag)")
    r.add_argument("--seed", type=int, default=0, help="sampling seed")
    r.add_argument("--perm-seed", type=int, default=None,
                   help="permute the input stream before running")
    r.add_argument("--c-mult", type=float, default=None, help="not with --algo optimal")
    r.add_argument("--jl", action="store_true",
                   help="score through a JL projection (not with --algo online or optimal)")
    r.add_argument("--plug-beta", type=float, default=None, help="needs --algo improved-resparsify")
    r.set_defaults(func=_cmd_run)

    v = sub.add_parser("verify", help="verify a sketch against its stream")
    v.add_argument("--stream", required=True)
    v.add_argument("--sketch", default=None)
    v.add_argument("--eps", type=float, default=None)
    v.add_argument("--diag", default=None, help="sidecar with the score log")
    v.add_argument("--mu", action="store_true", help="measure the stream condition number")
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bench", help="run a benchmark suite")
    b.add_argument("--suite", required=True, choices=SUITE_NAMES)
    b.add_argument("--out", default=None, help="CSV output path")
    b.set_defaults(func=_cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    unread = _unread_run_flag(args) if args.command == "run" else None
    if unread:
        parser.error(f"run --algo {args.algo}: {unread} has no effect here")
    try:
        return args.func(args)
    except (SpecstreamError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
