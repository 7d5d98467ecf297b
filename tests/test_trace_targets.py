"""The benchmark's traced run patches package names from outside the package.

perfbench/spans.py wraps functions and methods of specstream by name. A
refactor that drops or renames one of them must fail here, not only when
the benchmark runs with --trace 1.
"""
import importlib.util
import sys
from pathlib import Path

import specstream  # noqa: F401  (loads every module the tracer resolves)

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def owners():
    """Every specstream module and every class defined in one."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "specstream" or name.startswith("specstream."):
            found.append(mod)
            found.extend(
                v for v in vars(mod).values()
                if isinstance(v, type) and v.__module__.startswith("specstream")
            )
    return found


def attributes():
    return {(id(o), attr): value for o in owners() for attr, value in vars(o).items()}


def test_install_then_restore_puts_every_original_back():
    spans = load_spans()
    before = attributes()
    tracer = spans.Tracer()
    tracer.install()  # raises KeyError when a patched name is gone
    try:
        during = attributes()
        patched = {key for key, value in during.items() if before.get(key) is not value}
        # every SPANS entry plus kernel_residual, the scaled step, the
        # resparsify add and Sketch.gram
        assert len(patched) >= len(spans.SPANS) + 4
    finally:
        tracer.restore()
    after = attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def run_every_entry(ss):
    """Indices and weights of the sketch each public entry draws from one
    small sparse stream, the one-row entries each taking its first row.
    Every entry is looked up on the package or its class when it runs, so
    an installed tracer's wrappers are the ones called."""
    stream = ss.permute(ss.gen_kd_multigraph(5, 40), seed=1)
    d, row = stream.d, stream.row(0)
    sketches = {
        "run_online": ss.run_online(stream, 0.5, 3)[0],
        "run_barrier": ss.run_barrier(stream, 0.5, 3)[0],
        "scaled_sampling": ss.scaled_sampling(stream, 0.5, 3)[0],
        "scaled_sampling-jl": ss.scaled_sampling(stream, 0.5, 3, use_jl=True)[0],
        "improved-scaled": ss.improved_scaled_sampling(
            stream, 0.5, 3, ss.ScaledSampler(d, 0.5, seed=4))[0],
        "improved-resparsify": ss.improved_scaled_sampling(
            stream, 0.5, 3, ss.ResparsifyApprox(4.0, 0.45, seed=4, dim=d))[0],
    }
    online, barrier = ss.OnlineState(d, 0.5, seed=3), ss.BarrierState(d, 0.5, seed=3)
    ss.online_step(online, row, 0)
    ss.barrier_step(barrier, row, 0)
    block, plug = ss.BlockSampler(d, 0.5, seed=3), ss.ResparsifyApprox(4.0, 0.45, seed=4, dim=d)
    sketch = ss.Sketch(d)
    block.step(0, row)
    plug.add(0, row)
    sketch.append(0, 2.0, row)
    sketches.update({"online_step": online.sketch, "barrier_step": barrier.sketch,
                     "BlockSampler.step": block.sketch, "ResparsifyApprox.add": plug.query(),
                     "Sketch.append": sketch})
    return {name: (sk.indices, sk.weights) for name, sk in sketches.items()}


def test_traced_run_of_every_entry_matches_untraced():
    # the tracer's wrappers take the arguments the package passes, so a
    # traced run decides as an untraced one and records each entry's spans
    untraced = run_every_entry(specstream)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        traced = run_every_entry(specstream)
    finally:
        tracer.restore()
    assert traced == untraced
    assert all(indices for indices, _ in untraced.values())
    calls = {name: count for name, (count, _, _) in tracer.totals(0, tracer.mark()).items()}
    for name in ("entry.run_online", "entry.run_barrier", "entry.scaled_sampling",
                 "entry.improved_scaled_sampling", "online.online_step", "online.barrier_step",
                 "random_order.step", "random_order.plug_add", "sketch.append"):
        assert calls[name] > 0, name
