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
