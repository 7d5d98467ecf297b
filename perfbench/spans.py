"""Span tracing for the benchmark's traced run, installed from outside the package.

Tracer.install() wraps public functions and methods of specstream in place:
a function is wrapped under every name a specstream module holds it by, so
a sampler module that did `from .linalg import pinv` calls the wrapper too.
Each call records a span (name, start, end, parent) in flat in-memory
arrays; restore() puts every original back. Untraced runs never install a
tracer, so they run the program unchanged.
"""
from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module or class path, attribute, span name); a method of a class is
# patched on the class, a function under every name that holds it. The
# entry.* spans are the roots: each holds the spans of one operation.
SPANS = (
    ("specstream.instances", "gen_kd_multigraph", "instances.gen"),
    ("specstream.instances", "gen_gaussian", "instances.gen"),
    ("specstream.instances", "permute", "instances.permute"),
    ("specstream.rows", "quad_form", "rows.quad_form"),
    ("specstream.rows", "add_outer", "rows.add_outer"),
    ("specstream.linalg", "pinv", "linalg.pinv"),
    ("specstream.linalg", "pinv_rank1_update", "linalg.pinv_rank1_update"),
    ("specstream.linalg", "pinv_quad_form", "linalg.pinv_quad_form"),
    ("specstream.linalg.SymPsd", "__init__", "linalg.sympsd"),
    ("specstream.randomness.IndexedUniforms", "take", "randomness.take"),
    ("specstream.sketch.Sketch", "append", "sketch.append"),
    ("specstream.online", "run_online", "entry.run_online"),
    ("specstream.online", "run_barrier", "entry.run_barrier"),
    ("specstream.online", "online_step", "online.online_step"),
    ("specstream.online", "barrier_step", "online.barrier_step"),
    ("specstream.random_order", "scaled_sampling", "entry.scaled_sampling"),
    ("specstream.random_order", "improved_scaled_sampling", "entry.improved_scaled_sampling"),
    ("specstream.random_order.ImprovedSampler", "step", "random_order.step"),
    ("specstream.random_order.ScaledSampler", "add", "random_order.plug_add"),
    ("specstream.random_order.ScaledSampler", "query", "random_order.plug_query"),
    ("specstream.random_order.ResparsifyApprox", "query", "random_order.plug_query"),
    ("specstream.jl", "jl_build", "jl.jl_build"),
    ("specstream.jl.JlScorer", "score", "jl.score"),
    ("specstream.verify", "verify", "verify.verify"),
    ("specstream.verify", "approx_factor", "verify.approx_factor"),
    ("specstream.verify", "leverage_scores", "verify.leverage_scores"),
)


def _resolve(path: str):
    """Module or class by dotted path, through sys.modules.

    specstream.verify names the re-exported function on the package, so the
    module is looked up in sys.modules rather than by attribute.
    """
    if path in sys.modules:
        return sys.modules[path]
    mod, _, cls = path.rpartition(".")
    return getattr(sys.modules[mod], cls)


class Tracer:
    """Flat span log plus counters; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def current(self) -> int:
        """Name id of the innermost open span, -1 outside any span."""
        top = self._stack[-1]
        return self.name[top] if top >= 0 else -1

    def wrap(self, fn, name: str):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    # -- installing -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, fn, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname == "specstream" or modname.startswith("specstream."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every SPANS entry plus the three wrappers that also count."""
        for path, attr, name in SPANS:
            owner = _resolve(path)
            fn = owner.__dict__[attr]
            if isinstance(owner, type):
                self._set(owner, attr, self.wrap(fn, name))
            else:
                self._patch_function(fn, self.wrap(fn, name))
        self._install_counting()

    def _install_counting(self) -> None:
        linalg = sys.modules["specstream.linalg"]
        rows = sys.modules["specstream.rows"]
        random_order = sys.modules["specstream.random_order"]
        sketch_cls = sys.modules["specstream.sketch"].Sketch
        ortho_tol = linalg.DEFAULT_ORTHO_TOL

        residual = rows.kernel_residual
        residual_id = self.name_id("rows.kernel_residual")

        @functools.wraps(residual)
        def kernel_residual(projector, row):
            i = self.open(residual_id)
            try:
                res = residual(projector, row)
            finally:
                self.close(i)
            vals = row[1] if isinstance(row, tuple) else row
            if res > ortho_tol * float(np.linalg.norm(vals)):
                self.counters["rows.kernel_hits"] += 1
            return res

        self._patch_function(residual, kernel_residual)

        # A ScaledSampler serving as a plug steps inside the plug's add; its
        # steps are plug work, not the outer sampler's.
        scaled_step = random_order.ScaledSampler.__dict__["step"]
        step_id = self.name_id("random_order.step")
        plug_step_id = self.name_id("random_order.plug_step")
        plug_add_id = self.name_id("random_order.plug_add")

        @functools.wraps(scaled_step)
        def step(sampler, index, row):
            i = self.open(plug_step_id if self.current() == plug_add_id else step_id)
            try:
                return scaled_step(sampler, index, row)
            finally:
                self.close(i)

        self._set(random_order.ScaledSampler, "step", step)

        # A resparsify pass shows from outside as the buffer shrinking.
        resparsify_add = random_order.ResparsifyApprox.__dict__["add"]

        @functools.wraps(resparsify_add)
        def add(plug, index, row):
            before = plug.n_rows
            i = self.open(plug_add_id)
            try:
                resparsify_add(plug, index, row)
            finally:
                self.close(i)
            if plug.n_rows <= before:
                self.counters["random_order.resparsify_passes"] += 1

        self._set(random_order.ResparsifyApprox, "add", add)

        gram = sketch_cls.__dict__["gram"]
        self._set(sketch_cls, "gram", property(self.wrap(gram.fget, "sketch.gram")))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading --------------------------------------------------------------

    def mark(self) -> int:
        """Position in the span log, to aggregate a stretch of the run."""
        return len(self.start)

    def totals(self, lo: int, hi: int) -> dict[str, tuple[int, float, float]]:
        """Per span name over spans lo..hi-1: (calls, inclusive s, self s).

        A span's self time is its duration minus its direct children's
        durations; a child lies inside its parent, so that is the part of
        the parent's interval its children cover.
        """
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi])
        inner = parent >= lo
        child = np.bincount(parent[inner] - lo, weights=dur[inner], minlength=hi - lo)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {
            self.names[j]: (int(calls[j]), float(incl[j]), float(self_s[j]))
            for j in range(k)
        }

    def write(self, path) -> None:
        """Spans as arrays: names, name id, parent index, start and end in s."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
