"""In-memory span recorder and the module-boundary wrappers that feed it.

A traced run wraps every public module-level function of the layers in
``LAYERS`` (plus the methods in ``METHODS``) in every ``ejaopt.*``
namespace that binds them, so each call into a layer opens a span whether
it comes from the benchmark or from another module.  Spans are appended to
flat arrays (name id, start, end, parent, op id); self time is computed
after the run as a span's duration minus the durations of its direct
children, which cover disjoint sub-intervals of it on a single thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "ejaopt"
LAYERS = ("algebra", "majorization", "schur", "orbit", "condition", "verify", "cli")

#: (layer, class, method): methods wrapped on the class itself; the span
#: is named ``<layer>.<class>``.
METHODS = (("schur", "SymmetricFunction", "__call__"),)

ROOT = "bench.op"


class SpanRecorder:
    """Spans of one traced phase, kept in memory until ``aggregate``/``save``."""

    def __init__(self):
        self.names = [ROOT]
        self._name_ids = {ROOT: 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = []
        self.op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` inside a root span tagged with ``op_id``."""
        self.op_id = op_id
        idx = self.enter(0)
        try:
            return fn(*args)
        finally:
            self.exit(idx)

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return dur - child

    def aggregate(self) -> dict:
        """Per span name: call count and total self time in seconds, plus
        the number of ops and their summed root-span wall time."""
        a = self.arrays()
        self_t = self.self_times()
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_sum = np.bincount(a["name"], weights=self_t, minlength=k)
        is_root = a["name"] == 0
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_sum[i]) for i, n in enumerate(self.names)},
            "ops": int(np.count_nonzero(is_root)),
            "op_wall_s": float(np.sum(a["end"][is_root] - a["start"][is_root])),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _traced(fn, rec: SpanRecorder, name_id: int):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.enter(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit(idx)

    return traced


class Tracer:
    """Context manager that installs span wrappers and restores the
    original functions on exit.

    ``required`` lists span names the caller intends to read; those that
    no longer exist in the library are reported in ``missing`` instead of
    raising, so a later refactor that renames a function degrades the
    trace rather than the run.
    """

    def __init__(self, recorder: SpanRecorder, required=()):
        self.recorder = recorder
        self.required = tuple(required)
        self.wrapped = set()
        self.missing = []
        self._restore = []

    def _modules(self):
        mods = {}
        for layer in LAYERS:
            try:
                mods[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
        return mods

    def __enter__(self):
        mods = self._modules()
        originals = {}
        for layer, mod in mods.items():
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                ):
                    originals[id(value)] = (f"{layer}.{attr}", value)
        namespaces = [sys.modules[PACKAGE], *mods.values()]
        wrappers = {}
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = originals.get(id(value))
                if hit is None:
                    continue
                name, fn = hit
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = _traced(fn, self.recorder, self.recorder.name_id(name))
                self._restore.append((ns, attr, fn))
                setattr(ns, attr, wrappers[id(fn)])
                self.wrapped.add(name)
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods.get(layer), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if not isinstance(fn, types.FunctionType):
                continue
            name = f"{layer}.{cls_name}"
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, _traced(fn, self.recorder, self.recorder.name_id(name)))
            self.wrapped.add(name)
        self.missing = sorted(n for n in self.required if n not in self.wrapped)
        return self

    def __exit__(self, *exc):
        for ns, attr, fn in reversed(self._restore):
            setattr(ns, attr, fn)
        self._restore.clear()
        return False
