"""Span tracing of wavedens from outside the package.

`Tracer.install` wraps every public function of the traced modules and
rebinds the wrapper at each module attribute that holds the function,
because the package imports with `from .x import f` and callers resolve
the name in their own module.  Spans are recorded only while a pass is
open; they stay in memory until `save` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from time import perf_counter

import numpy as np

TRACED_MODULES = ("basis", "kernel", "sampling", "estimator", "increments",
                  "limitsets", "experiments", "cli")

# Both Monte Carlo drivers count as the layer's one "run" span.
ALIASES = {"experiments.run_theorem1": "experiments.run",
           "experiments.run_theorem2": "experiments.run"}

PASS_SPAN = "bench.pass"


# Work counted at a boundary, from the call's arguments and result.
WORK = {
    "sampling.draw": lambda a, kw, out: int(np.shape(out)[0]),
    "estimator.fit": lambda a, kw, out: int(out.n),
    "estimator.evaluate": lambda a, kw, out: int(np.size(out)),
    "estimator.make_grid": lambda a, kw, out: len(out),
    "kernel.localize": lambda a, kw, out: int(out.cell_values().size),
}


class Tracer:
    """Spans are (name id, start, end, parent index, thread id, pass id)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.work: dict[int, int] = {}
        self.active = False
        self.pass_id = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_stack: list[int] = []
        self._pass_idx = -1
        self._pass_t0 = 0.0
        self._installed: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        # A pool thread starts with an empty stack: its spans belong to the
        # span open in the thread that started the pass.
        parent = stack[-1] if stack else (
            self._root_stack[-1] if self._root_stack else -1)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(None)
        stack.append(idx)
        return idx, parent, stack

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx, parent, stack = self._open()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans[idx] = (nid, t0, t1, parent, threading.get_ident(),
                                   self.pass_id)
            if work is not None:
                self.work[idx] = work(args, kwargs, out)
            return out

        return traced

    def install(self, package: str = "wavedens"):
        """Wrap each public function and rebind it wherever it is bound."""
        mods = [importlib.import_module(package)]
        mods += [importlib.import_module(f"{package}.{m}") for m in TRACED_MODULES]
        wrappers = {}
        for short, mod in zip(TRACED_MODULES, mods[1:]):
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(ALIASES.get(name, name), obj))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)][1])
                    self._installed.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in self._installed:
            setattr(mod, attr, obj)
        self._installed.clear()

    def begin_pass(self, pass_id: int):
        self.pass_id = pass_id
        self.active = True
        idx, _, stack = self._open()
        self._root_stack = stack
        self._pass_idx = idx
        self._pass_t0 = perf_counter()

    def end_pass(self):
        t1 = perf_counter()
        self._stack().pop()
        self.spans[self._pass_idx] = (self._name_id(PASS_SPAN), self._pass_t0,
                                      t1, -1, threading.get_ident(),
                                      self.pass_id)
        self.active = False
        self._root_stack = []

    def save(self, path):
        """Write every span to an .npz file: one array per field."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 6)
        work = np.full(len(arr), -1, dtype=np.int64)
        for idx, w in self.work.items():
            work[idx] = w
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=arr[:, 0].astype(np.int32),
                            start=arr[:, 1], end=arr[:, 2],
                            parent=arr[:, 3].astype(np.int64),
                            thread=arr[:, 4].astype(np.uint64),
                            pass_id=arr[:, 5].astype(np.int32), work=work)


def _union_within(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return covered


def summarize_pass(tracer: Tracer, pass_id: int, threads: int) -> dict:
    """Per-name calls, work, busy and self seconds for one pass, plus the
    pass wall time and the parallel efficiency of its driver spans."""
    spans = [(i, s) for i, s in enumerate(tracer.spans)
             if s is not None and s[5] == pass_id]
    children: dict[int, list] = {}
    for i, (nid, t0, t1, parent, _, _) in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    stats: dict[str, dict] = {}
    wall = 0.0
    pass_idx = -1
    for i, (nid, t0, t1, parent, _, _) in spans:
        name = tracer.names[nid]
        if name == PASS_SPAN:
            wall, pass_idx = t1 - t0, i
            continue
        st = stats.setdefault(name, {"calls": 0, "work": 0, "busy": 0.0,
                                     "self": 0.0})
        st["calls"] += 1
        st["work"] += tracer.work.get(i, 0)
        st["busy"] += t1 - t0
        st["self"] += (t1 - t0) - _union_within(children.get(i, ()), t0, t1)
    # Parallel efficiency: busy time of the driver's children over the
    # threads it could use; a pass without a driver span uses its own.
    scope = {i for i, s in spans if tracer.names[s[0]] == "experiments.run"}
    if not scope:
        scope = {pass_idx}
    child_busy = sum(t1 - t0 for _, (nid, t0, t1, parent, _, _) in spans
                     if parent in scope)
    scope_wall = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in scope)
    eff = child_busy / (threads * scope_wall) if scope_wall > 0 else 0.0
    return {"wall": wall, "spans": len(spans), "stats": stats,
            "parallel_eff": eff}


def layer_metric(name: str, summary: dict) -> float:
    """Value of a per-layer metric `<layer>.<function>.<kind>` for one pass.

    Times are shares of the pass's wall time, so a function the workload
    never calls reads an exact 0 share rather than a constant time; `busy`
    is inclusive, `self` leaves out the part covered by child spans.
    """
    fn, kind = name.rsplit(".", 1)
    st = summary["stats"].get(fn, {"calls": 0, "work": 0, "busy": 0.0,
                                   "self": 0.0})
    if kind == "calls":
        return st["calls"]
    if kind in ("points", "cells"):
        return st["work"]
    if kind == "busy_frac":
        return st["busy"] / summary["wall"]
    if kind == "self_frac":
        return st["self"] / summary["wall"]
    if kind == "points_per_s":
        return st["work"] / st["busy"] if st["busy"] > 0 else 0.0
    raise KeyError(name)
