"""Span recording around the public functions of the hypercore modules.

The wrappers live in the benchmark, not in the program: `install` replaces
every public function (and public classmethod) of the traced modules with a
wrapper that records one span per call.  Modules bind functions with
``from .x import f``, so the wrapper is put in place of *every* module
attribute that holds the original function object, not only the one in the
defining module.  `uninstall` puts the originals back.

A span is the tuple (name, start, end, parent, job): ``parent`` is the index
of the enclosing span in the same recorder, or -1.  Spans stay in memory
until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# Modules that get spans.  `halfint` is arithmetic inside every layer and
# has no call boundary worth timing; `generators` only runs during set-up.
LAYERS = (
    "graphs",
    "hyperbolicity",
    "congestion",
    "quasiconvex",
    "multicore",
    "beamcore",
    "lpkappa",
    "simplex",
    "fileio",
    "cli",
)


def _lp_dims(inst) -> dict[str, int]:
    nonzeros = defaultdict(int)
    for r, c, val in inst.triplets:
        nonzeros[(r, c)] += val
    return {
        "simplex.lp_rows": inst.num_rows,
        "simplex.lp_cols": inst.num_vars,
        "simplex.lp_nonzeros": sum(1 for v in nonzeros.values() if v != 0),
    }


# Span name -> function of the call's first argument giving counters to add.
COUNTER_HOOKS = {"simplex.solve_lp": _lp_dims}


class Recorder:
    """In-memory span store for one traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.job: str | None = None
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def wrap(self, name: str, func):
        spans = self.spans
        open_stack = self._open
        hook = COUNTER_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if hook is not None and args:
                for key, k in hook(args[0]).items():
                    self.counters[key] += k
            idx = len(spans)
            parent = open_stack[-1] if open_stack else -1
            spans.append((name, 0.0, 0.0, parent, self.job))
            open_stack.append(idx)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                open_stack.pop()
                spans[idx] = (name, start, end, parent, self.job)

        traced.__wrapped_original__ = func
        return traced

    def install(self, package: str = "hypercore", layers=LAYERS) -> None:
        """Wrap the public functions of ``package.<layer>`` for each layer and
        rebind every alias held by any loaded ``package.*`` module."""
        if self._installed:
            raise RuntimeError("recorder already installed")
        wrappers: dict[int, object] = {}
        for layer in layers:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for cattr, cobj in list(vars(obj).items()):
                        if isinstance(cobj, classmethod) and not cattr.startswith("_"):
                            wrapped = classmethod(
                                self.wrap(f"{layer}.{attr}.{cattr}", cobj.__func__)
                            )
                            self._installed.append((obj, cattr, cobj))
                            setattr(obj, cattr, wrapped)
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == package or mname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped_original__ is obj:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write(self, path) -> None:
        """Write the recorded spans as one JSON object."""
        data = {
            "fields": ["name", "start", "end", "parent", "job"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, job) in enumerate(spans):
        out.append((end - start) - _covered(children.get(i, []), start, end))
    return out


def summarize(spans) -> dict:
    """Per span name: call count, summed self time and summed duration."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for (name, start, end, parent, job), st in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += st
        total_s[name] += end - start
    return {"calls": dict(calls), "self_s": dict(self_s), "total_s": dict(total_s)}
