"""Spans recorded from outside the library, by wrapping module attributes.

The library's modules call each other through module globals
(``fitting.evaluate`` calls the name ``pool`` bound in ``cdfpool.fitting``),
so replacing every binding of a function inside the ``cdfpool`` modules
routes each call through a wrapper that records a span.  Nothing under
``src/`` is edited; the bindings are restored when the replay ends.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans kept in memory: name, start, end (ns) and parent index (-1 for a root)."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, after=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a string or a function of the call's arguments; ``after``
        sees the arguments and the result and updates ``self.counters``.
        """
        namer = name if callable(name) else (lambda args, kwargs: name)

        def traced(*args, **kwargs):
            idx = self._open(namer(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self, lo: int = 0, hi: int | None = None):
        """Spans [lo, hi) as (names, duration ns, parent) arrays."""
        hi = len(self.names) if hi is None else hi
        names = np.array(self.names[lo:hi], dtype=object)
        dur = np.array(self.end[lo:hi], dtype=np.int64) - np.array(self.start[lo:hi], dtype=np.int64)
        parent = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        return names, dur, parent

    def dump(self, path: str) -> None:
        """Write the spans as compact JSON: a name table and [name, start, end, parent] rows."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        rows = [
            [index[n], s, e, p]
            for n, s, e, p in zip(self.names, self.start, self.end, self.parent)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": table, "spans": rows, "counters": dict(self.counters)}, fh)


@contextmanager
def installed(tracer: Tracer, targets):
    """Replace every binding of each target inside the loaded ``cdfpool`` modules.

    ``targets`` holds (module name, attribute, span name, after hook).  Yields
    the list of targets that were not found, so callers can report them.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "cdfpool" or n.startswith("cdfpool."))]
    replaced = []
    missing = []
    try:
        for module_name, attr, name, after in targets:
            owner = sys.modules.get(module_name)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = tracer.wrap(original, name, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        replaced.append((mod, key, original))
        yield missing
    finally:
        for mod, key, original in reversed(replaced):
            setattr(mod, key, original)


def layer_totals(names, dur, parent):
    """Per span name: call count, inclusive ns, self ns (span minus its direct children)."""
    child = np.zeros(dur.size, dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child
    out = {}
    for name in set(names.tolist()):
        mask = names == name
        out[name] = (int(mask.sum()), int(dur[mask].sum()), int(self_ns[mask].sum()))
    return out


def child_time(names, dur, parent, parent_name: str, child_names) -> dict[str, int]:
    """Inclusive ns of spans named in ``child_names`` whose parent is a ``parent_name`` span."""
    has_parent = parent >= 0
    parent_is = np.zeros(dur.size, dtype=bool)
    parent_is[has_parent] = names[parent[has_parent]] == parent_name
    return {c: int(dur[parent_is & (names == c)].sum()) for c in child_names}


def import_times(src: str, env: dict, reps: int = 3) -> dict[str, float]:
    """Median over fresh interpreters of ``python -X importtime -c 'import cdfpool'``.

    ``cdfpool`` is the cumulative time of the package import; ``numpy`` and
    ``scipy`` sum the self time of every module of that package.
    """
    samples = {"cdfpool": [], "scipy": [], "numpy": []}
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cdfpool"],
            env=dict(env, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120, check=True,
        )
        totals = {"cdfpool": 0, "scipy": 0, "numpy": 0}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            self_us = int(parts[0].split(":")[1])
            module = parts[2].strip()
            top = module.split(".")[0]
            if module == "cdfpool":
                totals["cdfpool"] = int(parts[1])
            elif top in ("scipy", "numpy"):
                totals[top] += self_us
        for key, us in totals.items():
            samples[key].append(us / 1e6)
    return {key: float(np.median(v)) for key, v in samples.items()}


def nproc() -> int:
    return len(os.sched_getaffinity(0))
