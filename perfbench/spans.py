"""Span tracing for the per-layer run.

Every public function of the abnorm modules is wrapped at every module
binding the program can call it through (``extremal`` imports
``generates`` by name, ``adjoint`` binds ``rk4_trajectory`` and
``expm``), and so are the ``gauge``/``support`` methods of the bodies.
Each call records (id, parent id, name, start, end); spans stay in memory
and are folded into per-name call counts, total and self times after
every op.  A self time is the span minus the union of its children.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import re
import subprocess
import sys
import threading
import time
from collections import defaultdict

LAYERS = ["lie", "catalog", "subspace", "seminorm", "extremal", "adjoint"]


class Tracer:
    def __init__(self):
        self.spans = []
        self.root = 0
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._start = 0
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.kept = []  # raw spans of the first traced pass

    def wrap(self, name, fn):
        tls, spans, ids, clock = self._tls, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            # sweep pool threads start with an empty stack: their parent is the op
            parent = stack[-1] if stack else self.root
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))

        return traced

    def install(self):
        import abnorm
        from abnorm import cli
        from abnorm.seminorm import Ellipse, Polygon

        modules = [abnorm, cli] + [sys.modules[f"abnorm.{m}"] for m in LAYERS]
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"abnorm.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")
                        # the free gauge/support only forward to the methods
                        and not (layer == "seminorm" and name in ("gauge", "support"))):
                    targets[obj] = f"{layer}.{name}"
        adjoint = sys.modules["abnorm.adjoint"]
        targets[adjoint.rk4_trajectory] = "adjoint.rk4_trajectory"
        targets[adjoint.expm] = "adjoint.expm"
        targets[cli._classify_report] = "cli.classify_report"
        for fn, name in targets.items():
            wrapped = self.wrap(name, fn)
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, attr, wrapped)
        for cls in (Polygon, Ellipse):
            for meth in ("gauge", "support"):
                setattr(cls, meth, self.wrap(f"seminorm.{meth}", cls.__dict__[meth]))

    def begin_op(self):
        self.root = next(self._ids)
        self._start = len(self.spans)

    def end_op(self, t0, t1, keep: bool):
        self.spans.append((self.root, 0, "cli.main", t0, t1))
        op = self.spans[self._start:]
        del self.spans[self._start:]
        if keep:
            self.kept.extend(op)
        children = defaultdict(list)
        for sid, parent, _, a, b in op:
            children[parent].append((a, b))
        for sid, _, name, a, b in op:
            self.calls[name] += 1
            self.total[name] += b - a
            self.self_time[name] += b - a - _covered(children.get(sid, ()), a, b)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, a, b in self.kept:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": a, "end": b}) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def importtime_ms(env, cwd, repeats=3) -> dict:
    """Cumulative import times from ``python -X importtime`` in a fresh
    interpreter, median of ``repeats`` runs."""
    want = {"abnorm": "import.abnorm_ms", "scipy.linalg": "import.scipy_linalg_ms",
            "scipy.optimize": "import.scipy_optimize_ms"}
    runs = defaultdict(list)
    for _ in range(repeats):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import abnorm"],
                             env=env, cwd=cwd, capture_output=True, text=True,
                             check=True, timeout=60)
        seen = {}
        for line in res.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m and m.group(2) in want:
                seen[want[m.group(2)]] = int(m.group(1)) / 1e3
        for key in want.values():
            runs[key].append(seen.get(key, 0.0))
    return {k: sorted(v)[len(v) // 2] for k, v in runs.items()}
