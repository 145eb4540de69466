"""Outside-in span tracer for fedstruct.

The tracer wraps public functions of the package from the benchmark's own
files; no program file is edited.  A function is wrapped in every fedstruct
module namespace that binds it, because modules import each other's
functions by name (`federation` calls the `forward` it imported from
`models`, so patching `fedstruct.models.forward` alone would miss every
call).  Spans are kept in memory as (name, start, end, parent) and written
out when the traced job ends; self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import csv
import os
import sys
import time
from collections import Counter


class Tracer:
    """Records spans and counts around fedstruct calls while installed.

    Use as a context manager; leaving it restores every original binding.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.returns: dict[str, list] = {}
        self._stack: list[int] = []
        self._plan: list[tuple] = []
        self._patched: list[tuple] = []

    # -- what to wrap -----------------------------------------------------

    def span(self, module: str, func: str, name=None, keep_return: bool = False):
        """Record a span per call of `module.func`.

        `name` is the span name, or a callable taking the call's arguments
        and returning it (for dispatchers such as `pairwise_loss`).
        """
        self._plan.append(("span", module, func, name or f"{module.split('.')[-1]}.{func}",
                           keep_return))

    def count(self, module: str, func: str, name=None):
        """Count calls of `module.func` without a span (for tiny, hot helpers)."""
        self._plan.append(("count", module, func, name or f"{module.split('.')[-1]}.{func}",
                           False))

    # -- install / remove --------------------------------------------------

    def __enter__(self):
        package = [m for key, m in sys.modules.items()
                   if m is not None and (key == "fedstruct" or key.startswith("fedstruct."))]
        for kind, module, func, name, keep_return in self._plan:
            original = getattr(sys.modules.get(module), func, None)
            if original is None:  # renamed or removed: its metrics read 0
                print(f"tracer: {module}.{func} not found, not traced", file=sys.stderr)
                continue
            wrapper = (self._span_wrapper(original, name, keep_return) if kind == "span"
                       else self._count_wrapper(original, name))
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _span_wrapper(self, original, name, keep_return):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        returns = self.returns
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name(*args, **kwargs) if callable(name) else name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if keep_return:
                returns.setdefault(names[idx], []).append(result)
            return result

        return traced

    def _count_wrapper(self, original, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        """Write spans as CSV: index, name, start and end (s), parent index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent"])
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                writer.writerow([i, n, repr(s - t0), repr(e - t0), p])

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += durations[i]
        out: dict[str, dict[str, float]] = {}
        for i, n in enumerate(self.names):
            row = out.setdefault(n, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += durations[i]
            row["self_s"] += durations[i] - child[i]
        return out
