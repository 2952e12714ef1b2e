"""Span recorder that wraps pendraw's public functions from outside the package.

Every public module-level function of every ``pendraw`` module is replaced, at
every module namespace that binds it, by a wrapper that records a span: its
duration, the time covered by wrapped calls made inside it (so that self time
is duration minus child time), the nearest wrapped caller, and a few work
counts read off the result. Nothing under ``src/`` is edited; the wrappers are
installed into the imported modules' namespaces.

Per-element helpers are left unwrapped (``UNWRAPPED``): they are called once
per CSV field, per random stream or per lattice step, so a span around them
would cost more than the work it times and would move that work out of the
self time of the layer function that loops over them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

UNWRAPPED = frozenset({
    "format_number",     # experiments: once per CSV field
    "gaussian_stream",   # numerics: once per stream inside normal_block
    "drift_a", "baseline_hazard", "initial_hazard",  # mortality curve helpers
    "a1_ou", "a1_cir", "c1_ou", "c2_ou",             # pricing closed-form curves
})


def _rows_and_bytes(result) -> Dict[str, int]:
    with open(result, "rb") as fh:
        data = fh.read()
    return {"rows": max(data.count(b"\n") - 1, 0), "bytes": len(data)}


def _path_steps(arr) -> int:
    return int(arr.shape[0]) * (int(arr.shape[1]) - 1)


# Work counts read off a function's result, by function name. A refactor that
# changes the result type leaves the count at zero instead of failing.
WORK: Dict[str, Callable[[object], Dict[str, int]]] = {
    "normal_block": lambda r: {"streams": int(r.shape[0])},
    "solve_ode": lambda r: {"steps": len(r[0]) - 1},
    "simulate_paths": lambda r: {"path_steps": _path_steps(r.lambda1)},
    "build_coefficient_table": lambda r: {"nodes": int(r.s.size)},
    "g_and_gradient": lambda r: {"states": int(r[0].shape[0])},
    "simulate_scheme": lambda r: {"path_steps": _path_steps(r.wealth)},
    "write_csv": _rows_and_bytes,
}


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    work: Dict[str, int] = field(default_factory=dict)
    callers: Dict[str, int] = field(default_factory=dict)

    def copy(self) -> "Stat":
        return Stat(self.calls, self.self_s, dict(self.work), dict(self.callers))


class Recorder:
    """Aggregates spans per function key (``<module>.<function>``)."""

    def __init__(self):
        self.enabled = False
        self.stats: Dict[str, Stat] = {}
        self.wrapped: Dict[str, List[str]] = {}   # key -> namespaces patched
        self._stack: List[list] = []              # [key, child_seconds]

    def _wrap(self, key: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(key, Stat())
        work = WORK.get(fn.__name__)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            caller = stack[-1][0] if stack else ""
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                stat.callers[caller] = stat.callers.get(caller, 0) + 1
                if stack:
                    stack[-1][1] += elapsed
            if work is not None:
                t1 = clock()
                try:
                    counts = work(result)
                except (AttributeError, TypeError, IndexError, OSError):
                    counts = {}
                for name, value in counts.items():
                    stat.work[name] = stat.work.get(name, 0) + value
                if stack:
                    # counting is not the caller's own work either
                    stack[-1][1] += clock() - t1
            return result

        span.__wrapped_by_perfbench__ = True
        return span

    def install(self, package) -> None:
        """Wrap every public function of every module of ``package``."""
        prefix = package.__name__ + "."
        for info in pkgutil.iter_modules(package.__path__, prefix):
            importlib.import_module(info.name)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(prefix))]
        wrappers: Dict[int, Callable] = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(package.__name__)
                        or getattr(obj, "__wrapped_by_perfbench__", False)):
                    continue
                key = obj.__module__[len(prefix):] + "." + obj.__name__
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = wrappers[id(obj)] = self._wrap(key, obj)
                setattr(mod, name, wrapper)
                self.wrapped.setdefault(key, []).append(mod.__name__)

    def snapshot(self) -> Dict[str, Stat]:
        return {k: s.copy() for k, s in self.stats.items()}

    def find(self, key: str) -> Optional[str]:
        """The recorded key for ``<module>.<function>``: the same key, or the
        function under another module if it has moved; None if it is absent."""
        if key in self.stats:
            return key
        fn_name = key.rsplit(".", 1)[1]
        moved = sorted(k for k in self.stats if k.rsplit(".", 1)[1] == fn_name)
        return moved[0] if moved else None


def delta(after: Dict[str, Stat], before: Dict[str, Stat]) -> Dict[str, Stat]:
    """Per-key difference of two snapshots."""
    out = {}
    for key, a in after.items():
        b = before.get(key, Stat())
        out[key] = Stat(
            a.calls - b.calls, a.self_s - b.self_s,
            {w: v - b.work.get(w, 0) for w, v in a.work.items()},
            {c: v - b.callers.get(c, 0) for c, v in a.callers.items()})
    return out

