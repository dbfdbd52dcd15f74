"""Span tracing of minqet's public functions, installed from outside the package.

Every public module-level function of each layer module is replaced by a
wrapper that records a span (function, start, end, parent).  The wrapper is
installed at the module attribute and at every ``from ... import`` alias
inside the package, because ``protocol`` and ``cli`` import some functions
by name.  Private helpers stay unwrapped, so their time lands in the public
caller's layer.  Spans are kept in memory and reduced when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass

LAYERS = (
    "qmath",
    "model",
    "measurement",
    "protocol",
    "entanglement",
    "analytic",
    "optimizer",
    "cli",
)


@dataclass
class FunctionStats:
    calls: int = 0
    inclusive_s: float = 0.0


class Tracer:
    """Records spans while installed; ``summary()`` reduces them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.func: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.evaluations = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counts_evaluations: bool = False):
        fid = len(self.names)
        self.names.append(name)
        func, parent, start, end, stack = (
            self.func, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(func)
            func.append(fid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counts_evaluations:
                evaluations = getattr(result, "evaluations", None)
                if isinstance(evaluations, int):
                    self.evaluations += evaluations
            return result

        return traced

    def install(self, package: str = "minqet") -> None:
        """Wrap the public functions of every layer module of ``package``."""
        modules = [sys.modules[package]] + [
            sys.modules[f"{package}.{layer}"] for layer in LAYERS
        ]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(obj)] = self.wrap(
                        f"{layer}.{attr}", obj, counts_evaluations=layer == "optimizer"
                    )
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def summary(self) -> tuple[dict[str, FunctionStats], dict[str, float], float]:
        """Per-function stats, per-layer self seconds, and the root-span total.

        A span's self time is its duration minus its children's durations;
        single-threaded spans nest, so the self times of a root span's tree
        sum to the root span's duration.
        """
        n = len(self.func)
        child_s = [0.0] * n
        durations = [e - s for s, e in zip(self.start, self.end)]
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0:
                child_s[p] += durations[idx]
        functions: dict[str, FunctionStats] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        root_s = 0.0
        for idx in range(n):
            name = self.names[self.func[idx]]
            stats = functions.setdefault(name, FunctionStats())
            stats.calls += 1
            stats.inclusive_s += durations[idx]
            layer_self[name.split(".", 1)[0]] += durations[idx] - child_s[idx]
            if self.parent[idx] < 0:
                root_s += durations[idx]
        return functions, layer_self, root_s
