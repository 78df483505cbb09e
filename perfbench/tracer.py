"""Layer spans for realforms, recorded from outside the package.

Every public function of a layer module, and every public method of a class
defined there, is replaced by a wrapper that keeps counts and times.  The
wrapper is installed wherever a ``realforms`` module binds the original
object, matched by identity, because ``cli`` and ``pipeline`` import most of
what they call by name.  ``scalars`` is not wrapped: its operators run
millions of times per job, so it is measured by a microbenchmark instead.

Self time is kept per layer: the time during which the innermost active
wrapped call belongs to that layer.  That is the layer's span time minus the
part covered by spans of other layers it calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

LAYERS = (
    "linalg",
    "algebras",
    "triality",
    "constructions",
    "lie",
    "rootspace",
    "satake",
    "pipeline",
    "cli",
)

Hook = Callable[[tuple, dict, object], None]


class Tracer:
    """Counts and times wrapped calls; one instance per traced pass."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[Optional[str], float] = defaultdict(float)
        self.errors: Counter = Counter()
        self.wrapped: Dict[str, Callable] = {}
        self._active: Counter = Counter()
        self._stack: List[str] = []
        self._last = time.perf_counter()
        self._hooks: Dict[str, Hook] = {}

    def on_return(self, qname: str, hook: Hook) -> None:
        """Call ``hook(args, kwargs, result)`` after each call of ``qname``."""
        self._hooks[qname] = hook

    def _wrap(self, layer: str, qname: str, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter
        stack = self._stack
        hook = self._hooks.get(qname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            tracer.self_s[stack[-1] if stack else None] += start - tracer._last
            tracer._last = start
            stack.append(layer)
            tracer.calls[qname] += 1
            outermost = not tracer._active[qname]
            tracer._active[qname] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                end = clock()
                tracer.self_s[layer] += end - tracer._last
                tracer._last = end
                stack.pop()
                tracer._active[qname] -= 1
                if outermost:
                    tracer.inclusive[qname] += end - start
            if hook is not None:
                hook(args, kwargs, result)
                tracer._last = clock()
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer of the already imported ``realforms`` package."""
        replacements: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"realforms.{layer}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    qname = f"{layer}.{name}"
                    replacements[id(obj)] = self._wrap(layer, qname, obj)
                    self.wrapped[qname] = obj
                elif inspect.isclass(obj):
                    for attr, meth in list(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(meth):
                            continue
                        qname = f"{layer}.{name}.{attr}"
                        setattr(obj, attr, self._wrap(layer, qname, meth))
                        self.wrapped[qname] = meth
        for modname, mod in list(sys.modules.items()):
            if modname != "realforms" and not modname.startswith("realforms."):
                continue
            for name, obj in list(vars(mod).items()):
                new = replacements.get(id(obj))
                if new is not None and not name.startswith("__"):
                    setattr(mod, name, new)

    @staticmethod
    def call_cost(calls: int = 20000, repeats: int = 5) -> float:
        """Seconds one wrapper adds to a call, measured on a no-op function."""

        def noop() -> None:
            return None

        wrapped = Tracer()._wrap("probe", "probe.noop", noop)
        plain_best = wrapped_best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            mid = time.perf_counter()
            for _ in range(calls):
                wrapped()
            end = time.perf_counter()
            plain_best = min(plain_best, mid - start)
            wrapped_best = min(wrapped_best, end - mid)
        return max(wrapped_best - plain_best, 0.0) / calls

    def stop(self) -> None:
        """Charge the time since the last wrapped call ended to no layer."""
        now = time.perf_counter()
        self.self_s[self._stack[-1] if self._stack else None] += now - self._last
        self._last = now
