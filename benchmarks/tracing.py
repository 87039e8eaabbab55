"""Spans around the public functions of the ``sunbasis`` modules.

The package itself carries no instrumentation, so the traced run patches it
from outside: every public function of a layer module is replaced by a
wrapper that records one span per call.  A function is replaced under every
name it is bound to, so ``from .algebra import multiply`` in ``projectors``
is traced as well as ``algebra.multiply`` itself.

Spans stay in memory as ``(name, start_ns, end_ns, parent)`` tuples and are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children.

Forked pool workers do not send spans back, so a traced run that needs
per-call spans from the verification suites must run them with one job.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

# The package's layers, by module name.  ``coefficients`` and ``tableaux``
# are not timed on their own: scalar work is counted through
# ``algebra.term_pairs`` and tableau enumeration takes milliseconds.
LAYERS = (
    "cli",
    "basis",
    "transitions",
    "projectors",
    "algebra",
    "_fast",
    "permutations",
    "matrix_rep",
    "_linalg",
)

# Private functions that a per-layer metric names.
PRIVATE = {("cli", "_dump_json"), ("_linalg", "_surd_elimination")}


def _is_cache(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")


def _defining_layer(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    if not module.startswith("sunbasis."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


def package_modules() -> list:
    """Every module of the ``sunbasis`` package, the package itself first."""
    pkg = importlib.import_module("sunbasis")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"sunbasis.{info.name}"))
    return mods


def package_caches() -> list:
    """The ``functools.cache`` objects of the package, each once."""
    seen: dict[int, object] = {}
    for mod in package_modules():
        for obj in vars(mod).values():
            if not _is_cache(obj):
                obj = getattr(obj, "__wrapped__", obj)  # seen through a Tracer wrapper
            if _is_cache(obj):
                seen.setdefault(id(obj), obj)
    return list(seen.values())


def clear_caches() -> None:
    """Make the next call cold, as in a fresh process."""
    for c in package_caches():
        c.cache_clear()


class Tracer:
    """Records spans and counters while installed into the package.

    ``counters`` maps a span name to a function of the call's arguments and
    result that returns how much to add to the counter of that name.
    """

    def __init__(self, counters: dict | None = None):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self._counters = counters or {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        counter = self._counters.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                counts[name] += counter(args, result)
            return result

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) or _is_cache(obj)):
                    continue
                layer = _defining_layer(obj)
                if layer is None:
                    continue
                fname = getattr(obj, "__name__", attr)
                if fname.startswith("_") and (layer, fname) not in PRIVATE:
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = wrappers[id(obj)] = self._wrap(f"{layer}.{fname}", obj)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child[k]) / 1e9
        return out

    def layer_self(self) -> dict[str, float]:
        """Self seconds summed per layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, row in self.summary().items():
            out[name.rsplit(".", 1)[0]] += row["self_s"]
        return out

    def write(self, path: Path) -> None:
        """Write every span, one JSON array per line, and the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def span_cost_s(calls: int = 50_000) -> float:
    """Seconds one traced call adds, measured on a function that does nothing.

    Traced minus untraced wall time is the tracing overhead as measured, but
    on a shared machine the run-to-run noise can exceed it; this estimate
    does not depend on the workload's own timing.
    """

    def noop():
        return None

    traced = Tracer()._wrap("calibration", noop)
    start = perf_counter_ns()
    for _ in range(calls):
        noop()
    bare = perf_counter_ns() - start
    start = perf_counter_ns()
    for _ in range(calls):
        traced()
    wrapped = perf_counter_ns() - start
    return max(wrapped - bare, 0) / calls / 1e9
