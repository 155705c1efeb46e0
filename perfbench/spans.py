"""Span tracing of the ncindiv layers, installed from outside the package.

The layers are the package modules.  `Tracer.install` wraps the public
functions of each layer module, and the public methods of the classes
in `SPANNED_METHODS`, and rebinds every reference to them held by a
package module.  The modules import names directly (`from .poset import
build_poset`), so a name has to be wrapped where its caller looks it
up, not only where it is defined.

A call records a span only when it crosses a layer boundary: the caller
lives in another module (or outside the package).  A call from inside
the same module is the layer's own business, so it is counted but adds
no span, and its time stays in the enclosing span's self time.  Self
time is a span's duration minus the durations of its child spans.

`counting` is the closed-form oracle and is never wrapped.  In `cli`
only `main` is a boundary: the `cmd_*` handlers are its argument
parsing, formatting and writing.  Generator functions are left alone,
because a span around one would close before any work is done.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time

PACKAGE = "ncindiv"
LAYERS = (
    "cli", "nc", "perm", "poset", "hurwitz", "mdivisible",
    "geometry", "bijections", "typeb", "verify",
)
CLI_BOUNDARY = "main"
SPANNED_METHODS = {"poset": ("HasseDiagram",)}
# Hot methods that are counted, never spanned: (layer, class, method) -> counter.
COUNTED_METHODS = {
    ("perm", "Permutation", "cycles"): "perm.cycles.calls",
    ("perm", "Permutation", "__mul__"): "perm.mul.calls",
}
# Spans kept per job for the span file; self times are aggregated for all.
MAX_KEPT_SPANS = 200_000


def _params_of(args, kwargs) -> dict:
    """(k, n[, m]) of an entry point called as f(params[, m])."""
    params = args[0] if args else kwargs.get("params")
    if params is None:
        return {}
    out = {"k": params.k, "n": params.n}
    if len(args) > 1:
        out["m"] = args[1]
    elif "m" in kwargs:
        out["m"] = kwargs["m"]
    return out


# Sizes read off the results of layer entry points, for the per-layer
# counters and for the closed-form check of the traced run.
RESULT_COUNTS = {
    "hurwitz.orbit_and_class_report": lambda r: {
        "hurwitz.orbit_states": r["orbit_size"],
        "hurwitz.classes": r["class_count"],
    },
    "nc.enumerate_nc": lambda r: {"nc.elements": len(r)},
    "poset.build_poset": lambda r: {"poset.covers": len(r.covers)},
    "mdivisible.build_mdiv_poset": lambda r: {
        "mdivisible.elements": len(r),
        "mdivisible.covers": len(r.covers),
    },
    "geometry.build_cambrian": lambda r: {"geometry.dissections": len(r)},
    "verify.run_suite": lambda r: {"verify.checks": len(r)},
}


def _is_public_function(name: str, obj, module_name: str) -> bool:
    if name.startswith("_") or getattr(obj, "__module__", None) != module_name:
        return False
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return False
    return not inspect.isgeneratorfunction(obj)


class Tracer:
    """Spans and counters for one job, kept in memory until `record`."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.results: list[dict] = []
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._stack = [[0.0, 0]]  # [child time, span id]; the root is the job
        self._ids = itertools.count(1)
        self._seen: dict[int, object] = {}

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if not _is_public_function(name, obj, module.__name__):
                    continue
                if layer == "cli" and name != CLI_BOUNDARY:
                    continue
                wrappers[id(obj)] = tracer._spanned(f"{layer}.{name}", module.__name__, obj)
        for module_name, module in list(sys.modules.items()):
            if module_name == PACKAGE or module_name.startswith(PACKAGE + "."):
                for name, obj in list(vars(module).items()):
                    wrapper = wrappers.get(id(obj))
                    if wrapper is not None:
                        setattr(module, name, wrapper)
        for layer, class_names in SPANNED_METHODS.items():
            module = modules[layer]
            for class_name in class_names:
                klass = getattr(module, class_name)
                for name, obj in list(vars(klass).items()):
                    if not name.startswith("_") and inspect.isfunction(obj):
                        setattr(klass, name, tracer._spanned(f"{layer}.{name}", module.__name__, obj))
        for (layer, class_name, name), counter in COUNTED_METHODS.items():
            klass = getattr(modules[layer], class_name)
            setattr(klass, name, tracer._counted(counter, getattr(klass, name)))
        return tracer

    def _counted(self, counter: str, fn):
        counters = self.counters
        counters.setdefault(counter, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name: str, module_name: str, fn):
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        calls[name] = 0
        total_s[name] = 0.0
        self_s[name] = 0.0
        stack, spans, ids = self._stack, self.spans, self._ids
        clock, caller = time.perf_counter, sys._getframe
        counts_of = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if caller(1).f_globals.get("__name__") == module_name:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                total_s[name] += duration
                self_s[name] += duration - frame[0]
                parent[0] += duration
                if len(spans) < MAX_KEPT_SPANS:
                    spans.append((frame[1], parent[1], name, start, end))
                else:
                    self.dropped_spans += 1
            if counts_of is not None:
                self._count(name, counts_of, result, args, kwargs)
            return result

        return wrapper

    def _count(self, name: str, counts_of, result, args, kwargs) -> None:
        # Cached entry points hand back the same object on a hit; count it once.
        if id(result) in self._seen:
            return
        self._seen[id(result)] = result
        counts = counts_of(result)
        for key, value in counts.items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.results.append(
            {"fn": name, "params": _params_of(args, kwargs), "counts": counts}
        )

    def record(self) -> dict:
        """Everything measured, as a JSON-ready dict."""
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "counters": self.counters,
            "results": self.results,
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }
