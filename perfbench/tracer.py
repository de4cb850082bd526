"""Span tracer that wraps secquant's public functions from outside.

Every public function (and public method of a public class) defined in a
layer module is wrapped once, and the wrapper is bound under every name
that referred to the original in any loaded ``secquant`` module, so a
``from .roc import kl_divergence`` in ``gaussian`` is traced like the
definition itself.  Spans (name, parent, root, start, end) are appended to
flat arrays in memory and written out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("roc", "gaussian", "search", "solver", "boundary", "allocation",
          "detection", "export", "cli")

#: Search primitives whose first argument is the objective; the tracer
#: counts how often each calls it.
EVAL_COUNTED = ("search.assert_unimodal", "search.golden_section_max",
                "search.bisect_root")

#: Trial blocks of the Monte Carlo, used to compute the block array size.
_DEFAULT_BLOCK_TRIALS = 65536


def _public_callables(module):
    """(qualified name, owner, attribute, function) for each public
    function or method defined in ``module``."""
    layer = module.__name__.rsplit(".", 1)[-1]
    found = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    found.append((f"{layer}.{meth}", obj, meth, fn))
        elif callable(obj):
            found.append((f"{layer}.{attr}", module, attr, obj))
    return found


class Tracer:
    """Records spans of wrapped calls and a few per-call counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.originals: dict[str, object] = {}
        self._wrapper_of: dict[int, object] = {}

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = {layer: sys.modules[f"secquant.{layer}"] for layer in LAYERS}
        for module in modules.values():
            for name, owner, attr, fn in _public_callables(module):
                if name in self.originals:
                    raise RuntimeError(f"two traced callables named {name}")
                wrapper = self._wrap(name, fn)
                self.originals[name] = fn
                self._wrapper_of[id(fn)] = wrapper
                setattr(owner, attr, wrapper)
        for module in self._package_modules():
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrapper_of.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        self.assert_complete()

    @staticmethod
    def _package_modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "secquant" or n.startswith("secquant."))]

    def assert_complete(self) -> None:
        """Fail when any binding or default argument still holds an
        unwrapped original: its calls would silently read as zero."""
        originals = {id(fn): name for name, fn in self.originals.items()}
        leaks = []
        for module in self._package_modules():
            for attr, obj in vars(module).items():
                if id(obj) in originals:
                    leaks.append(f"{module.__name__}.{attr}")
                for fn in self._functions_in(obj):
                    defaults = (fn.__defaults__ or ()) + tuple(
                        (fn.__kwdefaults__ or {}).values())
                    leaks += [f"default of {fn.__qualname__}"
                              for d in defaults if id(d) in originals]
        if leaks:
            raise RuntimeError("unwrapped bindings: " + ", ".join(sorted(leaks)))

    @staticmethod
    def _functions_in(obj):
        obj = getattr(obj, "__wrapped__", obj)
        if inspect.isfunction(obj):
            return [obj]
        if inspect.isclass(obj):
            return [getattr(f, "__wrapped__", f) for f in vars(obj).values()
                    if inspect.isfunction(f)]
        return []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_root, add_start = self.span_root.append, self.start.append
        ends, stack, perf = self.end, self.stack, time.perf_counter
        before = self._hook(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(ends)
            add_name(nid)
            if stack:
                add_parent(stack[-1])
                add_root(stack[0])
            else:
                add_parent(-1)
                add_root(sid)
            ends.append(0.0)
            stack.append(sid)
            add_start(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf()
                stack.pop()

        return wrapper

    def _hook(self, name: str, fn):
        """Per-call bookkeeping that needs the call's arguments.  A hook
        that no longer fits the function's signature counts nothing
        rather than breaking the traced call."""
        hook = self._argument_hook(name, fn)
        if hook is None:
            return None

        def guarded(args, kwargs):
            try:
                return hook(args, kwargs)
            except (KeyError, TypeError, AttributeError, IndexError):
                return args, kwargs

        return guarded

    def _argument_hook(self, name: str, fn):
        counters = self.counters
        if name in EVAL_COUNTED:
            key = name + ".evals"

            def count_evals(args, kwargs):
                if not args:  # objective passed by keyword: left uncounted
                    return args, kwargs
                objective = args[0]

                def counted(*a, **k):
                    counters[key] += 1
                    return objective(*a, **k)

                return (counted, *args[1:]), kwargs

            return count_evals
        if name == "detection.simulate_monte_carlo":
            signature = inspect.signature(fn)
            block = getattr(sys.modules["secquant.detection"], "_BLOCK_TRIALS",
                            _DEFAULT_BLOCK_TRIALS)

            def count_draws(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                n, window, trials = len(a["config"].sites), a["window"], a["trials"]
                cal = a["calibration_trials"] or 4 * trials
                counters["detection.mc.draws"] += (cal + 2 * trials) * n * window
                rows = min(block, max(cal, trials))
                counters["detection.mc.block_bytes"] = max(
                    counters["detection.mc.block_bytes"], rows * n * window * 8)
                return args, kwargs

            return count_draws
        if name == "export.write_all":
            def count_bytes(args, kwargs):
                counters["export.bytes_written"] += sum(
                    len(text.encode()) for _, text in args[0])
                return args, kwargs

            return count_bytes
        return None

    # -- results ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans recorded so far, as copied NumPy columns."""
        return {
            "names": np.array(self.names),
            "name": np.array(self.span_name, dtype=np.int32),
            "parent": np.array(self.span_parent, dtype=np.int32),
            "root": np.array(self.span_root, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def write(self, path: str) -> None:
        np.savez(path, **self.arrays())

    def summary(self, root_name: str = "cli.main") -> dict:
        """Per-span-name call counts and total/self seconds, over the
        spans that descend from a ``root_name`` span."""
        a = self.arrays()
        names = list(a["names"])
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        root_id = names.index(root_name) if root_name in names else -1
        in_cmd = a["name"][a["root"]] == root_id
        ids = a["name"][in_cmd]
        calls = np.bincount(ids, minlength=len(names))
        total = np.bincount(ids, weights=dur[in_cmd], minlength=len(names))
        own = np.bincount(ids, weights=self_time[in_cmd], minlength=len(names))
        by_name = {n: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(own[i])}
                   for i, n in enumerate(names) if calls[i]}
        return {"spans": int(len(dur)), "by_name": by_name}

    def spans_of(self, name: str, parent_name: str | None = None) -> list[float]:
        """Durations of spans called ``name`` (optionally only those whose
        parent span is called ``parent_name``), in call order."""
        a = self.arrays()
        names = list(a["names"])
        if name not in names:
            return []
        mask = a["name"] == names.index(name)
        if parent_name is not None:
            if parent_name not in names:
                return []
            parent = a["parent"]
            parent_named = np.zeros_like(mask)
            valid = parent >= 0
            parent_named[valid] = a["name"][parent[valid]] == names.index(parent_name)
            mask &= parent_named
        return list((a["end"] - a["start"])[mask])
