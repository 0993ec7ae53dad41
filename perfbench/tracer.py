"""Per-layer tracing of halfcavity from outside the package.

The tracer wraps every public function of each halfcavity module, plus a few
named methods, at every module attribute the function object is bound to
(``decay.kummer_minus_exp`` and ``weakdrive.kummer_minus_exp`` are the same
object imported twice, so both are patched), and restores the originals
afterwards.  Spans are aggregated per function rather than stored, because
the scalar series paths make hundreds of thousands of calls per pass: each
function gets a call count, self time (its time minus the time of traced
callees) and a few work counters.

A target that no longer exists is recorded in ``missing`` rather than
skipped, so that a renamed or deleted layer shows up in the self-check
instead of silently reading zero.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
from time import perf_counter

import numpy as np

PACKAGE = "halfcavity"
LAYER_MODULES = ("params", "numerics", "dde", "decay", "weakdrive", "bloch",
                 "spectrum", "cli")

# methods traced in addition to the module-level public functions; the
# constructor of SystemParams is counted through its __post_init__
METHODS = {
    "params.SystemParams": ("params", "SystemParams", "__post_init__"),
    "spectrum.SpectrumKernel.delayed_source": ("spectrum", "SpectrumKernel",
                                               "delayed_source"),
}

# functions whose calls are keyed by their arguments for distinct_ratio
DISTINCT = ("decay.series_amplitude", "weakdrive.perturbative_amplitude",
            "bloch.delay_bloch_steady")


class FunctionStats:
    __slots__ = ("calls", "self_s", "counters", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counters = {}
        self.keys = set()

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value


def _arg_key(args):
    return tuple(float(a) if isinstance(a, (float, np.floating)) else a for a in args)


def _count_kummer(st, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    s = args[1] if len(args) > 1 else kwargs["s"]
    st.add("elements", int(np.size(s)))
    st.add("scalar_calls", int(np.ndim(s) == 0))
    st.counters["max_order"] = max(st.counters.get("max_order", 0), int(n))


def _count_integrate(st, args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    st.add("steps", len(result.step_times))
    if problem.has_delay and problem.t_end > 0.0:
        st.add("windows", int(math.ceil(problem.t_end / problem.tau - 1e-12)))
    else:
        st.add("windows", 1)


def _count_cli_run(st, args, kwargs, result):
    st.add("rows", int(result["rows"]))
    out = result["out"]
    st.add("bytes", os.path.getsize(out) + os.path.getsize(out + ".meta.json"))


def _count_spectrum(st, args, kwargs, result):
    st.add("points", len(result.delta_grid))


COUNTERS = {
    "numerics.kummer_minus_exp": _count_kummer,
    "dde.integrate": _count_integrate,
    "cli.run": _count_cli_run,
    "spectrum.incoherent_spectrum": _count_spectrum,
}


def public_functions(module):
    """Public functions defined in (not imported into) a module."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    """Install with :meth:`install`, read :attr:`stats`, always :meth:`restore`."""

    def __init__(self):
        self.stats: dict[str, FunctionStats] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple] = []

    def reset(self):
        self.stats = {name: FunctionStats() for name in self.stats}

    # ----- patching -----------------------------------------------------

    def install(self):
        """Wrap every traced callable at each module attribute bound to it."""
        modules, targets = [importlib.import_module(PACKAGE)], []
        for short in LAYER_MODULES:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                self.missing.append(short)
                continue
            modules.append(mod)
            targets += [(f"{short}.{name}", fn)
                        for name, fn in public_functions(mod).items()]
        for trace_name, target in targets:
            self.stats.setdefault(trace_name, FunctionStats())
            wrapper = self._wrap(trace_name, target)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is target:
                        self._patch(mod, attr, target, wrapper)
        for trace_name, (short, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules.get(f"{PACKAGE}.{short}"), cls_name, None)
            fn = vars(cls).get(attr) if cls is not None else None
            if fn is None:
                self.missing.append(trace_name)
                continue
            self.stats.setdefault(trace_name, FunctionStats())
            self._patch(cls, attr, fn, self._wrap(trace_name, fn))

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, trace_name, fn):
        stack = self._stack
        counter = COUNTERS.get(trace_name)
        distinct = trace_name in DISTINCT
        tracer = self

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                st = tracer.stats[trace_name]
                st.calls += 1
                st.self_s += dur - child
                if stack:
                    stack[-1] += dur
            if counter is not None:
                counter(st, args, kwargs, result)
            if distinct:
                st.keys.add(_arg_key(args))
            if stack:
                # keep the counters' bookkeeping out of the caller's self time
                stack[-1] += perf_counter() - t0 - dur
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", trace_name)
        return traced

    # ----- reading ------------------------------------------------------

    def value(self, metric: str) -> float:
        """Value of ``<module>.<function>.<stat>`` for the current stats."""
        func, stat = metric.rsplit(".", 1)
        st = self.stats.get(func)
        if st is None:
            return 0
        if stat == "calls":
            return st.calls
        if stat == "self_s":
            return st.self_s
        if stat == "distinct_ratio":
            return len(st.keys) / st.calls if st.calls else 0.0
        return st.counters.get(stat, 0)
