"""In-memory span tracer for the benchmark's traced runs.

Every wrapped callable records one span (name, start, end, parent span) per
call.  Spans live in flat arrays until the run ends; self time is a span's
duration minus the durations of its direct children.  Counters (FFT points,
bundle radii and bytes, multiplier arguments) accumulate beside the spans.

Order of use: ``install`` wraps the numpy and scipy n-d FFT entry points and
must run before ``rieszmax`` is imported; ``wrap_package`` runs after the
import and wraps the package's public functions at every module that binds
them, plus a few class methods.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2",
             "irfft2")
PACKAGE = "rieszmax"
MODULES = ("specfun", "multiplier", "fields", "operators", "experiments", "cli")
# (module, class, method) wrapped besides every module-level public function
CLASS_METHODS = (("operators", "RadialBundle", "sup_abs"),
                 ("operators", "MultiplierSymbol", "values"),
                 ("operators", "Kernel", "sample"))


class Tracer:
    """Flat span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []

    def reset(self) -> None:
        """Drop all spans and zero the counters (in place: wrappers hold
        references to the arrays)."""
        for buf in (self.name_ids, self.parents, self.starts, self.ends):
            del buf[:]
        self._stack.clear()
        self.counters = {k: 0 for k in self.counters}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, counter=None):
        """fn, recording a span per call; counter(args, kwargs, result) runs
        after the span closes."""
        nid = self.name_id(name)
        clock = time.perf_counter
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return traced

    # aggregation -----------------------------------------------------------

    def _arrays(self):
        return (np.array(self.name_ids, dtype=np.int64),
                np.array(self.parents, dtype=np.int64),
                np.array(self.starts, dtype=float),
                np.array(self.ends, dtype=float))

    def table(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        names, parents, starts, ends = self._arrays()
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        return {n: {"calls": int(calls[i]), "s": float(incl[i]),
                    "self_s": float(own[i])}
                for i, n in enumerate(self.names)}

    def per_root(self, root: str, name: str) -> list[dict]:
        """For each top-level span called root, in call order: the calls and
        inclusive seconds of the spans called name beneath it."""
        if root not in self._ids or name not in self._ids:
            return []
        names, parents, starts, ends = self._arrays()
        top = np.arange(len(parents))
        while True:
            up = parents[top]
            if not (up >= 0).any():
                break
            top = np.where(up >= 0, up, top)
        dur = ends - starts
        out = []
        for r in np.flatnonzero((names == self._ids[root]) & (parents < 0)):
            under = (names == self._ids[name]) & (top == r)
            out.append({"calls": int(under.sum()), "s": float(dur[under].sum())})
        return out

    def save(self, path) -> None:
        names, parents, starts, ends = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_ids=names,
                            parents=parents, starts=starts, ends=ends)


# ---------------------------------------------------------------------------
# installation


def _fft_points(tracer, args, kwargs, result):
    a = args[0] if args else kwargs.get("x", kwargs.get("a"))
    tracer.count("fft.points", max(int(np.size(a)), int(np.size(result))))


def _bundle_counts(tracer, args, kwargs, bundle):
    tracer.count("operators.radial_bundle.radii", len(bundle.radii))
    tracer.count("operators.radial_bundle.bytes", int(bundle.components.nbytes))


def _m_args(tracer, args, kwargs, result):
    tracer.count("multiplier.m_values.args", int(np.size(result)))


COUNTERS = {"operators.radial_bundle": _bundle_counts,
            "multiplier.m_values": _m_args}


def install(tracer: Tracer) -> None:
    """Wrap the numpy and scipy n-d FFT entry points under the span "fft"."""
    if PACKAGE in sys.modules:
        raise RuntimeError("install the tracer before rieszmax is imported")
    import scipy.fft
    counter = functools.partial(_fft_points, tracer)
    for mod in (np.fft, scipy.fft):
        for name in FFT_NAMES:
            setattr(mod, name, tracer.wrap("fft", getattr(mod, name), counter))


def _public_functions(module) -> dict[str, object]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {n: getattr(module, n) for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__}


def wrap_package(tracer: Tracer) -> None:
    """Wrap every public function of the imported rieszmax modules and
    rebind the wrapper wherever the package binds the original (so
    `from .operators import f` copies in other modules are traced too)."""
    wrappers: dict[int, object] = {}   # id of the original -> its wrapper
    for m in MODULES:
        mod = sys.modules.get(f"{PACKAGE}.{m}")
        if mod is None:
            continue
        for name, fn in _public_functions(mod).items():
            key = f"{m}.{name}"
            hook = COUNTERS.get(key)
            wrappers[id(fn)] = tracer.wrap(
                key, fn, functools.partial(hook, tracer) if hook else None)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
    for mod_short, cls_name, meth in CLASS_METHODS:
        cls = getattr(sys.modules[f"{PACKAGE}.{mod_short}"], cls_name)
        setattr(cls, meth, tracer.wrap(f"{mod_short}.{cls_name}.{meth}",
                                       cls.__dict__[meth]))
