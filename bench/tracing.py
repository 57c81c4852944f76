"""Spans and counters recorded from outside the chaoslimits package.

``instrument`` replaces selected public functions of each layer module with
timing wrappers, in every module namespace that binds them (so both
``chaoslimits.chaos.contract`` and ``chaoslimits.diagnostics.contract`` are
wrapped), plus three class-level hooks and a counting stand-in for
``scipy.integrate`` as ``chaoslimits.targets`` sees it.  Everything is
restored on exit; nothing under ``src/`` is edited.

A span holds a name, start, end, parent span and the id of the question the
benchmark was asking when it opened.  Spans stay in memory; the runner writes
them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Public functions left unwrapped: per-element helpers called hundreds of
# thousands of times per pass, where a span would cost more than the call.
UNWRAPPED = frozenset({
    "chaos.hermite",
    "chaos.multiplicity",
    "io.format_float",
    "io.file_param_name",
})

LAYER_MODULES = ("chaos", "diagnostics", "targets", "simulate", "io", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "qid", "attrs")

    def __init__(self, name, start, end=None, parent=None, qid=None, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.qid = qid
        self.attrs = attrs

    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "qid": self.qid, "attrs": self.attrs}


class Tracer:
    """In-memory span list plus named counters for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.qid = None
        self._stack = []

    def open(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), None, parent,
                               self.qid, attrs))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def innermost(self):
        return self.spans[self._stack[-1]] if self._stack else None

    @contextmanager
    def question(self, qid):
        self.qid = qid
        span = self.open("question", {"qid": qid})
        try:
            yield
        finally:
            self.close(span)
            self.qid = None


def self_times(spans):
    """Duration of each span minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        ivs = sorted((max(k.start, s.start), min(k.end, s.end)) for k in kids)
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration() - covered)
    return out


# --- attributes computed from a call's arguments and result -------------------

def _contract_attrs(a, result):
    f, g = a["f"], a["g"]
    return {"pairs": len(f.entries) * len(g.entries),
            "blocks": len(result.blocks), "self": f is g}


def _eval_attrs(a, result):
    f, x = a["f"], a["x"]
    comps = f.components.values() if hasattr(f, "components") else (f,)
    points = 1 if getattr(x, "ndim", 1) == 1 else len(x)
    return {"point_terms": points * sum(len(k.entries) for k in comps)}


def _sample_attrs(a, result):
    return {"draws": int(a["dim"]) * int(a["count"])}


def _simulate_attrs(a, result):
    meta = result.meta
    return {"steps": meta["burn_in"] + meta["samples"] * meta["thinning"],
            "kind": a["target"].coeff.kind}


def _cli_attrs(a, result):
    argv = a["argv"] or []
    return {"command": argv[0] if argv else None}


ATTRS = {
    "chaos.contract": _contract_attrs,
    "chaos.eval_multiple_integral": _eval_attrs,
    "chaos.sample_gaussian": _sample_attrs,
    "simulate.simulate": _simulate_attrs,
    "cli.main": _cli_attrs,
}


def _wrap(tracer, name, fn):
    hook = ATTRS.get(name)
    sig = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = tracer.innermost()
        if inner is not None and inner.name == name:
            return fn(*args, **kwargs)  # recursion: one span per outermost call
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span.attrs = hook(bound.arguments, result)
        return result

    return wrapper


class _CountingIntegrate:
    """Stands in for ``scipy.integrate`` inside ``chaoslimits.targets``:
    counts ``quad`` calls and integrand evaluations, delegates the rest."""

    def __init__(self, module, counters):
        self._module = module
        self._counters = counters

    def __getattr__(self, name):
        return getattr(self._module, name)

    def quad(self, func, *args, **kwargs):
        counters = self._counters
        counters["targets.quad.calls"] += 1

        def counted(*xs):
            counters["targets.quad.integrand_evals"] += 1
            return func(*xs)

        return self._module.quad(counted, *args, **kwargs)


def _public_functions(modules):
    """(span name, function) for every wrapped public function."""
    out = []
    for short in LAYER_MODULES:
        mod = modules[short]
        for attr in ["main"] if short == "cli" else mod.__all__:
            fn = getattr(mod, attr, None)
            name = f"{short}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and name not in UNWRAPPED
                    and not inspect.isgeneratorfunction(fn)):
                out.append((name, fn))
    return out


@contextmanager
def instrument(tracer, package):
    """Wrap the package's layer functions for the duration of the block."""
    modules = {short: importlib.import_module(f"{package.__name__}.{short}")
               for short in LAYER_MODULES}
    namespaces = [package, *modules.values()]
    patches = []

    def patch(obj, attr, value):
        patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    try:
        wrappers = {id(fn): _wrap(tracer, name, fn)
                    for name, fn in _public_functions(modules)}
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    patch(ns, attr, wrappers[id(value)])

        chaos, diag, targets = (modules[k] for k in ("chaos", "diagnostics", "targets"))
        patch(chaos.BlockKernel, "symmetrized",
              _wrap(tracer, "chaos.symmetrized", chaos.BlockKernel.symmetrized))

        member = diag.KernelFamily.__call__

        def family_member(self, m):
            span = tracer.open("diagnostics.family_member", {"m": int(m)})
            try:
                return member(self, m)
            finally:
                tracer.close(span)

        patch(diag.KernelFamily, "__call__", family_member)

        coeff_call = targets.DiffusionCoefficient.__call__

        def coefficient(self, x):
            if self.kind == "numeric":
                tracer.counters["targets.numeric_coeff.points"] += np.size(x)
            return coeff_call(self, x)

        patch(targets.DiffusionCoefficient, "__call__", coefficient)
        patch(targets, "integrate",
              _CountingIntegrate(targets.integrate, tracer.counters))
        yield tracer
    finally:
        for obj, attr, original in reversed(patches):
            setattr(obj, attr, original)
