"""Outside-in span recorder for the traced benchmark run.

The program itself holds no spans yet, so this module wraps the public
entry points of each ``lightcone`` module from outside.  Every wrapped
call records its calls, its inclusive time and its self time (inclusive
time minus the time of the spans it called).  Some spans also record a
digest of their inputs, to count repeated work, or a computed work count.

A span nested in a span of the same name (``dsl.evaluate`` recursing,
a transform step evaluating its base step) adds to ``calls`` and
``self_s`` but not to ``total_s``, so ``total_s`` never counts a second
of wall time twice.

Wrapping rebinds every alias captured at import time, not only the
module attribute: names imported with ``from .frames import ...``,
class attributes such as ``JetVec6.__rmul__ = __mul__`` and tables such
as ``dsl.FUNCTIONS``.  ``missed_aliases`` then asks the garbage
collector for any remaining reference to an original, so an alias added
later cannot hide its time in the caller's self time unnoticed.
"""

import gc
import hashlib
import importlib
import math
import sys
import time
import types
from collections import Counter

import numpy as np

PACKAGE = "lightcone"

#: the transform step closures are made by this factory, one per chart
STEP_FACTORY = "transforms._step_lift"

_COMPOSE = ("exp", "sin", "cos", "sinh", "cosh", "power")
_DIFF = ("du", "dv", "z", "zbar")

# span name: (entry points it wraps, fields reported for it)
SPANS = {
    "cli.main": (("cli.main",), ("total_s", "self_s")),
    "charts.evaluate": (("charts.SurfaceChart.evaluate",),
                        ("calls", "self_s", "distinct_frac")),
    "dsl.evaluate": (("dsl.evaluate",), ("calls", "self_s")),
    "jets.product": (("jets.Jet2.__mul__", "jets.JetVec6.__mul__",
                      "jets.JetVec6.inner"),
                     ("calls", "self_s", "madds", "bytes", "madds_per_s")),
    "jets.compose": (tuple("jets.Jet2." + m for m in _COMPOSE),
                     ("calls", "self_s")),
    "jets.diff": (tuple("jets.%s.%s" % (cls, m)
                        for cls in ("Jet2", "JetVec6") for m in _DIFF),
                  ("calls", "self_s")),
    "frames.frame_field": (("frames.frame_field",),
                           ("calls", "total_s", "self_s", "distinct_frac")),
    "frames.canonical_lift": (("frames.canonical_lift",),
                              ("calls", "self_s")),
    "frames.invariants": (("frames.invariants",), ("calls", "self_s")),
    "frames.pair_density": (("frames.pair_density",), ("total_s",)),
    "frames.conformal_gauss_data": (("frames.conformal_gauss_data",),
                                    ("total_s",)),
    "transforms.apply_chain": (("transforms.apply_chain",), ("total_s",)),
    "transforms.step_eval": ((STEP_FACTORY,), ("calls", "self_s")),
    "transforms.duality_report": (("transforms.duality_report",),
                                  ("total_s",)),
}
for _name in ("structure_residual", "integrability_residual",
              "willmore_report", "swillmore_report", "theta_report",
              "gauss_metric_report", "willmore_energy"):
    SPANS["analysis." + _name] = (("analysis." + _name,), ("total_s",))

FIELD_UNITS = {
    "calls": "count", "total_s": "s", "self_s": "s", "distinct_frac": "ratio",
    "madds": "computed_madd", "bytes": "computed_B",
    "madds_per_s": "computed_madd/s",
}
TRACE_UNITS = {"trace.coverage": "ratio", "trace.overhead_s": "s"}

#: the traced run fails when wrapped spans cover less of cli.main
MIN_COVERAGE = 0.9


def metric_units():
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for span, (_, fields) in SPANS.items():
        for field in fields:
            units[span + "." + field] = FIELD_UNITS[field]
    units.update(TRACE_UNITS)
    return units


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns", "digests", "madds", "bytes")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.digests = set()
        self.madds = 0
        self.bytes = 0


def _digest(*parts):
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).data)
        else:
            h.update(repr(part).encode())
    return h.digest()


def _frame_digest(Y):
    return _digest(Y.c)


def _chart_digest(chart, U, V):
    return _digest(chart.name, sorted(chart.params.items()), U.c, V.c)


def _product_work(a, b):
    """Computed (multiply-adds, bytes) of one truncated jet product.

    A product of order K over B scalar jets costs B*C(K+4, 4) complex
    multiply-adds and moves 3*B*C(K+2, 2) complex coefficients (two
    read, one written).  Scalar scalings do no truncated product, and
    ``Jet2 * JetVec6`` hands its product on to ``JetVec6.__mul__``,
    which counts it.
    """
    jets = sys.modules[PACKAGE + ".jets"]
    if not isinstance(b, (jets.Jet2, jets.JetVec6)) or (
            isinstance(a, jets.Jet2) and isinstance(b, jets.JetVec6)):
        return 0, 0
    vector = isinstance(a, jets.JetVec6)

    def lanes(x):
        pad = (1,) if vector and isinstance(x, jets.Jet2) else ()
        return x.c.shape[:-2] + pad

    points = math.prod(np.broadcast_shapes(lanes(a), lanes(b)))
    order = min(a.order, b.order)
    return (points * math.comb(order + 4, 4),
            3 * points * math.comb(order + 2, 2) * 16)


DIGESTS = {"frames.frame_field": _frame_digest,
           "charts.evaluate": _chart_digest}
WORK = {"jets.product": _product_work}


def _resolve(target):
    """The object a dotted target names inside the package."""
    module, *path = target.split(".")
    value = importlib.import_module(PACKAGE + "." + module)
    for attr in path:
        value = getattr(value, attr)
    return value


class Tracer:
    """Wraps the entry points in ``SPANS`` while installed."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._open = Counter()
        self._replacements = {}
        self._bindings = []
        for span, (targets, _) in SPANS.items():
            for target in targets:
                original = _resolve(target)
                if target == STEP_FACTORY:
                    wrapper = self._step_factory(span, original)
                else:
                    wrapper = self._wrap(span, original)
                self._replacements[id(original)] = (original, wrapper)

    def reset(self):
        self.stats.clear()

    def _wrap(self, span, fn):
        stats, stack, opened = self.stats, self._stack, self._open
        digest, work = DIGESTS.get(span), WORK.get(span)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            st = stats.get(span)
            if st is None:
                st = stats[span] = SpanStats()
            st.calls += 1
            if digest is not None or work is not None:
                # bookkeeping belongs to no span's self time
                begin = clock()
                if digest is not None:
                    st.digests.add(digest(*args))
                if work is not None:
                    madds, nbytes = work(*args)
                    st.madds += madds
                    st.bytes += nbytes
                if stack:
                    stack[-1][0] += clock() - begin
            outermost = not opened[span]
            opened[span] += 1
            child = [0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                opened[span] -= 1
                st.self_ns += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
                if outermost:
                    st.total_ns += elapsed

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _step_factory(self, span, factory):
        def traced_factory(*args, **kwargs):
            return self._wrap(span, factory(*args, **kwargs))
        return traced_factory

    def install(self):
        """Rebind every reference the package holds to a wrapped entry
        point: module globals, class attributes, and dict tables whose
        values are entry points or tuples holding them."""
        swap = self._replacements

        def replaced(value):
            if id(value) in swap:
                return swap[id(value)][1]
            if isinstance(value, tuple) and any(id(v) in swap for v in value):
                return tuple(swap[id(v)][1] if id(v) in swap else v
                             for v in value)
            return None

        def rebind(owner, key, value, is_attr):
            new = replaced(value)
            if new is not None:
                self._bindings.append((owner, key, value, is_attr))
                if is_attr:
                    setattr(owner, key, new)
                else:
                    owner[key] = new

        for module in _package_modules():
            for key, value in list(vars(module).items()):
                rebind(module, key, value, True)
                if isinstance(value, type) and value.__module__ == \
                        module.__name__:
                    for attr, member in list(vars(value).items()):
                        rebind(value, attr, member, True)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        rebind(value, k, v, False)

    def uninstall(self):
        while self._bindings:
            owner, key, value, is_attr = self._bindings.pop()
            if is_attr:
                setattr(owner, key, value)
            else:
                owner[key] = value

    def missed_aliases(self):
        """Places that still hold an original entry point while the
        tracer is installed; each would hide its calls from the trace."""
        ours = {id(self._bindings), id(self._replacements)}
        for binding in self._bindings:
            ours.update((id(binding), id(binding[2])))
        ours.update(id(pair) for pair in self._replacements.values())
        missed = []
        for original, _ in self._replacements.values():
            for ref in gc.get_referrers(original):
                if id(ref) in ours or isinstance(
                        ref, (types.CellType, types.FrameType)):
                    continue
                missed.append("%s is still held by a %s"
                              % (original.__qualname__, type(ref).__name__))
        return missed


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def layer_metrics(stats):
    """Per-layer metric values of one traced operation, all but
    ``trace.overhead_s``, which needs untraced operations too."""
    out = {}
    for span, (_, fields) in SPANS.items():
        st = stats.get(span) or SpanStats()
        self_s = st.self_ns / 1e9
        values = {
            "calls": st.calls,
            "total_s": st.total_ns / 1e9,
            "self_s": self_s,
            "distinct_frac": len(st.digests) / st.calls if st.calls else 0.0,
            "madds": st.madds,
            "bytes": st.bytes,
            "madds_per_s": st.madds / self_s if self_s else 0.0,
        }
        for field in fields:
            out[span + "." + field] = values[field]
    total = out["cli.main.total_s"]
    out["trace.coverage"] = 1.0 - out["cli.main.self_s"] / total \
        if total else 0.0
    return out
