"""Span tracing of rescert from outside the package.

``Tracer.instrument`` replaces every public function and public method of
every module in ``src/rescert`` with a wrapper that records a span (name,
start, end, parent) in memory.  A function is replaced under every name it
is bound to in any rescert module, because modules import each other's
functions by name (``experiments`` calls ``train`` and
``sobolev_errors_upto`` through its own globals).  ``restore`` puts the
originals back, so the same process can alternate traced and untraced calls.

Not spanned:
- ``coeff_layout``, ``product_terms`` and ``CoeffLayout`` methods: cached
  table lookups called inside the hottest loops;
- the scalar-jet code that runs once per point (``TaylorJet`` arithmetic,
  the seeds and elementary functions of ``jets``, ``geometry.distance_jet``
  and ``geometry.distance_factor``): a span per point would cost more than
  the work it measures, so these are counted (``COUNTED``) and their time
  stays in the caller's self time.

A few counts are computed from argument shapes at the call boundary (GEMM
flops, jet bytes, points, summed values, Adam steps, certificate reports).
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

LOOKUPS = frozenset({"jets.coeff_layout", "jets.product_terms", "jets.seed_variable",
                     "jets.seed_constant", "jets.seed_point"})
COUNTED = {
    "geometry.distance_jet": "geometry.distance_points",
    "geometry.distance_factor": "geometry.distance_factor_calls",
    **{f"jets.{f}": "jets.scalar_ops"
       for f in ("tanh", "sin", "cos", "exp", "power", "laplacian", "grad_laplacian")},
}
UNTRACED_CLASSES = frozenset({"jets.CoeffLayout", "jets.TaylorJet"})
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__")
# layers that own spans; nothing in ``jets`` is spanned (see above)
LAYERS = ("network", "losses", "quadrature", "ansatz", "geometry", "fields",
          "problems", "training", "certify", "experiments")


class Tracer:
    """In-memory spans plus named counters."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self._patches = []   # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span nesting broken: closed {idx}, open {popped}")

    def reset(self):
        if self.stack:
            raise RuntimeError("reset with open spans")
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name, fn, before=None, after=None):
        """Span around fn; before(args, kwargs) / after(result, args, kwargs)
        add computed counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self.counts, args, kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self.counts, result, args, kwargs)
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def instrument(self, package, modules):
        """Wrap the public callables of ``modules`` (name -> module object)
        wherever a rescert module or the package namespace binds them."""
        namespaces = [package] + list(modules.values())
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isclass(obj):
                    if name not in UNTRACED_CLASSES:
                        self._instrument_class(name, obj)
                    continue
                if not callable(obj) or name in LOOKUPS:
                    continue
                if name in COUNTED:
                    wrapper = _counted(self.counts, COUNTED[name], obj)
                else:
                    wrapper = self.wrap(name, obj, **HOOKS.get(name, {}))
                for ns in namespaces:
                    for bound, val in list(vars(ns).items()):
                        if val is obj:
                            self._set(ns, bound, wrapper)
        taylor = modules["jets"].TaylorJet
        for op in SCALAR_OPS:
            self._set(taylor, op, _counted(self.counts, "jets.scalar_ops",
                                           taylor.__dict__[op]))

    def _instrument_class(self, name, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            span = f"{name}.{attr}"
            hooks = HOOKS.get(span, {})
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self.wrap(span, raw.__func__, **hooks)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self.wrap(span, raw, **hooks))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _counted(counts, key, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return counted


class SpanSummary:
    """Durations and self times of the spans under span index ``root``."""

    def __init__(self, spans, root):
        self.spans = spans
        self.members = [i for i in range(root, len(spans))
                        if i == root or self._inside(i, root)]
        self.duration = {i: spans[i][2] - spans[i][1] for i in self.members}
        child_time = Counter()
        for i in self.members:
            if i != root:
                child_time[spans[i][3]] += self.duration[i]
        self.self_time = {i: self.duration[i] - child_time[i] for i in self.members}

    def _inside(self, i, root):
        p = self.spans[i][3]
        while p > root:
            p = self.spans[p][3]
        return p == root

    def _names(self, i):
        p = self.spans[i][3]
        while p >= 0:
            yield self.spans[p][0]
            p = self.spans[p][3]

    def calls(self, *names):
        return sum(1 for i in self.members if self.spans[i][0] in names)

    def inclusive_ms(self, *names):
        """Duration of the named spans, counting nested repeats once."""
        return 1e3 * sum(self.duration[i] for i in self.members
                         if self.spans[i][0] in names
                         and not any(n in names for n in self._names(i)))

    def self_ms(self, *names):
        return 1e3 * sum(self.self_time[i] for i in self.members
                         if self.spans[i][0] in names)

    def layer_self_ms(self, layer, under=None):
        """Self time of a layer's spans, optionally only below spans named
        ``under`` (or being one)."""
        total = 0.0
        for i in self.members:
            name = self.spans[i][0]
            if name.split(".", 1)[0] != layer:
                continue
            if under is not None and name != under and under not in self._names(i):
                continue
            total += self.self_time[i]
        return 1e3 * total


# -- computed counts at call boundaries -----------------------------------------


def _jet_slots(dim, order):
    # packed coefficients of a jet of order <= 3 in dim variables
    return sum((1, dim, dim * (dim + 1) // 2,
                dim * (dim + 1) * (dim + 2) // 6)[:order + 1])


def _forward_counts(counts, args, kwargs):
    params, X, order = args[0], args[1], args[2]
    n = len(X)
    c = _jet_slots(params.widths[0], order)
    widths = params.widths
    flops = sum(2 * n * c * i * o for i, o in zip(widths[:-1], widths[1:]))
    # input jets, then each layer's pre-activation and (hidden) activation
    floats = n * c * (widths[0] + sum(widths[1:]) + sum(widths[1:-1]))
    counts["network.gemm_flop"] += flops
    counts["network.jet_bytes"] += 8 * floats


def _backward_counts(counts, args, kwargs):
    params, out_bar = args[0], args[2]
    n, c = out_bar.shape[0], out_bar.shape[1]
    widths = params.widths
    # weight gradient and input cotangent: two GEMMs per layer
    flops = sum(4 * n * c * i * o for i, o in zip(widths[:-1], widths[1:]))
    floats = n * c * sum(i + o for i, o in zip(widths[:-1], widths[1:]))
    counts["network.gemm_flop"] += flops
    counts["network.jet_bytes"] += 8 * floats


def _kahan_counts(counts, args, kwargs):
    import numpy as np

    counts["quadrature.kahan_values"] += int(np.size(args[0]))


def _train_steps(counts, args, kwargs):
    schedule = args[3] if len(args) > 3 else kwargs.get("schedule")
    if schedule is not None:
        counts["training.steps"] += schedule.steps


def _report_counts(counts, result, args, kwargs):
    counts["certify.reports"] += 1
    counts["certify.certified"] += bool(result.certified)


HOOKS = {
    "network.forward_jets": {"before": _forward_counts},
    "network.backward_jets": {"before": _backward_counts},
    "quadrature.kahan_sum": {"before": _kahan_counts},
    "training.train": {"before": _train_steps},
    "certify.certified_h2_bound": {"after": _report_counts},
    "certify.parabolic_bound": {"after": _report_counts},
}
