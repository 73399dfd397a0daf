"""Span tracer that wraps the package's public functions from outside.

Tracer.install() swaps each traced function for a wrapper in every package
namespace that holds it, so functions imported by name (``from .abelian
import transport_table``) are caught wherever they are called from.
Methods are wrapped on their class.  uninstall() puts the originals back.
The package source is never modified.

A span is a row [layer, start, end, parent]; spans stay in memory and are
written out when the run ends.  Counters come from the arguments and return
values seen at the wrapped boundary.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "duffing_melnikov"


def _size(x) -> int:
    import numpy as np

    return int(np.size(x))


def _count_calls_of(argument: str, counter: str) -> Callable:
    """Pre-hook: replace the callable passed as `argument` with one that adds
    the number of abscissae it is evaluated at to `counter`.  The per-call
    total is returned as the hook state."""

    def pre(tracer, layer, arguments):
        inner = arguments[argument]
        seen = [0]

        def counted(x, *rest, **kw):
            n = _size(x)
            seen[0] += n
            tracer.counts[layer, counter] += n
            return inner(x, *rest, **kw)

        arguments[argument] = counted
        return seen

    return pre


def _count_points(argument: str) -> Callable:
    def post(tracer, layer, arguments, result, state):
        tracer.counts[layer, "points"] += _size(arguments[argument])

    return post


def _transport_post(tracer, layer, arguments, result, state):
    tracer.counts[layer, "segments"] += len(result.solutions)
    tracer.counts[layer, "nfev"] += sum(int(sol.nfev) for sol in result.solutions)


def _contour_post(tracer, layer, arguments, result, state):
    # a table object not returned before was built by this call
    if id(result) not in tracer.tables:
        tracer.tables[id(result)] = result
        tracer.counts[layer, "builds"] += 1
    key = (result.annulus, result.R, result.eta, result.rho)
    tracer.s_init[key] = len(result.s_init)


def _certificate_post(tracer, layer, arguments, result, state):
    n = int(result.n_samples)
    tracer.counts[layer, "samples"] += n
    initial = tracer.s_init.get((result.annulus, *result.contour), n)
    tracer.counts[layer, "refine_samples"] += max(0, n - initial)


def _real_zeros_post(tracer, layer, arguments, result, state):
    tracer.counts[layer, "refine_samples"] += max(0, state[0] - int(arguments["n_scan"]))


def _solve_ivp_post(tracer, layer, arguments, result, state):
    tracer.counts[layer, "nfev"] += int(result.nfev)


@dataclass(frozen=True)
class Target:
    """One traced boundary.

    layer    metric prefix, also the span name
    module   package submodule that defines the function
    attr     attribute path inside it ("PathTable.values_at" for a method)
    counters extra counter names reported besides calls/busy_s/self_s
    pre      hook(tracer, layer, arguments) -> state, may replace arguments
    post     hook(tracer, layer, arguments, result, state)
    span     False for a pure counter (no span, no calls/busy/self)
    timed    False to report calls without busy_s and self_s
    scope    None to patch every package namespace holding the function,
             else the one module whose name binding is patched
    """

    layer: str
    module: str
    attr: str
    counters: tuple = ()
    pre: Callable | None = None
    post: Callable | None = None
    span: bool = True
    timed: bool = True
    scope: str | None = None


_QUAD = dict(counters=("nodes",), pre=_count_calls_of("f", "nodes"))
_CERT = dict(counters=("samples", "refine_samples"), post=_certificate_post)

TARGETS = (
    Target("quadrature.integrate_endpoint_sqrt", "quadrature", "integrate_endpoint_sqrt", **_QUAD),
    Target("quadrature.integrate_smooth", "quadrature", "integrate_smooth", **_QUAD),
    Target("quadrature.integrate_path", "quadrature", "integrate_path", **_QUAD),
    Target("geometry.branch_points", "geometry", "branch_points", timed=False),
    Target("abelian.oval_integral", "abelian", "oval_integral"),
    Target("abelian.transport_table", "abelian", "transport_table",
           counters=("segments", "nfev"), post=_transport_post),
    Target("abelian.PathTable.values_at", "abelian", "PathTable.values_at",
           counters=("points",), post=_count_points("s")),
    Target("abelian.RealPeriodTable.values", "abelian", "RealPeriodTable.values",
           counters=("points",), post=_count_points("h")),
    Target("abelian.cut_values", "abelian", "cut_values"),
    Target("abelian.nonvanishing_grid", "abelian", "nonvanishing_grid"),
    Target("melnikov.pole_cleared_eval", "melnikov", "pole_cleared_eval"),
    Target("melnikov.m1_quadrature", "melnikov", "m1_quadrature"),
    Target("melnikov.m2_iliev_quadrature", "melnikov", "m2_iliev_quadrature"),
    Target("oracle.melnikov_fit", "oracle", "melnikov_fit"),
    Target("oracle.displacement", "oracle", "displacement"),
    Target("oracle.flow", "oracle", "flow"),
    Target("oracle.displacement_sign", "oracle", "displacement_sign"),
    # right-hand-side evaluations of every solve_ivp run made inside oracle
    Target("oracle", "oracle", "solve_ivp", counters=("nfev",),
           post=_solve_ivp_post, span=False, scope="oracle"),
    Target("zeros.contour_table", "zeros", "contour_table",
           counters=("builds",), post=_contour_post),
    Target("zeros.winding_count", "zeros", "winding_count", **_CERT),
    Target("zeros.certify", "zeros", "certify", **_CERT),
    Target("zeros.real_zeros", "zeros", "real_zeros",
           counters=("samples", "refine_samples"),
           pre=_count_calls_of("fn", "samples"), post=_real_zeros_post),
    Target("cli.main", "cli", "main"),
)

# Layers whose share of the CLI time is reported: the part of their busy time
# spent inside cli.main, divided by the busy time of cli.main.
SHARES = ("abelian.PathTable.values_at", "abelian.transport_table", "oracle.flow")


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric the traced run reports."""
    names = []
    for t in TARGETS:
        if t.span:
            names.append((f"{t.layer}.calls", "count"))
            if t.timed:
                names += [(f"{t.layer}.busy_s", "s"), (f"{t.layer}.self_s", "s")]
        names += [(f"{t.layer}.{c}", "count") for c in t.counters]
    names += [(f"share.{layer}", "ratio") for layer in SHARES]
    return names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)
        self.tables: dict = {}
        self.s_init: dict = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        for t in TARGETS:
            mod = modules[f"{PACKAGE}.{t.module}"]
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(t, original))
                continue
            original = getattr(mod, t.attr)
            wrapper = self._wrap(t, original)
            owners = [mod] if t.scope else list(modules.values())
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, name, original, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _patch(self, owner, name, original, wrapper) -> None:
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, target: Target, fn):
        layer, pre, post = target.layer, target.pre, target.post
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if (pre or post) else None
        span = target.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if pre is not None:
                    state = pre(self, layer, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            if span:
                idx = len(spans)
                spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = clock()
            else:
                result = fn(*args, **kwargs)
            if post is not None:
                post(self, layer, bound.arguments, result, state)
            return result

        return wrapper

    # -- reporting --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s (outermost spans only) and self_s per layer, the
        counters, and the SHARES of cli.main busy time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict = defaultdict(int)
        busy: dict = defaultdict(float)
        own: dict = defaultdict(float)
        in_cli: dict = defaultdict(float)
        for i, (layer, start, end, parent) in enumerate(spans):
            calls[layer] += 1
            own[layer] += (end - start) - child[i]
            nested = under_cli = False
            p = parent
            while p >= 0:
                if spans[p][0] == layer:
                    nested = True
                if spans[p][0] == "cli.main":
                    under_cli = True
                p = spans[p][3]
            if not nested:
                busy[layer] += end - start
                if under_cli:
                    in_cli[layer] += end - start
        out: dict[str, float] = {}
        for name, _ in metric_names():
            layer, _, key = name.rpartition(".")
            if name.startswith("share."):
                cli = busy["cli.main"]
                layer = name[len("share."):]
                out[name] = in_cli[layer] / cli if cli > 0 else 0.0
            elif key == "calls":
                out[name] = calls[layer]
            elif key == "busy_s":
                out[name] = busy[layer]
            elif key == "self_s":
                out[name] = own[layer]
            else:
                out[name] = self.counts[layer, key]
        return out

    def write(self, path) -> None:
        """All spans as JSON: layer names, then [layer index, start, end,
        parent index] rows with times relative to the first span."""
        layers = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(layers)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[l], round(s - t0, 9), round(e - t0, 9), p] for l, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "start_s", "end_s", "parent"],
                       "layers": layers, "spans": rows}, fh, separators=(",", ":"))
