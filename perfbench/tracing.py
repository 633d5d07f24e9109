"""Span and count wrappers installed around normlab's public functions.

The wrappers live here, outside the package: nothing in ``src/normlab``
knows it is being traced.  Each wrapped function is patched on its module
and on every other binding of the same object inside ``normlab`` (the
``from .opnorm import matrix_norm`` names and the ``verify.ALL_CHECKS``
table), so a call is seen whichever name the caller uses.

Spans record (name, start, end, parent span, request id, tag) and stay in
memory until the run ends.  Hot inner functions (``operators.apply`` and the
two ``spaces`` array kernels) and the numpy LAPACK entry points are only
counted, because a span per call would cost more than the call.
"""

from __future__ import annotations

import collections
import functools
import math
import statistics
import sys
import time

import numpy as np

from normlab import (cli, convex, operators, opnorm, pseudospectrum, spaces,
                     verify)


# ---------------------------------------------------------------------------
# floating-point operation counts computed from LAPACK shapes
# (Golub & Van Loan operation counts; a complex flop counts as 4 real ones)
# ---------------------------------------------------------------------------

def _shape_terms(a):
    a = np.asarray(a)
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    scale = 4 if np.iscomplexobj(a) else 1
    return a.shape[-2], a.shape[-1], batch * scale


def _flops_inv(args, kwargs):
    _, n, k = _shape_terms(args[0])
    return k * 2 * n ** 3


def _svd_values_flops(m, n):
    m, n = max(m, n), min(m, n)
    return 4 * m * n * n - (4 * n ** 3) // 3


def _flops_cond(args, kwargs):
    m, n, k = _shape_terms(args[0])
    p = args[1] if len(args) > 1 else kwargs.get("p")
    if p in (None, 2, -2):
        return k * _svd_values_flops(m, n)
    return k * 2 * n ** 3


def _flops_svd(args, kwargs):
    m, n, k = _shape_terms(args[0])
    compute_uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
    if not compute_uv:
        return k * _svd_values_flops(m, n)
    m, n = max(m, n), min(m, n)
    return k * (4 * m * m * n + 8 * m * n * n + 9 * n ** 3)


def _flops_solve(args, kwargs):
    _, n, k = _shape_terms(args[0])
    b = np.asarray(args[1] if len(args) > 1 else kwargs["b"])
    rhs = b.shape[-1] if b.ndim == np.ndim(args[0]) else 1
    return k * ((2 * n ** 3) // 3 + 2 * n * n * rhs)


# ---------------------------------------------------------------------------
# tags attached to a span from the call's arguments and result
# ---------------------------------------------------------------------------

def _tag_cells(args, kwargs, out):
    return out.resolution ** 2


def _tag_singular(args, kwargs, out):
    value = out[0] if isinstance(out, tuple) else out
    return value == math.inf


def _tag_matrix_method(args, kwargs, out):
    return out[2]


def _tag_report_method(args, kwargs, out):
    return out.method


def _tag_solve(args, kwargs, out):
    return out[1].converged, out[1].gap


SPANS = (
    (cli, "main", "cli.main", None),
    (operators, "truncate_matrix", "operators.truncate_matrix", None),
    (pseudospectrum, "grid_scan", "pseudospectrum.grid_scan", _tag_cells),
    (pseudospectrum, "resolvent_norm", "pseudospectrum.resolvent_norm",
     _tag_singular),
    (opnorm, "matrix_norm", "opnorm.matrix_norm", _tag_matrix_method),
    (opnorm, "operator_norm", "opnorm.operator_norm", _tag_report_method),
    (opnorm, "attainment_scan", "opnorm.attainment_scan", None),
    (opnorm, "maximize_swapped_f", "opnorm.maximize_swapped_f", None),
    (convex, "minkowski_norm", "convex.minkowski_norm", _tag_solve),
    (convex, "sex_norm_bounds", "convex.sex_norm_bounds", None),
    (convex, "b_atomic_decompose", "convex.b_atomic_decompose", None),
    (verify, "sphere_grid_norm", "verify.sphere_grid_norm", None),
)

COUNTS = (
    (operators, "apply", "operators.apply", None),
    (spaces, "norm_array", "spaces.norm_array", None),
    (spaces, "norming_functional_array", "spaces.norming_functional_array",
     None),
    (np.linalg, "inv", "linalg.inv", _flops_inv),
    (np.linalg, "cond", "linalg.cond", _flops_cond),
    (np.linalg, "svd", "linalg.svd", _flops_svd),
    (np.linalg, "solve", "linalg.solve", _flops_solve),
)


class Tracer:
    """In-memory span and count recorder; records only while ``active``."""

    def __init__(self):
        self.active = False
        self.request = -1
        self.spans = []            # [name, start, end, parent, request, tag]
        self.counts = collections.Counter()
        self._stack = []
        self._patched = []         # (owner, key, original)

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if tag is not None:
                rec[5] = tag(args, kwargs, out)
            return out
        return wrapper

    def counter(self, name, fn, flops=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
                if flops is not None:
                    counts["linalg.flops_computed"] += flops(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper, owner, attr):
        """Patch ``owner.attr`` and every other normlab binding of original."""
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "normlab"
                                   or modname.startswith("normlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self):
        for owner, attr, name, tag in SPANS:
            fn = getattr(owner, attr)
            self._replace(fn, self.span(name, fn, tag), owner, attr)
        for owner, attr, name, flops in COUNTS:
            fn = getattr(owner, attr)
            self._replace(fn, self.counter(name, fn, flops), owner, attr)
        for cid, fn in list(verify.ALL_CHECKS.items()):
            wrapper = self.span("verify." + cid, fn)
            verify.ALL_CHECKS[cid] = wrapper
            self._patched.append((verify.ALL_CHECKS, cid, fn))
            self._replace(fn, wrapper, verify, fn.__name__)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("index,request,parent,name,start_s,end_s,tag\n")
            for i, (name, start, end, parent, req, tag) in enumerate(
                    self.spans):
                fh.write("%d,%d,%d,%s,%.9f,%.9f,%s\n"
                         % (i, req, parent, name, start, end,
                            "" if tag is None else str(tag).replace(",", ";")))


# ---------------------------------------------------------------------------
# per-layer metrics derived from the spans and counts
# ---------------------------------------------------------------------------

def percentile_ms(durs, q):
    """q-th percentile of durations in seconds, in ms (0 when empty)."""
    if len(durs) < 2:
        return durs[0] * 1e3 if durs else 0.0
    return statistics.quantiles(durs, n=100, method="inclusive")[q - 1] * 1e3


def _timing(out, prefix, durs, selfs=None):
    out[prefix + ".calls"] = len(durs)
    out[prefix + ".total_s"] = math.fsum(durs)
    if selfs is not None:
        out[prefix + ".self_s"] = math.fsum(selfs)
    out[prefix + ".p50_ms"] = percentile_ms(durs, 50)
    out[prefix + ".p90_ms"] = percentile_ms(durs, 90)


def layer_metrics(tracer, wall_s, overhead_s):
    """Flat {metric name: value} for every span and count of one pass."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    durs = collections.defaultdict(list)
    selfs = collections.defaultdict(list)
    tags = collections.defaultdict(list)
    top = 0.0
    for i, (name, start, end, parent, _, tag) in enumerate(spans):
        d = end - start
        durs[name].append(d)
        selfs[name].append(d - child[i])
        tags[name].append(tag)
        if parent < 0:
            top += d

    out = {}
    for _, _, name, _ in SPANS:
        _timing(out, name, durs[name], selfs[name])
    out["pseudospectrum.grid_scan.cells"] = sum(
        tags["pseudospectrum.grid_scan"])
    out["pseudospectrum.resolvent_norm.singular"] = sum(
        1 for t in tags["pseudospectrum.resolvent_norm"] if t)
    for method in ("closed_form", "iterate"):
        sel = [d for d, t in zip(durs["opnorm.matrix_norm"],
                                 tags["opnorm.matrix_norm"]) if t == method]
        _timing(out, "opnorm.matrix_norm." + method, sel)
    for method in ("closed_form", "reduction_f", "iterate"):
        out["opnorm.operator_norm.%s.calls" % method] = sum(
            1 for t in tags["opnorm.operator_norm"] if t == method)
    solves = tags["convex.minkowski_norm"]
    mk = durs["convex.minkowski_norm"]
    out["convex.minkowski_norm.max_ms"] = max(mk) * 1e3 if mk else 0.0
    out["convex.minkowski_norm.converged_ratio"] = (
        sum(1 for c, _ in solves if c) / len(solves) if solves else 1.0)
    out["convex.minkowski_norm.gap_max"] = max((g for _, g in solves),
                                               default=0.0)
    for cid in verify.ALL_CHECKS:
        out["verify.%s.total_s" % cid] = math.fsum(durs["verify." + cid])
    for _, _, name, _ in COUNTS:
        out[name + ".calls"] = tracer.counts[name]
    out["linalg.flops_computed"] = tracer.counts["linalg.flops_computed"]
    out["trace.wall_s"] = wall_s
    out["trace.spans"] = len(spans)
    out["trace.top_span_share"] = top / wall_s if wall_s > 0 else 0.0
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_ratio"] = (overhead_s / (wall_s - overhead_s)
                                   if wall_s > overhead_s else 0.0)
    return out


def is_exact(name):
    """True for metrics that must repeat exactly when the code and seed do."""
    return (name.endswith((".calls", ".cells", ".singular"))
            or name in ("linalg.flops_computed", "trace.spans",
                        "convex.minkowski_norm.converged_ratio",
                        "convex.minkowski_norm.gap_max"))


def _noop(x):
    return x


def calibrate(calls=20000):
    """Measured cost in seconds of one span and of one count wrapper call."""
    probe = Tracer()
    probe.active = True
    spanned = probe.span("probe", _noop)
    counted = probe.counter("probe", _noop)
    costs = []
    for fn in (_noop, spanned, counted):
        best = math.inf
        for _ in range(3):
            probe.spans.clear()
            t0 = time.perf_counter()
            for i in range(calls):
                fn(i)
            best = min(best, time.perf_counter() - t0)
        costs.append(best / calls)
    return max(costs[1] - costs[0], 0.0), max(costs[2] - costs[0], 0.0)


def estimated_overhead(tracer, span_cost, count_cost):
    counted = sum(v for k, v in tracer.counts.items()
                  if k != "linalg.flops_computed")
    return len(tracer.spans) * span_cost + counted * count_cost
