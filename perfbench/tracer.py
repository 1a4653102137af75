"""In-memory span tracer that wraps modunits' public entry points from outside.

Each wrapped call records one span: name, start, end, parent span and op id.
A layer's self time is a span's duration minus the durations of its direct
child spans.  Wrappers are installed wherever a name is looked up (module
globals that imported it by name, and class attributes such as ``__rmul__``
that alias ``__mul__``) and every patch is undone by ``restore``.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.names = []
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.stack = []
        self.op = [-1]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._patches = []
        self._originals = {}

    def set_op(self, op_id):
        self.op[0] = op_id

    # -- spans -------------------------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name, fn, hook):
        nid = self._name_id(name)
        book = self._name_id(BOOKKEEPING) if hook else -1
        s_name, s_parent, s_op = self.s_name, self.s_parent, self.s_op
        s_start, s_end, stack, op = self.s_start, self.s_end, self.stack, self.op
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_op.append(op[0])
            s_start.append(0.0)
            s_end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                s_start[idx] = t0
                s_end[idx] = t1
            if hook is not None:
                # the hook's own time is a sibling span, so no layer is charged for it
                hook(args, result)
                s_name.append(book)
                s_parent.append(stack[-1] if stack else -1)
                s_op.append(op[0])
                s_start.append(t1)
                s_end.append(perf())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, module, attr, name, hook=None):
        """Wrap ``module.attr`` and every other modunits binding of the same object."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, hook)
        self._originals[name] = original
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "modunits" or mod_name.startswith("modunits.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, name, hook=None):
        """Wrap a method and every alias of it in the class (``__rmul__ = __mul__``)."""
        original = cls.__dict__[attr]
        wrapper = self._wrap(name, original, hook)
        self._originals[name] = original
        for key, value in list(vars(cls).items()):
            if value is original:
                self._patches.append((cls, key, original))
                setattr(cls, key, wrapper)

    def original(self, name):
        return self._originals[name]

    def restore(self):
        """Undo every patch; returns the bindings that did not come back."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        bad = [
            "%s.%s" % (getattr(owner, "__name__", owner), key)
            for owner, key, original in self._patches
            if (owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)) is not original
        ]
        self._patches = []
        return bad

    # -- derived figures -----------------------------------------------------------

    def self_times(self):
        """({name: (calls, self seconds)}, span count)."""
        n = len(self.s_name)
        child = [0.0] * n
        s_parent, s_start, s_end = self.s_parent, self.s_start, self.s_end
        for i in range(n):
            p = s_parent[i]
            if p >= 0:
                child[p] += s_end[i] - s_start[i]
        calls = defaultdict(int)
        selfs = defaultdict(float)
        names = self.names
        s_name = self.s_name
        for i in range(n):
            name = names[s_name[i]]
            calls[name] += 1
            selfs[name] += s_end[i] - s_start[i] - child[i]
        return {k: (calls[k], selfs[k]) for k in calls}, n


def span_cost(calls=20000, repeats=5):
    """Seconds one wrapper adds to a call, best of ``repeats``: a steadier
    estimate of the tracing overhead than the difference of two wall times."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap("calibration", noop, None)
    perf = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        t0 = perf()
        for _ in range(calls):
            noop()
        t1 = perf()
        for _ in range(calls):
            wrapped()
        t2 = perf()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best


# -- the modunits instrumentation --------------------------------------------------


def _is_fraction(c):
    return type(c) is Fraction


def install(tracer):
    """Wrap the public entry points of the seven modunits modules."""
    from modunits import bivar_poly, cli, curve_series, divpoly, siegel, unit_lattice
    from modunits.bivar_poly import BivarPoly
    from modunits.qseries import QSeries

    counts, maxima = tracer.counts, tracer.maxima
    seen_P = set()

    def gcd_hook(args, result):
        if not result.is_constant:
            counts["bivar_poly.gcd.useful"] += 1

    def F_hook(args, result):
        if isinstance(result, BivarPoly):
            maxima["divpoly.F.max_terms"] = max(maxima["divpoly.F.max_terms"], len(result.terms))

    def P_hook(args, result):
        if id(result) in seen_P:
            return
        seen_P.add(id(result))
        bits = max((abs(c).bit_length() for c in result.terms.values()), default=0)
        maxima["divpoly.P.max_coeff_bits"] = max(maxima["divpoly.P.max_coeff_bits"], bits)

    def qmul_hook(args, result):
        f, g = args
        if isinstance(g, QSeries):
            # products computed by QSeries.__mul__: nonzero a_i times nonzero b_j, j < jmax
            ford = f.ord if f.coeffs else f.precN
            gord = g.ord if g.coeffs else g.precN
            L = min(f.precN + gord, g.precN + ford) - ford - gord
            nz_prefix = [0]
            for b in g.coeffs:
                nz_prefix.append(nz_prefix[-1] + (1 if b else 0))
            glen = len(g.coeffs)
            products = 0
            for i, a in enumerate(f.coeffs):
                if a:
                    jmax = min(glen, L - i)
                    if jmax > 0:
                        products += nz_prefix[jmax]
            counts["qseries.mul.coeff_products"] += products
        if isinstance(result, QSeries):
            counts["qseries.mul.out_coeffs"] += len(result.coeffs)
            counts["qseries.mul.fraction_coeffs"] += sum(map(_is_fraction, result.coeffs))

    def eval_hook(args, result):
        counts["curve_series.eval_poly.monomials"] += len(args[1].terms)

    def load_hook(args, result):
        if result is not None:
            counts["cli.PolyDiskCache.load.hits"] += 1

    tracer.patch_method(BivarPoly, "__mul__", "bivar_poly.mul")
    tracer.patch_function(bivar_poly, "div_exact", "bivar_poly.div_exact")
    tracer.patch_function(bivar_poly, "gcd", "bivar_poly.gcd", gcd_hook)
    tracer.patch_function(bivar_poly, "remove_common", "bivar_poly.remove_common")

    tracer.patch_method(divpoly.DivPolyCache, "P", "divpoly.P", P_hook)
    tracer.patch_method(divpoly.DivPolyCache, "F", "divpoly.F", F_hook)

    tracer.patch_method(QSeries, "__mul__", "qseries.mul", qmul_hook)
    tracer.patch_method(QSeries, "inv", "qseries.inv")
    tracer.patch_method(QSeries, "pow_int", "qseries.pow_int")

    tracer.patch_function(siegel, "h_star", "siegel.h_star")
    tracer.patch_function(siegel, "product_series", "siegel.product_series")

    for fn in ("basis_S", "lattice_index", "to_p_expression", "expand_p_expression",
               "decompose_series"):
        tracer.patch_function(unit_lattice, fn, "unit_lattice." + fn)

    tracer.patch_function(curve_series, "expand_curve", "curve_series.expand_curve")
    tracer.patch_method(curve_series.CurveExpansion, "eval_poly", "curve_series.eval_poly",
                        eval_hook)
    for fn in ("defining_equation_report", "d_consistency_report", "p_consistency_report",
               "express2_series_report"):
        tracer.patch_function(curve_series, fn, "curve_series." + fn)

    tracer.patch_function(cli, "main", "cli.main")
    tracer.patch_method(cli.PolyDiskCache, "load", "cli.PolyDiskCache.load", load_hook)
    tracer.patch_method(cli.PolyDiskCache, "store", "cli.PolyDiskCache.store")


MODULES = ("bivar_poly", "divpoly", "qseries", "siegel", "unit_lattice", "curve_series", "cli")


def layer_metrics(tracer):
    """The per-layer figures named in BENCHMARK.json, from one traced batch."""
    per_span, nspans = tracer.self_times()
    counts, maxima = tracer.counts, tracer.maxima

    def calls(name):
        return per_span.get(name, (0, 0.0))[0]

    def self_s(name):
        return per_span.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    info = tracer.original("siegel.h_star").cache_info()
    m = {}
    for name in ("bivar_poly.mul", "bivar_poly.div_exact", "bivar_poly.gcd", "divpoly.F",
                 "qseries.mul", "qseries.inv", "siegel.product_series", "unit_lattice.basis_S",
                 "unit_lattice.decompose_series", "curve_series.eval_poly", "cli.main"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    for name in ("divpoly.P", "unit_lattice.expand_p_expression", "curve_series.expand_curve",
                 "curve_series.express2_series_report", "cli.PolyDiskCache.load",
                 "cli.PolyDiskCache.store"):
        m[name + ".self_s"] = (self_s(name), "s")
    m["qseries.pow_int.calls"] = (calls("qseries.pow_int"), "count")
    m["siegel.h_star.calls"] = (calls("siegel.h_star"), "count")
    m["bivar_poly.gcd.useful_ratio"] = (
        ratio(counts["bivar_poly.gcd.useful"], calls("bivar_poly.gcd")), "ratio")
    m["divpoly.F.max_terms"] = (maxima["divpoly.F.max_terms"], "count")
    m["divpoly.P.max_coeff_bits"] = (maxima["divpoly.P.max_coeff_bits"], "bits")
    m["qseries.mul.coeff_products"] = (counts["qseries.mul.coeff_products"], "count")
    m["qseries.fraction_coeff_ratio"] = (
        ratio(counts["qseries.mul.fraction_coeffs"], counts["qseries.mul.out_coeffs"]), "ratio")
    m["siegel.h_star.hit_ratio"] = (ratio(info.hits, info.hits + info.misses), "ratio")
    m["siegel.h_star.cache_entries"] = (info.currsize, "count")
    m["curve_series.eval_poly.monomials"] = (counts["curve_series.eval_poly.monomials"], "count")
    m["cli.PolyDiskCache.load.hit_ratio"] = (
        ratio(counts["cli.PolyDiskCache.load.hits"], calls("cli.PolyDiskCache.load")), "ratio")
    for module in MODULES:
        total = sum((s for name, (_, s) in per_span.items() if name.startswith(module + ".")), 0.0)
        m[module + ".self_s"] = (total, "s")
    m["trace.self_sum_s"] = (sum(m[module + ".self_s"][0] for module in MODULES), "s")
    m["trace.bookkeeping_s"] = (self_s(BOOKKEEPING), "s")
    m["trace.spans"] = (nspans, "count")
    return m
