"""Exact q-expansions of b, c, d and p_n on X1(N), and the identity checks
between them.

b and c are recovered from the Siegel side through p_2 = -b and p_4 = c b^5;
d is the series of (t h_{(1/N,0)})^12.  The checks verify, to the tracked
precision, that F_N(b, c) vanishes, that P_n(b, c) agrees with the p_n series
coming from the exponent dictionary, and that D(b, c) agrees with d.
"""

from __future__ import annotations

from . import divpoly
from .qseries import QSeries
from .siegel import product_series
from .unit_lattice import d_to_h, p_to_h, v_to_h

__all__ = [
    "PhaseNotRational",
    "CurveExpansion",
    "expand_curve",
    "check_defining_equation",
    "check_p_consistency",
    "check_d_consistency",
    "defining_equation_report",
    "p_consistency_report",
    "d_consistency_report",
    "express2_series_report",
]


class PhaseNotRational(ArithmeticError):
    """A series that must be rational carried an odd power of i."""


def _resolve(sign, sp):
    """sign * SiegelProduct -> plain rational QSeries."""
    if sp.ipow % 2:
        raise PhaseNotRational("power of i is %d" % sp.ipow)
    return sp.to_qseries() * sign


class CurveExpansion:
    """Series data for one level; immutable after construction apart from the
    internal p_n and power caches."""

    def __init__(self, N, precN, divcache=None):
        if N < 4:
            raise ValueError("level N must be at least 4")
        if precN < 1:
            raise ValueError("precN must be at least 1")
        self.N = N
        self.precN = precN
        self.divcache = divcache if divcache is not None else divpoly._default_cache
        self._pcache = {}
        s2, vec2 = p_to_h(2, N)
        self._pcache[2] = _resolve(s2, product_series(vec2, precN))
        self.b = -self._pcache[2]
        p4 = self.p(4)
        self.c = p4 * self.b.pow_int(-5)
        self.d = _resolve(1, product_series(d_to_h(N), precN))
        self._bpows = {0: QSeries.one(N, precN), 1: self.b}
        self._cpows = {0: QSeries.one(N, precN), 1: self.c}

    def p(self, n):
        """The p_n series (zero to precision when n = 0 mod N)."""
        if n not in self._pcache:
            folded = p_to_h(n, self.N)
            if folded is None:
                self._pcache[n] = QSeries.zero(self.N, self.precN)
            else:
                sign, vec = folded
                self._pcache[n] = _resolve(sign, product_series(vec, self.precN))
        return self._pcache[n]

    def _pow(self, cache, base, k):
        while k not in cache:
            top = max(cache)
            cache[top + 1] = cache[top] * base
        return cache[k]

    def eval_poly(self, f):
        """Evaluate a polynomial in B, C at (b-series, c-series)."""
        if f.is_zero:
            return QSeries.zero(self.N, self.precN)
        acc = None
        for (i, j), coeff in sorted(f.terms.items()):
            if i and j:
                term = self._pow(self._bpows, self.b, i) * self._pow(
                    self._cpows, self.c, j
                )
            elif i:
                term = self._pow(self._bpows, self.b, i)
            elif j:
                term = self._pow(self._cpows, self.c, j)
            else:
                term = QSeries.one(self.N, self.precN)
            term = term * coeff
            acc = term if acc is None else acc + term
        return acc


def expand_curve(N, precN=None, divcache=None):
    """Build the b, c, d expansions at level N (default precN = 15*N)."""
    if precN is None:
        precN = 15 * N
    return CurveExpansion(N, precN, divcache)


def _agreement_report(check, N, precN, lhs, rhs, n=None):
    """Compare lhs and rhs on their common window, from the lower of exponent
    0 and their first tracked exponents up to the lower precision.  A check
    whose window holds no exponent compares nothing and does not pass."""
    bad = lhs.first_difference(rhs)
    window = min(lhs.precN, rhs.precN) - min(0, lhs.ord, rhs.ord)
    report = {"check": check, "N": N, "precN": precN, "pass": bad is None and window > 0}
    if n is not None:
        report["n"] = n
    if bad is not None:
        report["firstFailingExponent"] = str(bad)
    return report


def _vanishing_report(check, N, precN, qs, n=None):
    return _agreement_report(check, N, precN, qs, QSeries.zero(N, qs.precN), n=n)


def defining_equation_report(N, precN=None, expansion=None):
    """F_N(b, c) = O(q^(precN/N))."""
    if expansion is None:
        expansion = expand_curve(N, precN)
    fn = expansion.divcache.F(N)
    value = expansion.eval_poly(fn)
    return _vanishing_report("defining_equation", N, expansion.precN, value)


def check_defining_equation(N, precN=None):
    return defining_equation_report(N, precN)["pass"]


def p_consistency_report(N, n, precN=None, expansion=None):
    """P_n(b, c) agrees with the p_n series (vanishes when n = 0 mod N)."""
    if expansion is None:
        expansion = expand_curve(N, precN)
    lhs = expansion.eval_poly(expansion.divcache.P(n))
    if n % N == 0:
        return _vanishing_report("p_consistency", N, expansion.precN, lhs, n=n)
    return _agreement_report(
        "p_consistency", N, expansion.precN, lhs, expansion.p(n), n=n
    )


def check_p_consistency(N, n, precN=None):
    return p_consistency_report(N, n, precN)["pass"]


def d_consistency_report(N, precN=None, expansion=None):
    """D(b, c) agrees with the d series."""
    if expansion is None:
        expansion = expand_curve(N, precN)
    lhs = expansion.eval_poly(divpoly.DISCRIMINANT)
    return _agreement_report("d_consistency", N, expansion.precN, lhs, expansion.d)


def check_d_consistency(N, precN=None):
    return d_consistency_report(N, precN)["pass"]


def express2_series_report(N, precN=None):
    """p_{m+1} = v p_m (N odd) or v p_{m-1} (N even), as truncated series."""
    if precN is None:
        precN = 15 * N
    m = N // 2
    s_hi, vec_hi = p_to_h(m + 1, N)
    lhs = _resolve(s_hi, product_series(vec_hi, precN))
    partner = m if N % 2 else m - 1
    s_lo, vec_lo = p_to_h(partner, N)
    v_prod = product_series(v_to_h(N), precN)
    rhs = _resolve(s_lo, v_prod * product_series(vec_lo, precN))
    report = _agreement_report("express2_series", N, precN, lhs, rhs)
    report["n"] = m + 1
    return report
