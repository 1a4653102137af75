"""Exact q-expansions of b, c, d and p_n on X1(N), and the identity checks
between them.

b and c are recovered from the Siegel side through p_2 = -b and p_4 = c b^5;
d is the series of (t h_{(1/N,0)})^12.  Every product of powers of the p_k
(p_n itself, c = -p_4 / p_2^5 and the monomials of the recurrence below) is
one Siegel product, built by CurveExpansion.monomial; a factor p_k with
k = 0 mod N makes it the zero series, which is how c vanishes at N = 4, with
no branch for that level.  The checks verify, to the tracked precision, that
F_N(b, c) vanishes, that P_n(b, c) agrees with the p_n series coming from the
exponent dictionary, and that D(b, c) agrees with d.

Polynomials are evaluated by Horner in C.  The p_n check evaluates P_n only
for n <= 4.  For n >= 5 it checks that the p_n series satisfy the
division-polynomial recurrence that builds P_n (divpoly.DivPolyCache), each
side one Siegel product; by induction on n this is equivalent to
P_n(b, c) = p_n, without the powers of b up to deg_B P_n.
"""

from __future__ import annotations

from . import divpoly
from .qseries import QSeries, ZeroSeries
from .siegel import product_series
from .unit_lattice import ExpVector, d_to_h, p_to_h, v_to_h

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
    caches _products (Siegel products by exponent vector), _pcache (p_n) and
    _bpows (powers of b)."""

    def __init__(self, N, precN, divcache=None):
        if N < 4:
            raise ValueError("level N must be at least 4")
        if precN < 1:
            raise ValueError("precN must be at least 1")
        self.N = N
        self.precN = precN
        self.divcache = divcache if divcache is not None else divpoly._default_cache
        self._products = {}
        self._pcache = {}
        self.b = -self.p(2)
        # c = p_4 / b^5 = -p_4 / p_2^5 (the zero series at N = 4)
        self.c = -self.monomial({4: 1, 2: -5})
        self.d = _resolve(1, self.product(d_to_h(N)))
        self._bpows = [QSeries.one(N, precN), self.b]

    def product(self, vec):
        """product_series(vec, precN), built once per exponent vector: at small
        levels distinct units can share one (v = -p_3 at N = 4, c = p_2 at
        N = 5)."""
        if vec not in self._products:
            self._products[vec] = product_series(vec, self.precN)
        return self._products[vec]

    def monomial(self, powers):
        """prod p_k^r over the (k, r) items of powers, as one Siegel product of
        sum r*vec_k with sign prod s_k^(r mod 2).  When a factor p_k with
        k = 0 mod N occurs, the result is the zero series to precN times the
        product of the other factors; a negative power of one raises
        ZeroSeries."""
        N = self.N
        sign, e, vanishes = 1, [0] * (N // 2), False
        for k, r in powers.items():
            if not r:
                continue
            folded = p_to_h(k, N)
            if folded is None:
                if r < 0:
                    raise ZeroSeries("p_%d is the zero series at level %d" % (k, N))
                vanishes = True
                continue
            s, vec = folded
            if r % 2:
                sign *= s
            for i, x in enumerate(vec.e):
                e[i] += r * x
        rest = _resolve(sign, self.product(ExpVector(N, e)))
        return QSeries.zero(N, self.precN) * rest if vanishes else rest

    def p(self, n):
        """The p_n series (zero to precision when n = 0 mod N)."""
        if n not in self._pcache:
            self._pcache[n] = self.monomial({n: 1})
        return self._pcache[n]

    def _bpow(self, i):
        while len(self._bpows) <= i:
            self._bpows.append(self._bpows[-1] * self.b)
        return self._bpows[i]

    def eval_poly(self, f):
        """Evaluate a polynomial in B, C at (b-series, c-series), by Horner in C:
        each row sum_i a_ij B^i is a scalar combination of the cached b^i, and
        the rows are folded with deg_C products by c."""
        if f.is_zero:
            return QSeries.zero(self.N, self.precN)
        rows = {}
        for (i, j), coeff in f.terms.items():
            rows.setdefault(j, []).append((coeff, self._bpow(i)))
        acc = None
        for j in range(max(rows), -1, -1):
            if acc is not None:
                acc = acc * self.c
            if j in rows:
                row = _combination(rows[j])
                acc = row if acc is None else acc + row
        return acc


def _combination(terms):
    """sum coeff * s over the (coeff, series) pairs, tracked like repeated +."""
    precN = min(s.precN for _, s in terms)
    lo = min([precN] + [s.ord for _, s in terms if s.coeffs])
    out = [0] * (precN - lo)
    for coeff, s in terms:
        for n, x in enumerate(s.coeffs[: max(0, precN - s.ord)], start=s.ord - lo):
            out[n] += coeff * x
    return QSeries(terms[0][1].denomN, lo, out, precN)


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


def _recurrence_series(expansion, n):
    """p_n rebuilt from p_1..p_{n-1} by the division-polynomial recurrence,
    n >= 5: u - v with u = p_{l+2} p_l^3, v = p_{l+1}^3 p_{l-1} for n = 2l+1,
    and u = p_l p_{l+2} p_{l-1}^2 / p_2, v = p_l p_{l-2} p_{l+1}^2 / p_2 for
    n = 2l.  A monomial with a zero factor (the zero series) is dropped."""
    l = n // 2
    if n % 2:
        monomials = ({l + 2: 1, l: 3}, {l + 1: 3, l - 1: 1})
    else:
        monomials = ({l: 1, l + 2: 1, l - 1: 2}, {l: 1, l - 2: 1, l + 1: 2})
        for powers in monomials:
            # l - 1 or l - 2 can be 2 itself
            powers[2] = powers.get(2, 0) - 1
    u, v = (expansion.monomial(pw) for pw in monomials)
    terms = [(sign, mono) for sign, mono in ((1, u), (-1, v)) if not mono.is_zero]
    if not terms:
        return QSeries.zero(expansion.N, expansion.p(n).precN)
    return _combination(terms)


def p_consistency_report(N, n, precN=None, expansion=None):
    """P_n(b, c) agrees with the p_n series (vanishes when n = 0 mod N).

    n <= 4 is checked by evaluating P_n at (b, c); at N = 4, p_4 is the zero
    series to precN, so the comparison with it is a vanishing check.  For
    n >= 5 the p_n series is compared with the division-polynomial recurrence
    applied to the p_1..p_{n-1} series; since P_n is built by that same
    recurrence, this is equivalent to P_n(b, c) = p_n once the lower indices
    are checked.
    """
    if expansion is None:
        expansion = expand_curve(N, precN)
    if n >= 5:
        return _agreement_report(
            "p_consistency", N, expansion.precN, expansion.p(n),
            _recurrence_series(expansion, n), n=n,
        )
    lhs = expansion.eval_poly(expansion.divcache.P(n))
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


def express2_series_report(N, precN=None, expansion=None):
    """p_{m+1} = v p_m (N odd) or v p_{m-1} (N even), as truncated series.

    Both p series come from the expansion's cache.  v is one Siegel product
    with sum(v) = 0, so its power of i is 0 and it resolves on its own; its
    product with the resolved partner has the precision and window of the
    product taken as Siegel products before the shift to q-exponents."""
    if expansion is None:
        expansion = expand_curve(N, precN)
    m = N // 2
    partner = m if N % 2 else m - 1
    v = expansion.product(v_to_h(N)).to_qseries()
    report = _agreement_report(
        "express2_series", N, expansion.precN,
        expansion.p(m + 1), v * expansion.p(partner),
    )
    report["n"] = m + 1
    return report
