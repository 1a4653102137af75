"""Exact q-expansions of b, c, d and p_n on X1(N), and the identity checks
between them.

b and c are recovered from the Siegel side through p_2 = -b and p_4 = c b^5;
d is the series of (t h_{(1/N,0)})^12.  Every product of powers of the p_k
(p_n itself, c = -p_4 / p_2^5 and the monomials of the recurrence below) is
one Siegel product, built by CurveExpansion.monomial; a factor p_k with
k = 0 mod N makes it the zero series, which is how c vanishes at N = 4, with
no branch for that level.  The checks verify, to the tracked precision, that
P_n(b, c) agrees with the p_n series coming from the exponent dictionary and
that D(b, c) agrees with d.

Three kinds of check follow from exact identities and build no series on
success.  F_N(b, c) = 0 is derived as in the paper's proof: the p-checks give
P_k(b, c) = p_k at every index k < N that the recursion for P_N reaches, u
and v of the recurrence at n = N fold to one unit, so P_N(b, c) = 0, and
P_N = +-B^(a_N) prod F_d with every other factor a unit at (b, c).  It
holds to the precision those p-checks compared; a proof of each would make
it exact.  At N = 4 it is tautological (F_4 = C and c is exactly zero) and
passes when the p-check of n = 4 does and c's window is not empty.
p_{m+1} = v p_partner is decided on the exponent vectors, and holds exactly
when they add up with equal signs.

The p_n checks for n <= 4 are the third kind.  P_1..P_4 are the monomials
1, -B, -B^3 and C B^5, so P_n(b, c) is a p-monomial in p_2 and p_4, and
P_n(b, c) = p_n is an identity of Siegel products: it holds exactly when
the two fold to one vector with one sign (Kubert-Lang), or both carry a
zero factor (n = N = 4).  Only p_3 = p_2^3 has content; the other three
restate the definitions of b and c.  A failure is located by evaluating P_n
at (b, c) and comparing it with the p_n series.

Polynomials are evaluated by Horner in C.  D(b, c) = d is checked divided
by b^3, as the quartic D / B^3 at (b, c) against the one Siegel product
d / b^3, so no power of b above b^2 is built.  For n >= 5 the p_n check
verifies that the p_n series satisfy the division-polynomial recurrence
p_n = u - v that builds P_n (divpoly.DivPolyCache); by induction on n this
is equivalent to P_n(b, c) = p_n, without the powers of b up to deg_B P_n.

For n != 0 mod N the recurrence is checked as a unit equation, divided by
r = p_n: q^(s/N) p_n / r against q^(s/N) (u/r - v/r), each term one Siegel
product, with s/N the leading exponent of r.  The divided exponent vectors
are small (at N = 14, u/p_9 has (-3, 0, 0, 3, -1, 1, 0) against
(156, -240, 80, 3, 0, 1, 0) for u), so the series recurrence runs on
few-bit integers, and the shift by q^(s/N) keeps the window and the first
failing exponent those of p_n against u - v.  For n = 0 mod N, where p_n is
the zero series, u - v = 0 is decided on the folded vectors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from fractions import Fraction

from . import divpoly
from .qseries import QSeries, ZeroSeries, combination
from .siegel import product_lead_exponent, product_series
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


def _resolve(sign, sp, shift=0):
    """sign * q^(shift/N) * SiegelProduct -> plain rational QSeries, built in
    one pass: the sign joins the product's scalar and the shift its leading
    exponent."""
    if sp.ipow % 2:
        raise PhaseNotRational("power of i is %d" % sp.ipow)
    return replace(
        sp, scalar=sign * sp.scalar, leadExp=sp.leadExp + Fraction(shift, sp.N)
    ).to_qseries()


class CurveExpansion:
    """Series data for one level; immutable after construction apart from the
    caches _products (Siegel products by exponent vector), _bpows (powers of
    b) and _preports (p-check reports)."""

    def __init__(self, N, precN):
        if N < 4:
            raise ValueError("level N must be at least 4")
        if precN < 1:
            raise ValueError("precN must be at least 1")
        self.N = N
        self.precN = precN
        self.divcache = divpoly._default_cache
        self._products = {}
        self._preports = {}
        self.b = -self.p(2)
        # c = p_4 / b^5 = -p_4 / p_2^5 (the zero series at N = 4)
        self.c = -self.monomial({4: 1, 2: -5})
        self._bpows = [QSeries.one(N, precN), self.b]

    @property
    def d(self):
        """The d series, resolved from its memoised Siegel product; verify's
        check of d reads d / b^3 instead and builds no d."""
        return _resolve(1, self.product(d_to_h(self.N)))

    def product(self, vec):
        """product_series(vec, precN), built once per exponent vector: at small
        levels distinct units can share one (v = -p_3 at N = 4, c = p_2 at
        N = 5)."""
        if vec not in self._products:
            self._products[vec] = product_series(vec, self.precN)
        return self._products[vec]

    def fold(self, powers):
        """Fold prod p_k^r over the (k, r) items of powers to (vanishes, sign,
        vec): the exponent vector sum r*vec_k and the sign prod s_k^(r mod 2)
        of the factors with k != 0 mod N, and whether a factor p_k with
        k = 0 mod N (the zero series) occurs.  A negative power of such a
        factor raises ZeroSeries."""
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
        return vanishes, sign, ExpVector(N, e)

    def monomial(self, powers, shift=0):
        """q^(shift/N) prod p_k^r over the (k, r) items of powers, as the one
        Siegel product that fold gives.  When a factor p_k with k = 0 mod N
        occurs, the result is the zero series to precN times the product of
        the other factors."""
        vanishes, sign, vec = self.fold(powers)
        rest = _resolve(sign, self.product(vec), shift)
        return QSeries.zero(self.N, self.precN) * rest if vanishes else rest

    def p(self, n):
        """The p_n series (zero to precision when n = 0 mod N), resolved from
        its memoised Siegel product."""
        return self.monomial({n: 1})

    def p_report(self, n):
        """p_consistency_report(N, n) on this expansion, made once."""
        if n not in self._preports:
            self._preports[n] = p_consistency_report(self.N, n, expansion=self)
        return self._preports[n]

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
                row = combination(rows[j])
                acc = row if acc is None else acc + row
        return acc


def expand_curve(N, precN=None):
    """Build the b, c, d expansions at level N (default precN = 15*N)."""
    if precN is None:
        precN = 15 * N
    return CurveExpansion(N, precN)


def _report(check, N, precN, holds, n=None, bad=None):
    report = {"check": check, "N": N, "precN": precN, "pass": holds}
    if n is not None:
        report["n"] = n
    if bad is not None:
        report["firstFailingExponent"] = str(bad)
    return report


def _agreement_report(check, N, precN, lhs, rhs, n=None):
    """Compare lhs and rhs on their common window, from the lower of exponent
    0 and their first tracked exponents up to the lower precision.  A check
    whose window holds no exponent compares nothing and does not pass."""
    bad = lhs.first_difference(rhs)
    window = min(lhs.precN, rhs.precN) - min(0, lhs.ord, rhs.ord)
    return _report(check, N, precN, bad is None and window > 0, n, bad)


def _exact_report(check, N, precN, holds, locate=None, n=None):
    """The report of a check decided by an exact identity.  When it fails and
    locate is given, locate() returns the two series the identity equates,
    and their first difference in the tracked window, if any, is reported as
    the first failing exponent."""
    if holds or locate is None:
        return _report(check, N, precN, holds, n)
    lhs, rhs = locate()
    return _report(check, N, precN, False, n, lhs.first_difference(rhs))


def defining_equation_report(N, precN=None, expansion=None):
    """F_N(b, c) = 0, derived from the p-checks; F_N is not built.

    For N >= 5 the check holds when the p-checks pass at every index below N
    that the top-down recursion for P_N reaches (_reached), so that
    P_k(b, c) = p_k there, and when at n = N the recurrence's u and v fold to
    one unit, so that P_N(b, c) = u - v = 0.  Since P_N = +-B^(a_N) prod F_d
    over the divisors d >= 4 of N, b = -p_2 is a unit and each F_d with d < N
    divides P_d, whose value p_d is a unit, F_N(b, c) = 0 follows.  It holds
    to the precision those p-checks compared.

    At N = 4, P_4 = C B^5 is a base case and F_4(b, c) = c, exactly zero (p_4
    is a zero factor of c) and known below q^(c.precN/4).  The check rests on
    the p-check of n = 4 and, like any series check, fails when that window
    holds no exponent.  A failing report names no exponent: the failing
    p-check does.
    """
    if expansion is None:
        expansion = expand_curve(N, precN)
    if N == 4:
        holds = expansion.c.precN > 0 and expansion.p_report(4)["pass"]
    else:
        holds = _same_unit(expansion, N) and all(
            expansion.p_report(k)["pass"] for k in _reached(N)
        )
    return _exact_report("defining_equation", N, expansion.precN, holds)


def check_defining_equation(N, precN=None):
    return defining_equation_report(N, precN)["pass"]


def _divisor(N, n):
    """The unit r that the check of p_n divides by, as a power dict, and
    s = N * leadExp(r), read off the exponent vector: r = p_n, or r = 1 (the
    empty dict, s = 0) when n = 0 mod N and p_n is the zero series."""
    folded = p_to_h(n, N)
    if folded is None:
        return {}, 0
    # p_n lies on the q^(1/N) grid, so s is an integer
    return {n: 1}, int(N * product_lead_exponent(folded[1]))


def _over(powers, r):
    """The power dict of prod p_k^r over powers, divided by the monomial r."""
    out = Counter(powers)
    out.subtract(r)
    return out


def _recurrence_powers(n):
    """The power dicts of u and v in the division-polynomial recurrence
    p_n = u - v on p_1..p_{n-1}, n >= 5: u = p_{l+2} p_l^3, v = p_{l+1}^3 p_{l-1}
    for n = 2l+1, and u = p_l p_{l+2} p_{l-1}^2 / p_2, v = p_l p_{l-2} p_{l+1}^2 / p_2
    for n = 2l.  Their keys are the indices DivPolyCache._compute reads for
    P_n (2 among them for even n, with power 0 when l - 2 = 2)."""
    l = n // 2
    if n % 2:
        return {l + 2: 1, l: 3}, {l + 1: 3, l - 1: 1}
    # l - 1 or l - 2 can be 2 itself
    return (_over({l: 1, l + 2: 1, l - 1: 2}, {2: 1}),
            _over({l: 1, l - 2: 1, l + 1: 2}, {2: 1}))


def _reached(N):
    """The indices 1 <= k < N that the top-down recursion for P_N reaches,
    N >= 5; each is at most N//2 + 2, so verify checks them at its default
    --nmax."""
    seen, todo = set(), [N]
    while todo:
        n = todo.pop()
        if n >= 5:
            for k in set().union(*_recurrence_powers(n)) - seen:
                seen.add(k)
                todo.append(k)
    return sorted(seen)


def _same_term(u, v):
    """Whether two folds (vanishes, sign, vec) are one term: both the zero
    series, or one exponent vector with one sign."""
    return (u[0] and v[0]) or u == v


def _same_unit(expansion, n):
    """Whether u and v of the recurrence for p_n fold to one term, so
    u - v = 0 exactly."""
    return _same_term(*(expansion.fold(pw) for pw in _recurrence_powers(n)))


def _monomial_fold(expansion, n):
    """P_n(b, c) for n <= 4, folded: P_n is one term eps B^i C^j and
    b = -p_2, c = -p_4 / p_2^5, so P_n(b, c) is the p-monomial
    eps (-1)^(i+j) p_2^(i-5j) p_4^j."""
    ((i, j), eps), = expansion.divcache.P(n).terms.items()
    vanishes, sign, vec = expansion.fold({2: i - 5 * j, 4: j})
    return vanishes, eps * (-1) ** (i + j) * sign, vec


def _recurrence_series(expansion, n):
    """The right side of the check of p_n, n >= 5: q^(s/N) (u - v) / r with
    (r, s) = _divisor(N, n) and u, v from _recurrence_powers.  Each term is
    one Siegel product; a monomial with a zero factor (the zero series) is
    dropped."""
    r, s = _divisor(expansion.N, n)
    u, v = (expansion.monomial(_over(pw, r), s) for pw in _recurrence_powers(n))
    terms = [(sign, mono) for sign, mono in ((1, u), (-1, v)) if not mono.is_zero]
    if not terms:
        # zero at the precision of the left side q^(s/N) p_n / r
        return QSeries.zero(expansion.N, expansion.precN + s)
    return combination(terms)


def p_consistency_report(N, n, precN=None, expansion=None):
    """P_n(b, c) agrees with the p_n series (vanishes when n = 0 mod N).

    For n <= 4, P_n is one term, so P_n(b, c) is the p-monomial of
    _monomial_fold, and the check holds when it and p_n fold to one term:
    one vector with one sign, or both the zero series (p_4 at N = 4).  This
    is exact, so it also fails on a mismatch that lies beyond the tracked
    window; a failure is located by evaluating P_n at (b, c) against the p_n
    series.

    For n >= 5 the p_n series is compared with the division-polynomial
    recurrence applied to the p_1..p_{n-1} series; since P_n is built by that
    same recurrence, this is equivalent to P_n(b, c) = p_n once the lower
    indices are checked.  For n != 0 mod N that comparison is made as the
    unit equation q^(s/N) p_n / r = q^(s/N) (u - v) / r of
    _recurrence_series: with r = p_n the left side is q^(s/N), the shifted
    constant 1, and no p_n series is built.  Dividing by the unit r = q^(s/N) (+-1 + ...) keeps the
    lowest exponent of every difference, and the shift puts the window back
    on p_n's exponents, so the window, the verdict and the first failing
    exponent are those of p_n against u - v.

    For n = 0 mod N, p_n is the zero series and u - v = 0 is decided exactly
    (_same_unit): u and v either both carry a zero factor or fold to one
    unit.  A failure is located by comparing the zero series with u - v.
    This report is not memoised; CurveExpansion.p_report is.
    """
    if expansion is None:
        expansion = expand_curve(N, precN)
    if n >= 5:
        r, s = _divisor(N, n)

        def compared():
            return expansion.monomial(_over({n: 1}, r), s), _recurrence_series(expansion, n)

        if not r:
            return _exact_report("p_consistency", N, expansion.precN,
                                 _same_unit(expansion, n), compared, n=n)
        return _agreement_report("p_consistency", N, expansion.precN, *compared(), n=n)
    return _exact_report(
        "p_consistency", N, expansion.precN,
        _same_term(_monomial_fold(expansion, n), expansion.fold({n: 1})),
        lambda: (expansion.eval_poly(expansion.divcache.P(n)), expansion.p(n)), n=n,
    )


def check_p_consistency(N, n, precN=None):
    return p_consistency_report(N, n, precN)["pass"]


def d_consistency_report(N, precN=None, expansion=None):
    """D(b, c) agrees with the d series, checked divided by b^3.

    D = B^3 Q with Q the quartic divpoly.D_COFACTOR, so the check compares
    q^(3s) Q(b, c), evaluated by Horner, with q^(3s) d / b^3, where s/N is
    the leading exponent of b.  d / b^3 is one Siegel product: b = -p_2, so
    its vector is vec d - 3 vec p_2 and its sign -sign(p_2).  Dividing by
    the unit b^3 = -+q^(3s/N) (1 + ...) keeps the lowest exponent of every
    difference and the shift by q^(3s/N) puts the window back on d's
    exponents, so the verdict and the first failing exponent are those of
    D(b, c) against d, with no power of b above b^2 and no d series built.
    """
    if expansion is None:
        expansion = expand_curve(N, precN)
    s = expansion.b.ord
    q = expansion.eval_poly(divpoly.D_COFACTOR)
    lhs = QSeries(N, q.ord + 3 * s, q.coeffs, q.precN + 3 * s)
    _, sign, vec = expansion.fold({2: 1})
    rhs = _resolve(-sign, expansion.product(d_to_h(N) - vec.scale(3)), 3 * s)
    return _agreement_report("d_consistency", N, expansion.precN, lhs, rhs)


def check_d_consistency(N, precN=None):
    return d_consistency_report(N, precN)["pass"]


def express2_series_report(N, precN=None, expansion=None):
    """p_{m+1} = v p_m (N odd) or v p_{m-1} (N even), decided on the exponent
    vectors: the two p have one sign and vec p_{m+1} = vec p_partner + vec v.
    Siegel products multiply as their exponent vectors add, so this is the
    series identity to every precision, and no series is built.  A failure
    is located by comparing the p_{m+1} series with the partner's sign times
    the Siegel product of vec p_partner + vec v, which is v p_partner."""
    if expansion is None:
        expansion = expand_curve(N, precN)
    m = N // 2
    partner = m if N % 2 else m - 1
    _, sign, vec = expansion.fold({m + 1: 1})
    _, psign, pvec = expansion.fold({partner: 1})
    rhs = pvec + v_to_h(N)
    return _exact_report(
        "express2_series", N, expansion.precN, sign == psign and vec == rhs,
        lambda: (expansion.p(m + 1), _resolve(psign, expansion.product(rhs))), n=m + 1,
    )
