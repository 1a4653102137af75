"""Exact q-expansions of b, c, d and p_n on X1(N), and the identity checks
between them.

b and c are recovered from the Siegel side through p_2 = -b and p_4 = c b^5;
d is the series of (t h_{(1/N,0)})^12.  Every product of powers of the p_k
(p_n itself, c = -p_4 / p_2^5 and the monomials of the recurrence below) is
one Siegel product, whose exponent vector and sign unit_lattice.fold_p
gives, and CurveExpansion.monomial its series; a factor p_k with
k = 0 mod N makes it the zero series, which is how c vanishes at N = 4, with
no branch for that level.  The checks verify that P_n(b, c) agrees with the
p_n series coming from the exponent dictionary and that D(b, c) agrees with
d.  Each report takes the CurveExpansion of one level and reads its level N
and precision precN from it.

The p-checks, the p_{m+1} identity and the defining equation are identities
between Siegel products, and one rule decides them all (_identity_report).
Each side is folded by fold_p to terms +-(one Siegel product), and the
terms of the difference are grouped by exponent vector, those with a zero
factor dropped.  By Kubert-Lang independence, products with distinct
vectors have a non-constant quotient: at the lowest x with m_x != 0 the
reduced quotient has a nonzero coefficient at q^(x/N).  So when every group
cancels the identity holds exactly, with no series built; when one or two
groups are left it fails exactly, also on a mismatch beyond the tracked
window.  Only three or more groups left make a genuine unit equation,
compared as series up to its proof window (below): every term is divided
by the left side's unit r (r = 1 when the left side vanishes) and shifted
by q^(s/N), s/N the leading exponent of r.  Dividing by
r = +-q^(s/N) (1 + ...) keeps the lowest exponent of every difference and
the shift puts the window back on the left side's exponents, so the window,
the verdict and the first failing exponent are those of the undivided
sides.  The divided vectors are small (at N = 14, u/p_9 has
(-3, 0, 0, 3, -1, 1, 0) against (156, -240, 80, 3, 0, 1, 0) for u), so
those series run on few-bit integers.  An exact failure is located by the
same divided comparison.

For n <= 4, P_n is one term (1, -B, -B^3, C B^5), so the check of p_n
compares p_n with one p-monomial in p_2 and p_4; only p_3 = p_2^3 has
content.  For n >= 5 it verifies that the p_n series satisfy the
division-polynomial recurrence p_n = u - v that builds P_n
(divpoly.DivPolyCache); by induction on n this is equivalent to
P_n(b, c) = p_n, without the powers of b up to deg_B P_n.  F_N(b, c) = 0 is
derived as in the paper's proof: the p-checks give P_k(b, c) = p_k at every
index k < N that the recursion for P_N reaches, u and v of the recurrence
at n = N cancel, so P_N(b, c) = 0, and P_N = +-B^(a_N) prod F_d with every
other factor a unit at (b, c).  It is exact wherever those p-checks are
proved, and holds to the precision they compared where they are not.  At
N = 4 it is tautological (F_4 = C and c is exactly zero) and passes when
the p-check of n = 4 does and c's window is not empty.

Polynomials are evaluated by Horner in C.  D(b, c) = d is checked divided
by b^3, as the quartic D / B^3 at (b, c) against the one Siegel product
d / b^3, so no power of b above b^2 is built.

Every series comparison stops at its proof window, by one rule.  The orders
of a Siegel product at the cusps of X1(N) are known in closed form
(cusp_orders), so a unit equation sum +-f_i = 1, its sides divided by r,
has a valence bound P, the pole order that sum +-f_i - 1 can have away from
infinity (_valence_bound): if it fails, its shifted sides differ at some
exponent at or below q^((s + P)/N).  Agreement below the proof top
s + P + 1 (_proof_top) is thus a proof and a failure shows below it, so
each term is built only up to that top (_window); the d check states
d = sum Q_ij b^(i+3) c^j the same way and evaluates Q at its terms' largest
window.  Where the top lies past the expansion's window, or no bound is
used (a vector not in S, or c = 0 at N = 4 in the d check), a check
compares that whole window, and a pass there is agreement, not a proof.
Each Siegel product is built where its check reads it, to that check's
window; an expansion keeps only its own level's b, c and powers of b, built
on first use, and its p-check reports, and shares nothing with another
expansion.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from . import divpoly
from .qseries import QSeries, ZeroSeries, combination
from .siegel import PhaseNotRational, product_lead_exponent, product_series
from .unit_lattice import ExpVector, d_to_h, fold_p, is_in_S, v_to_h

__all__ = [
    "PhaseNotRational",
    "CurveExpansion",
    "cusp_classes",
    "cusp_orders",
    "expand_curve",
    "defining_equation_report",
    "p_consistency_report",
    "d_consistency_report",
    "express2_series_report",
]


class CurveExpansion:
    """Series data for one level at precision precN; immutable after
    construction apart from the caches b, c, _bpows (powers of b) and
    _preports (p-check reports)."""

    def __init__(self, N, precN):
        if N < 4:
            raise ValueError("level N must be at least 4")
        if precN < 1:
            raise ValueError("precN must be at least 1")
        self.N = N
        self.precN = precN
        self._preports = {}

    @cached_property
    def b(self):
        return -self.p(2)

    @cached_property
    def c(self):
        # c = p_4 / b^5 = -p_4 / p_2^5 (the zero series at N = 4)
        return -self.monomial({4: 1, 2: -5})

    @cached_property
    def _bpows(self):
        return [QSeries.one(self.N, self.precN), self.b]

    @property
    def d(self):
        """The d series, one Siegel product; verify's check of d reads d / b^3
        instead and builds no d."""
        return product_series(d_to_h(self.N), self.precN).to_qseries()

    def monomial(self, powers):
        """prod p_k^r over the (k, r) items of powers, as the one Siegel
        product that fold_p gives.  When a factor p_k with k = 0 mod N
        occurs, the result is the zero series to precN times the product of
        the other factors."""
        vanishes, sign, vec = fold_p(self.N, powers.items())
        rest = product_series(vec, self.precN).to_qseries(sign)
        return QSeries.zero(self.N, self.precN) * rest if vanishes else rest

    def p(self, n):
        """The p_n series (zero to precision when n = 0 mod N), one Siegel
        product."""
        return self.monomial({n: 1})

    def p_report(self, n):
        """p_consistency_report(self, n), made once."""
        if n not in self._preports:
            self._preports[n] = p_consistency_report(self, n)
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


# -- cusp orders and the valence bound ----------------------------------------


@lru_cache(maxsize=None)
def cusp_classes(N):
    """(count, width) of the cusps of X1(N) in each class alpha = 0..m: the
    cusps a/c whose top entry a is +-alpha mod N.  With g = gcd(alpha, N) a
    class holds phi(g) cusps, halved (at least 1) when 2 alpha = 0 mod N,
    each of width N/g; alpha = 1 is the cusp at infinity alone.  The one
    exception is the cusp 1/2 at N = 4, irregular for Gamma^1(4): with -I
    its stabiliser holds T itself, so it has width 1, and the widths sum to
    the index 6 of +-Gamma^1(4)."""
    out = []
    for alpha in range(N // 2 + 1):
        g = gcd(alpha, N)
        count = sum(1 for x in range(g) if gcd(x, g) == 1)
        if 2 * alpha % N == 0:
            count = max(1, count // 2)
        out.append((count, 1 if (N, alpha) == (4, 2) else N // g))
    return tuple(out)


def cusp_orders(e):
    """The order of the Siegel product of e at each cusp of class
    alpha = 0..m, in the cusp's local parameter: w sum_k e_k B_2(<k alpha/N>)/2
    with w the class's width and B_2(x) = x^2 - x + 1/6 (Kubert-Lang), each
    an integer sum over 12 N^2.  At alpha = 1 this is N times the leading
    exponent; for e in S every order is an integer and the orders times the
    class counts sum to 0."""
    N = e.N
    b2 = [6 * r * (r - N) + N * N for r in range(N)]
    terms = [(k, ek) for k, ek in enumerate(e.e, start=1) if ek]
    return [Fraction(width * sum(ek * b2[k * alpha % N] for k, ek in terms), 12 * N * N)
            for alpha, (_, width) in enumerate(cusp_classes(N))]


def _valence_bound(N, vecs):
    """P = sum over the cusps c other than infinity of
    max(0, -min ord_c(f)), over the units f of the exponent vectors vecs and
    the constant 1, or None when some vector is not in S.

    When sum +-f = 1 fails, the function sum +-f - 1 on X1(N) is nonzero and
    has its poles among the cusps, at most P of them away from infinity
    counted with order, so by the valence formula its order at infinity, in
    q^(1/N), is at most P: two sides of such an identity that agree up to
    q^(P/N) agree exactly."""
    if not all(map(is_in_S, vecs)):
        return None
    orders = [cusp_orders(vec) for vec in vecs]
    return int(sum(count * max([0] + [-o[alpha] for o in orders])
                   for alpha, (count, _) in enumerate(cusp_classes(N)) if alpha != 1))


def _lead(vec):
    """N times the leading exponent of vec's Siegel product, an integer for a
    product on the q^(1/N) grid."""
    return int(vec.N * product_lead_exponent(vec))


def _report(check, expansion, holds, n=None, bad=None):
    report = {"check": check, "N": expansion.N, "precN": expansion.precN, "pass": holds}
    if n is not None:
        report["n"] = n
    if bad is not None:
        report["firstFailingExponent"] = str(bad)
    return report


def _agreement_report(check, expansion, lhs, rhs, n=None):
    """Compare lhs and rhs on their common window, from the lower of exponent
    0 and their first tracked exponents up to the lower precision.  A check
    whose window holds no exponent compares nothing and does not pass."""
    bad = lhs.first_difference(rhs)
    window = min(lhs.precN, rhs.precN) - min(0, lhs.ord, rhs.ord)
    return _report(check, expansion, bad is None and window > 0, n, bad)


def _grouped(terms):
    """sum coeff * term over the (coeff, fold) pairs, each fold
    (vanishes, sign, vec) from unit_lattice.fold_p: the signed coefficient of
    every exponent vector whose terms do not cancel, those with a zero factor
    dropped."""
    groups = Counter()
    for coeff, (vanishes, sign, vec) in terms:
        if not vanishes:
            groups[vec] += coeff * sign
    return {vec: coeff for vec, coeff in groups.items() if coeff}


def _divisor(N, lhs):
    """(sign, vec, s) of the unit r that _divided divides by: the lhs fold's
    unit, or 1 when lhs vanishes; s/N is the leading exponent of r."""
    vanishes, sign, vec = lhs
    if vanishes:
        return 1, ExpVector.zero(N), 0
    # r lies on the q^(1/N) grid, so s is an integer
    return sign, vec, _lead(vec)


def _proof_top(N, lhs, rhs):
    """(divisor, top) for lhs = sum coeff * term over the (coeff, fold) pairs
    of rhs: the _divisor (sign, vec, s) of lhs and the proof top s + P + 1,
    P the valence bound of the divided terms with no zero factor, or top None
    when one of them is not a unit of X1(N)."""
    _, rvec, s = divisor = _divisor(N, lhs)
    bound = _valence_bound(N, [fold[2] - rvec for _, fold in rhs if not fold[0]])
    return divisor, None if bound is None else s + bound + 1


def _window(precN, top, s, vec):
    """The precision of the reduced series of the divided term vec: up to
    q^(top/N) once shifted by q^(s/N), at least its leading term and at most
    precN, or precN when there is no top."""
    return precN if top is None else max(1, min(precN, top - s - _lead(vec)))


def _divided(expansion, lhs, rhs, top=None):
    """The sides of lhs = sum coeff * term over the (coeff, fold) pairs of
    rhs as series, each divided by the unit r of lhs (r = 1 when lhs
    vanishes) and shifted by q^(s/N), s/N the leading exponent of r: lhs
    becomes q^(s/N) (the zero series when it vanishes) and each term one
    Siegel product; a term with a zero factor is dropped.  Each series is
    built to its _window: up to q^(top/N), at least its leading term and at
    most the expansion's precision, precN in the reduced series, so with no
    top every series ends where the expansion's precision puts it."""
    N, precN = expansion.N, expansion.precN
    rsign, rvec, s = _divisor(N, lhs)

    def series(fold):
        _, sign, vec = fold
        vec = vec - rvec
        return product_series(vec, _window(precN, top, s, vec)).to_qseries(sign * rsign, s)

    zero = QSeries.zero(N, s + _window(precN, top, s, ExpVector.zero(N)))
    left = zero if lhs[0] else series(lhs)
    terms = [(coeff, series(fold)) for coeff, fold in rhs if not fold[0]]
    return left, combination(terms) if terms else zero


def _identity_report(check, expansion, lhs, rhs, n=None):
    """The report of lhs = sum coeff * term over the (coeff, fold) pairs of
    rhs, an identity of Siegel products.  It passes when the groups of
    rhs - lhs all cancel and fails when one or two are left, as products with
    distinct vectors are independent; either way the verdict is exact and a
    passing check builds no series.  With three or more groups left it is a
    unit equation, decided by comparing the divided sides (_divided); that
    comparison also locates an exact failure.  Either comparison runs up to
    the proof top of _proof_top, where agreement is a proof and a failure has
    shown, or over the expansion's whole window when that is shorter or some
    term is not a unit of X1(N)."""
    left = _grouped([(-1, lhs)] + rhs)
    if not left:
        return _report(check, expansion, True, n)
    _, top = _proof_top(expansion.N, lhs, rhs)
    lseries, rseries = _divided(expansion, lhs, rhs, top)
    if len(left) > 2:
        return _agreement_report(check, expansion, lseries, rseries, n)
    return _report(check, expansion, False, n, lseries.first_difference(rseries))


def defining_equation_report(expansion):
    """F_N(b, c) = 0, derived from the p-checks; F_N is not built.

    For N >= 5 the check holds when the p-checks pass at every index below N
    that the top-down recursion for P_N reaches (_reached), so that
    P_k(b, c) = p_k there, and when at n = N the recurrence's u and v cancel
    (_grouped), so that P_N(b, c) = u - v = 0.  Since P_N = +-B^(a_N) prod F_d
    over the divisors d >= 4 of N, b = -p_2 is a unit and each F_d with d < N
    divides P_d, whose value p_d is a unit, F_N(b, c) = 0 follows.  It is
    exact where those p-checks are proved and holds to the precision they
    compared elsewhere.

    At N = 4, P_4 = C B^5 is a base case and F_4(b, c) = c, exactly zero (p_4
    is a zero factor of c) and known below q^(c.precN/4); c.precN is precN
    plus the leading exponent numerator of the other factor -p_2^-5, read
    off its vector with no series built.  The check rests on the p-check of
    n = 4 and, like any series check, fails when that window holds no
    exponent.  A failing report names no exponent: the failing p-check does.
    """
    N = expansion.N
    if N == 4:
        _, _, rest = fold_p(N, [(4, 1), (2, -5)])
        holds = expansion.precN + _lead(rest) > 0 and expansion.p_report(4)["pass"]
    else:
        u, v = (fold_p(N, pw.items()) for pw in _recurrence_powers(N))
        holds = not _grouped([(1, u), (-1, v)]) and all(
            expansion.p_report(k)["pass"] for k in _reached(N)
        )
    return _report("defining_equation", expansion, holds)


def _recurrence_powers(n):
    """The power dicts of u and v in the division-polynomial recurrence
    p_n = u - v on p_1..p_{n-1}, n >= 5: u = p_{l+2} p_l^3, v = p_{l+1}^3 p_{l-1}
    for n = 2l+1, and u = p_l p_{l+2} p_{l-1}^2 / p_2, v = p_l p_{l-2} p_{l+1}^2 / p_2
    for n = 2l.  Their keys are the indices DivPolyCache._compute reads for
    P_n (2 among them for even n, with power 0 when l - 2 = 2)."""
    l = n // 2
    if n % 2:
        return {l + 2: 1, l: 3}, {l + 1: 3, l - 1: 1}
    u, v = Counter((l, l + 2)), Counter((l, l - 2))
    # l - 1 or l - 2 can be 2 itself
    u[l - 1] += 2
    v[l + 1] += 2
    u[2] -= 1
    v[2] -= 1
    return u, v


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


def p_consistency_report(expansion, n):
    """P_n(b, c) agrees with the p_n series (vanishes when n = 0 mod N),
    decided by _identity_report with p_n on the left.

    For 1 <= n <= 4, P_n is one term eps B^i C^j (divpoly.P_BASE) and
    b = -p_2, c = -p_4 / p_2^5, so the right side is the p-monomial
    eps (-1)^(i+j) p_2^(i-5j) p_4^j; an index below 1 is refused.  For
    n >= 5 it is u - v of the division-polynomial recurrence; since P_n is
    built by that same recurrence, this is equivalent to P_n(b, c) = p_n once
    the lower indices are checked.  Unless u or v carries a zero factor or
    they share a vector, that is a unit equation, compared divided by p_n:
    the left side is q^(s/N), the shifted constant 1, and no p_n series is
    built.  This report is not memoised; CurveExpansion.p_report is.
    """
    if n < 1:
        raise ValueError("the p-checks start at n = 1, got %d" % n)
    N = expansion.N
    if n >= 5:
        u, v = (fold_p(N, pw.items()) for pw in _recurrence_powers(n))
        rhs = [(1, u), (-1, v)]
    else:
        ((i, j), eps), = divpoly.P_BASE[n].terms.items()
        rhs = [(eps * (-1) ** (i + j), fold_p(N, [(2, i - 5 * j), (4, j)]))]
    return _identity_report("p_consistency", expansion, fold_p(N, [(n, 1)]), rhs, n)


def d_consistency_report(expansion):
    """D(b, c) agrees with the d series, checked divided by b^3.

    D = B^3 Q with Q the quartic divpoly.D_COFACTOR, so the check compares
    q^(3s) Q(b, c), evaluated by Horner, with q^(3s) d / b^3, where s/N is
    the leading exponent of b.  d / b^3 is one Siegel product: b = -p_2, so
    its vector is vec d - 3 vec p_2 and its sign -sign(p_2).  Dividing by
    the unit b^3 = -+q^(3s/N) (1 + ...) keeps the lowest exponent of every
    difference and the shift by q^(3s/N) puts the window back on d's
    exponents, so the verdict and the first failing exponent are those of
    D(b, c) against d, with no power of b above b^2 and no d series built.

    As an identity of Siegel products, d = sum Q_ij b^(i+3) c^j with each
    term folded, its proof top is _proof_top's, and Q is evaluated at the
    largest _window of its sides' terms, where the compared window reaches
    that top (at the whole precision at N = 4, where c vanishes).
    """
    N, precN = expansion.N, expansion.precN
    lhs = (False, 1, d_to_h(N))
    rhs = [(coeff * (-1) ** (i + j + 1), fold_p(N, [(2, i + 3 - 5 * j), (4, j)]))
           for (i, j), coeff in divpoly.D_COFACTOR.terms.items()]
    (_, dvec, ds), top = _proof_top(N, lhs, rhs)
    if any(fold[0] for _, fold in rhs):
        top = None
    W = max(_window(precN, top, ds, fold[2] - dvec) for _, fold in [(1, lhs)] + rhs)
    short = CurveExpansion(N, W)
    _, sign, bvec = fold_p(N, [(2, 1)])
    s = short.b.ord
    q = short.eval_poly(divpoly.D_COFACTOR)
    left = QSeries(N, q.ord + 3 * s, q.coeffs, q.precN + 3 * s)
    right = product_series(dvec - bvec.scale(3), W).to_qseries(-sign, 3 * s)
    return _agreement_report("d_consistency", expansion, left, right)


def express2_series_report(expansion):
    """p_{m+1} = v p_m (N odd) or v p_{m-1} (N even), decided by
    _identity_report: Siegel products multiply as their exponent vectors add,
    so the right side is the one product of vec p_partner + vec v with the
    partner's sign, and the identity holds exactly when p_{m+1} has that
    vector and sign.  No series is built unless it fails."""
    N = expansion.N
    m = N // 2
    partner = m if N % 2 else m - 1
    _, sign, vec = fold_p(N, [(partner, 1)])
    return _identity_report("express2_series", expansion, fold_p(N, [(m + 1, 1)]),
                            [(1, (False, sign, vec + v_to_h(N)))], n=m + 1)
