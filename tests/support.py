"""Independent brute-force oracles shared by the tests.

Everything here is deliberately naive (dense lists, no precision tracking, no
reuse of the library's arithmetic kernels) so that derived expected values are
computed along a different path than the code under test.  The exceptions
compose the library's series arithmetic (h_star, pow_int, inv, QSeries
products) or its dictionary vectors (t_to_h, d_to_h and fold_index, never
fold_p): product_series_by_powers and decompose_series_greedy, the
references for the one-pass recurrence in both directions,
p_vector_by_definition and fold_p_by_vectors, the references for the one
fold from p-monomials to Siegel vectors (unit_lattice.fold_p),
p_monomial_by_powers, the reference for the p-monomials of CurveExpansion,
expand_p_expression_by_vectors, the reference for expand_p_expression,
eval_poly_by_terms, the reference for the Horner evaluation and for the
recurrence check of p_n, and p_consistency_undivided, the reference for
p_consistency_report, which groups the terms of p_n = u - v (or of
p_n = P_n(b, c) for n <= 4) by exponent vector and compares a unit equation
divided by p_n; the oracle builds u and v as undivided Siegel products and
compares them with p_n on the window.  defining_equation_by_evaluation and express2_by_series, the
series forms of the two checks that the same grouping decides exactly, and
d_consistency_by_evaluation, the undivided form of the d check, use the
library's Horner evaluation and series product.  d_window_by_leads, the
reference for the window at which the d check evaluates Q, derives it from
leading exponents and the library's valence bound.
divpoly_sequential, the reference for the top-down build of P_n, and
factor_P_over_F_by_trial_division, the reference for the factorisation of
P_n read off the divisor walk, use the library's products and exact
division.

cusps_by_orbits and index_of_gamma1, the references for the closed-form
cusp classes of curve_series, enumerate the cusps of +-Gamma^1(N) as orbits
of columns mod N and count SL_2(Z/N) by its columns.

DIVPOLY is the one DivPolyCache the tests read P_n and F_n from; the
library shares none.  QUARTIC is the denominator of F_2, built from B and C.

A few helpers the library no longer carries, since no command uses them,
live here: lead_exponent, the leading exponent of one Siegel function, which
product_series_by_powers sums; compose, substitution into a polynomial of
Z[B, C], for the specialisation tables of X1(5) and X1(6);
coefficient_gcd, for Gauss's lemma on series; and read_poly, a reader of
render_poly's canonical text, which checks that rendering is faithful.
"""

from functools import lru_cache
from math import gcd

from modunits.bivar_poly import B, C, BivarPoly
from modunits.divpoly import DivPolyCache
from modunits.unit_lattice import ExpVector, is_in_S

DIVPOLY = DivPolyCache()

QUARTIC = C ** 4 - 8 * B * C ** 2 - 3 * C ** 3 + 16 * B ** 2 - 20 * B * C + 3 * C ** 2 + B - C


def dense_mul(a, b, cap):
    """Multiply dense coefficient lists (index = exponent numerator), truncated
    below exponent cap."""
    out = [0] * cap
    for i, x in enumerate(a[:cap]):
        if not x:
            continue
        for j, y in enumerate(b[: cap - i]):
            if y:
                out[i + j] += x * y
    return out


def series_mul_schoolbook(f, g):
    """QSeries product by dense_mul's double loop over every pair of tracked
    coefficients, truncated at min(prec f + ord g, prec g + ord f) with an
    empty window counting as starting at its precision; the reference for
    both product paths of QSeries.__mul__."""
    from modunits.qseries import QSeries

    ford = f.ord if f.coeffs else f.precN
    gord = g.ord if g.coeffs else g.precN
    precN = min(f.precN + gord, g.precN + ford)
    cap = precN - ford - gord
    return QSeries(f.denomN, ford + gord, dense_mul(list(f.coeffs), list(g.coeffs), cap), precN)


def dense_product_of_factors(exponents, cap):
    """Expand prod (1 - x^e) for e in exponents, truncated below cap."""
    out = [0] * cap
    out[0] = 1
    for e in exponents:
        factor = [0] * cap
        factor[0] = 1
        if e < cap:
            factor[e] = -1
        out = dense_mul(out, factor, cap)
    return out


def siegel_factor_exponents(k, N, cap):
    """All product-formula exponent numerators below cap for the (k/N, 0) series."""
    exps = [k] if k < cap else []
    n = 1
    while n * N - k < cap:
        exps.append(n * N - k)
        if n * N + k < cap:
            exps.append(n * N + k)
        n += 1
    return exps


def dense_h_star(k, N, cap):
    return dense_product_of_factors(siegel_factor_exponents(k, N, cap), cap)


def lead_exponent(k, N):
    """The leading q-exponent ((k/N)^2 - k/N + 1/6)/2 of the Siegel function
    at (k/N, 0), 1 <= k <= N/2."""
    from fractions import Fraction

    assert N >= 4 and 1 <= k <= N // 2, (k, N)
    a = Fraction(k, N)
    return (a * a - a + Fraction(1, 6)) / 2


def product_series_by_powers(e, precN):
    """product_series by series arithmetic: the product over k of
    h_star(k, N, precN) ** e(k), by the library's binary powering and
    inversion; kept as the reference for the one-pass recurrence."""
    from fractions import Fraction

    from modunits.qseries import QSeries
    from modunits.siegel import SiegelProduct, h_star

    N = e.N
    lead = Fraction(0)
    fstar = QSeries.one(N, precN)
    for k, ek in enumerate(e.e, start=1):
        if not ek:
            continue
        lead += ek * lead_exponent(k, N)
        fstar = fstar * h_star(k, N, precN).pow_int(ek)
    return SiegelProduct(N, sum(e.e) % 4, lead, fstar)


def p_vector_by_definition(k, N):
    """(sign, vec) of p_k = t^(k^2-1) h_{(k/N,0)} / h_{(1/N,0)} read off its
    definition: t_to_h scaled by k^2 - 1, plus h_k at the index fold_index
    gives, with its sign, minus h_1; None when k = 0 mod N, where p_k is the
    zero function."""
    from modunits.siegel import fold_index
    from modunits.unit_lattice import t_to_h

    if k % N == 0:
        return None
    j, sign = fold_index(k, N)
    return sign, t_to_h(N).scale(k * k - 1) + ExpVector.unit(N, j) - ExpVector.unit(N, 1)


def fold_p_by_vectors(N, pairs, alpha=0):
    """unit_lattice.fold_p by adding up d_to_h scaled by alpha and the
    p_vector_by_definition of each factor scaled by its power, with the
    signs of the factors of odd power."""
    from modunits.qseries import ZeroSeries
    from modunits.unit_lattice import d_to_h

    vanishes, sign, total = False, 1, d_to_h(N).scale(alpha)
    for k, r in pairs:
        folded = p_vector_by_definition(k, N)
        if folded is None:
            if r < 0:
                raise ZeroSeries("p_%d is the zero series at level %d" % (k, N))
            vanishes = vanishes or r > 0
            continue
        s, vec = folded
        total = total + vec.scale(r)
        if r % 2:
            sign *= s
    return vanishes, sign, total


def p_monomial_by_powers(N, precN, pairs):
    """prod p_k^r over the (k, r) pairs by series arithmetic: each p_k its own
    Siegel product (the zero series when k = 0 mod N), raised by the
    library's binary powering and inversion, and multiplied in turn; the
    reference for CurveExpansion.monomial, which folds the powers into one
    Siegel product."""
    from modunits.qseries import QSeries
    from modunits.siegel import product_series

    acc = QSeries.one(N, precN)
    for k, r in pairs:
        folded = p_vector_by_definition(k, N)
        if folded is None:
            pk = QSeries.zero(N, precN)
        else:
            sign, vec = folded
            pk = product_series(vec, precN).to_qseries() * sign
        acc = acc * pk.pow_int(r)
    return acc


def combination_by_terms(terms):
    """sum coeff * s over the (coeff, series) pairs, all on one exponent grid,
    as summed exponent -> coefficient dicts, read over the window from the
    lowest first tracked exponent to the lowest precision; the reference for
    qseries.combination and the linear operators built on it."""
    from modunits.qseries import QSeries

    precN = min(s.precN for _, s in terms)
    lo = min([s.ord for _, s in terms if s.coeffs] + [precN])
    total = {}
    for coeff, s in terms:
        for j, c in enumerate(s.coeffs):
            total[s.ord + j] = total.get(s.ord + j, 0) + coeff * c
    return QSeries(terms[0][1].denomN, lo, [total.get(n, 0) for n in range(lo, precN)], precN)


def eval_poly_by_terms(expansion, f, pows=None):
    """CurveExpansion.eval_poly term by term: every monomial b^i c^j from the
    powers of b and c climbed one product at a time, scaled and summed.  Pass
    the same dict as pows to reuse the powers across calls at one level."""
    from modunits.qseries import QSeries

    N, precN = expansion.N, expansion.precN
    if f.is_zero:
        return QSeries.zero(N, precN)
    if pows is None:
        pows = {}

    def power(base, k):
        cache = pows.setdefault(id(base), {0: QSeries.one(N, precN), 1: base})
        while k not in cache:
            top = max(cache)
            cache[top + 1] = cache[top] * base
        return cache[k]

    acc = None
    for (i, j), coeff in sorted(f.terms.items()):
        if i and j:
            term = power(expansion.b, i) * power(expansion.c, j)
        elif i:
            term = power(expansion.b, i)
        elif j:
            term = power(expansion.c, j)
        else:
            term = QSeries.one(N, precN)
        term = term * coeff
        acc = term if acc is None else acc + term
    return acc


def vanishing_report(check, expansion, qs, n=None):
    """The report, at the level of expansion, of qs against the zero series
    on their common window."""
    from modunits.curve_series import _agreement_report
    from modunits.qseries import QSeries

    return _agreement_report(check, expansion, qs, QSeries.zero(expansion.N, qs.precN), n=n)


def recurrence_pairs(n):
    """The (k, r) factors of u and v in the division-polynomial recurrence
    p_n = u - v, n >= 5, unfolded."""
    l = n // 2
    if n % 2:
        return [(l + 2, 1), (l, 3)], [(l + 1, 3), (l - 1, 1)]
    return ([(l, 1), (l + 2, 1), (l - 1, 2), (2, -1)],
            [(l, 1), (l - 2, 1), (l + 1, 2), (2, -1)])


def p_consistency_undivided(expansion, n):
    """The report of the p_n check made without dividing by p_n: for n >= 5
    the p_n series against u - v, each monomial one undivided Siegel product
    (a zero one dropped); for n <= 4, P_n evaluated term by term against p_n.
    When n = 0 mod N it is the vanishing check of that value instead.  The
    reference for the unit-equation form of p_consistency_report and, for
    n <= 4, for its decision on exponent vectors."""
    from modunits.curve_series import _agreement_report
    from modunits.qseries import QSeries, combination

    N = expansion.N
    if n >= 5:
        monomials = []
        for pairs in recurrence_pairs(n):
            powers = {}
            for k, r in pairs:
                powers[k] = powers.get(k, 0) + r
            monomials.append(expansion.monomial(powers))
        terms = [(sign, mono) for sign, mono in zip((1, -1), monomials) if not mono.is_zero]
        value = combination(terms) if terms else QSeries.zero(N, expansion.p(n).precN)
    else:
        value = eval_poly_by_terms(expansion, DIVPOLY.P(n))
    if n % N == 0:
        return vanishing_report("p_consistency", expansion, value, n=n)
    return _agreement_report("p_consistency", expansion, expansion.p(n), value, n=n)


def defining_equation_by_evaluation(expansion):
    """The defining-equation report made by building F_N and evaluating it at
    (b, c), compared with zero on the tracked window; the reference for
    defining_equation_report, which derives it from the p-checks."""
    value = expansion.eval_poly(DIVPOLY.F(expansion.N))
    return vanishing_report("defining_equation", expansion, value)


def d_consistency_by_evaluation(expansion):
    """The d report made by evaluating the whole discriminant D = B^3 Q at
    (b, c) and comparing it with the d series; the reference for
    d_consistency_report, which compares Q(b, c) with d / b^3."""
    from modunits.curve_series import _agreement_report
    from modunits.divpoly import DISCRIMINANT

    return _agreement_report("d_consistency", expansion,
                             expansion.eval_poly(DISCRIMINANT), expansion.d)


def d_window_by_leads(N, precN):
    """The precision at which the d check evaluates Q = D / B^3, from the
    leading exponents of b, c and r = d / b^3 alone; the reference for the
    one window rule (curve_series._window) that d_consistency_report shares
    with the other checks.  With b, c and r starting at q^(s_b/N),
    q^(s_c/N) and q^(o/N), Horner keeps Q(b, c) to q^((W + kappa)/N),
    kappa = min s_b i + s_c j over the terms of Q, and r runs to
    q^((o + W)/N).  So the compared window, shifted by q^(3 s_b/N), ends at
    3 s_b + W + min(kappa, o), which reaches the proof top 3 s_b + o + P + 1
    from W = P + 1 + max(0, o - kappa) on, P the valence bound of the terms
    b^(i+3) c^j / d.  W is kept within 1..precN, and is precN at N = 4,
    where c is the zero function, or when a term is not a unit of X1(N)."""
    need = _d_need_by_leads(N)
    return precN if need is None else max(1, min(precN, need))


@lru_cache(maxsize=None)
def _d_need_by_leads(N):
    """P + 1 + max(0, o - kappa) of d_window_by_leads, or None."""
    from modunits.curve_series import _valence_bound
    from modunits.divpoly import D_COFACTOR
    from modunits.unit_lattice import d_to_h

    if N == 4:
        return None
    p2, p4, d = (p_vector_by_definition(2, N)[1], p_vector_by_definition(4, N)[1], d_to_h(N))
    b, c, r = p2, p4 - p2.scale(5), d - p2.scale(3)
    bound = _valence_bound(N, [b.scale(i) + c.scale(j) - r for i, j in D_COFACTOR.terms])
    if bound is None:
        return None
    l2, l4, ld = (int(N * sum(ek * lead_exponent(k, N) for k, ek in enumerate(vec.e, start=1)))
                  for vec in (p2, p4, d))
    sb, sc, o = l2, l4 - 5 * l2, ld - 3 * l2
    kappa = min(i * sb + j * sc for i, j in D_COFACTOR.terms)
    return bound + 1 + max(0, o - kappa)


def express2_by_series(expansion):
    """The express2 report made as a series comparison: p_{m+1} against v,
    resolved on its own, times the resolved partner p_m (N odd) or p_{m-1}
    (N even); the reference for express2_series_report, which compares
    exponent vectors."""
    from modunits.curve_series import _agreement_report
    from modunits.siegel import product_series
    from modunits.unit_lattice import v_to_h

    N = expansion.N
    m = N // 2
    partner = m if N % 2 else m - 1
    v = product_series(v_to_h(N), expansion.precN).to_qseries()
    return _agreement_report("express2_series", expansion,
                             expansion.p(m + 1), v * expansion.p(partner), n=m + 1)


def decompose_series_greedy(fstar, N):
    """decompose_series by the greedy coefficient scan: read e(k) from the
    coefficient of q^(k/N) (halved when 2k = N), divide h_star(k)^e(k) out,
    and require the residual to be exactly 1 on the tracked window."""
    from fractions import Fraction

    from modunits.siegel import h_star
    from modunits.unit_lattice import InsufficientPrecision, NotAUnitProduct

    if fstar.denomN != N:
        raise ValueError("series must live on the q^(1/%d) grid" % N)
    m = N // 2
    if fstar.precN < m + 1:
        raise InsufficientPrecision(
            "need precision at least %d, have %d" % (m + 1, fstar.precN)
        )
    if fstar.is_zero or fstar.ord != 0 or fstar.coeff(0) != 1:
        raise NotAUnitProduct("series is not reduced (constant term 1)")
    work = fstar
    exps = []
    for k in range(1, m + 1):
        c = work.coeff(k)
        ek = -Fraction(c) / 2 if 2 * k == N else -Fraction(c)
        if ek.denominator != 1:
            raise NotAUnitProduct("coefficient at q^(%d/%d) is not integral" % (k, N))
        ek = int(ek)
        exps.append(ek)
        if ek:
            work = work * h_star(k, N, work.precN).pow_int(-ek)
    if work.ord != 0 or work.coeff(0) != 1 or any(work.coeffs[1:]):
        raise NotAUnitProduct("residual after the greedy scan is not 1")
    return ExpVector(N, tuple(exps))


def expand_p_expression_by_vectors(p):
    """expand_p_expression by adding up the dictionary vectors of d and of
    every p_n, each scaled by its exponent, with the signs of the folds."""
    from modunits.unit_lattice import d_to_h

    N = p.N
    m = N // 2
    sign = 1
    total = ExpVector.zero(N)
    if p.alpha:
        total = total + d_to_h(N).scale(p.alpha)
    if p.beta:
        s1, low = p_vector_by_definition(N - m - 1, N)
        s2, high = p_vector_by_definition(m + 1, N)
        total = total + (low - high).scale(p.beta)
        if p.beta % 2:
            sign *= s1 * s2
    for k, ek in enumerate(p.pexp, start=1):
        if not ek:
            continue
        s, vec = p_vector_by_definition(k, N)
        total = total + vec.scale(ek)
        if s < 0 and ek % 2:
            sign = -sign
    return sign, total


def compose(f, bval, cval):
    """f(bval, cval) in Z[B, C]: the polynomials bval and cval substituted for
    B and C, term by term with the powers climbed one product at a time."""
    from modunits.bivar_poly import ONE, ZERO

    def power(cache, base, e):
        while e not in cache:
            k = max(cache)
            cache[k + 1] = cache[k] * base
        return cache[e]

    pows_b, pows_c = {0: ONE}, {0: ONE}
    out = ZERO
    for (i, j), c in sorted(f.terms.items()):
        out = out + power(pows_b, bval, i) * power(pows_c, cval, j) * c
    return out


def coefficient_gcd(s):
    """The gcd of the tracked coefficients of an integral series (0 when none
    is tracked): 1 exactly when the series is primitive."""
    assert s.is_integral(), s
    return gcd(*s.coeffs)


def sylvester_resultant_in_C(f, g):
    """Resultant with respect to C of two polynomials in Z[B, C], as an element
    of Z[B] (a BivarPoly with deg_C = 0), via cofactor expansion of the
    Sylvester matrix.  Only suitable for small degrees."""
    from modunits.bivar_poly import BivarPoly, ZERO

    def c_coeffs(p):
        d = p.deg_C
        rows = [dict() for _ in range(d + 1)]
        for (i, j), c in p.terms.items():
            rows[j][(i, 0)] = c
        return [BivarPoly(r) for r in rows]

    fc = c_coeffs(f)
    gc = c_coeffs(g)
    n, m = len(fc) - 1, len(gc) - 1
    size = n + m
    mat = [[ZERO] * size for _ in range(size)]
    for r in range(m):
        for k, coeff in enumerate(reversed(fc)):
            mat[r][r + k] = coeff
    for r in range(n):
        for k, coeff in enumerate(reversed(gc)):
            mat[m + r][r + k] = coeff

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = ZERO
        for col, top in enumerate(rows[0]):
            if top.is_zero:
                continue
            minor = [row[:col] + row[col + 1 :] for row in rows[1:]]
            term = top * det(minor)
            total = total + (term if col % 2 == 0 else -term)
        return total

    return det(mat)


def read_poly(text):
    """The BivarPoly that render_poly writes as text, e.g. "B*C^2 - 2*B^2 +
    3*B*C - C^2"; canonical text only, with no error handling."""
    terms = {}
    for term in text.replace(" - ", " + -").split(" + "):
        coeff, degs = 1, {"B": 0, "C": 0}
        for factor in term.lstrip("-").split("*"):
            if factor.isdigit():
                coeff = int(factor)
            else:
                var, _, e = factor.partition("^")
                degs[var] = int(e or 1)
        terms[degs["B"], degs["C"]] = -coeff if term.startswith("-") else coeff
    return BivarPoly(terms)


def mul_by_term_pairs(f, g):
    """f * g in Z[B, C] by adding up the product of every pair of terms; the
    reference for the Kronecker product."""
    from modunits.bivar_poly import BivarPoly

    out = {}
    for (i1, j1), c1 in f.terms.items():
        for (i2, j2), c2 in g.terms.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return BivarPoly(out)


def divpoly_sequential(n):
    """[P_0, ..., P_n] by the division-polynomial recurrence, filled upward
    from the printed P_0..P_4 through every index in turn, every product
    taken term pair by term pair; the reference for the top-down memoised
    build and its Kronecker products."""
    from modunits.bivar_poly import B, C, ONE, ZERO, div_exact

    mul = mul_by_term_pairs

    def cube(f):
        return mul(f, mul(f, f))

    P = [ZERO, ONE, -B, -(B ** 3), C * B ** 5]
    for k in range(5, n + 1):
        if k % 2:
            l = (k - 1) // 2
            P.append(mul(P[l + 2], cube(P[l])) - mul(cube(P[l + 1]), P[l - 1]))
        else:
            l = k // 2
            below, above = mul(P[l - 1], P[l - 1]), mul(P[l + 1], P[l + 1])
            num = mul(P[l], mul(P[l + 2], below) - mul(P[l - 2], above))
            P.append(div_exact(num, P[2]))
    return P[: n + 1]


def _strip_full(f, g):
    """(multiplicity of g in f, cofactor) by repeated exact division."""
    from modunits.bivar_poly import NotDivisible, div_exact

    count = 0
    while True:
        try:
            f2 = div_exact(f, g)
        except NotDivisible:
            return count, f
        f, count = f2, count + 1


def factor_P_over_F_by_trial_division(cache, n):
    """P_n = sign * prod F_d^{a_d} * D^{a_D} by stripping the quartic of D, then
    B, then every F_4..F_n as often as each divides; returns (sign, exponents)
    with d (F_3 = B) or "D" mapped to a_d and zero exponents omitted.  The
    reference for the closed form read off the divisor walk, which never
    searches for a factor."""
    from modunits.bivar_poly import B
    from modunits.divpoly import D_COFACTOR, FactorizationIncomplete

    beta, res = _strip_full(cache.P(n), D_COFACTOR)
    alpha, res = _strip_full(res, B)
    exps = {}
    for d in range(4, n + 1):
        cnt, res = _strip_full(res, cache.F(d))
        if cnt:
            exps[d] = cnt
    if not res.is_constant or res.constant() not in (1, -1):
        raise FactorizationIncomplete("cofactor %r left for P_%d" % (res, n))
    if alpha - 3 * beta:
        exps[3] = alpha - 3 * beta
    if beta:
        exps["D"] = beta
    return res.constant(), exps


def div_exact_rescan(f, g):
    """Exact division in Z[B, C] by rescanning the whole remainder for its
    graded-lex (C > B) leading term before every quotient term; quadratic,
    kept as the reference for the library's one-pass div_exact."""
    from modunits.bivar_poly import BivarPoly, NotDivisible

    def grlex(mono):
        return (mono[0] + mono[1], mono[1])

    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    gm = max(g.terms, key=grlex)
    gc = g.terms[gm]
    rem = dict(f.terms)
    out = {}
    while rem:
        lm = max(rem, key=grlex)
        lc = rem[lm]
        i, j = lm[0] - gm[0], lm[1] - gm[1]
        if i < 0 or j < 0 or lc % gc:
            raise NotDivisible("%r does not divide %r" % (g, f))
        q = lc // gc
        out[(i, j)] = q
        for (a, b), c in g.terms.items():
            key = (a + i, b + j)
            v = rem.get(key, 0) - q * c
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)
    return BivarPoly(out)


def hnf(rows, lead_cols):
    """Row Hermite normal form by integer elimination, pivoting only on the
    first lead_cols columns (Cohen, GTM 138, section 2.4): pivots positive,
    entries above each pivot reduced into [0, pivot).  Returns every row; the
    rows past the last pivot are zero on the lead columns."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivot_row = 0
    for col in range(lead_cols):
        if pivot_row >= len(mat):
            break
        for r in range(pivot_row + 1, len(mat)):
            while mat[r][col]:
                a = mat[pivot_row][col]
                if a == 0:
                    mat[pivot_row], mat[r] = mat[r], mat[pivot_row]
                    continue
                q = mat[r][col] // a
                if q:
                    for j in range(ncols):
                        mat[r][j] -= q * mat[pivot_row][j]
                if mat[r][col]:
                    mat[pivot_row], mat[r] = mat[r], mat[pivot_row]
        if mat[pivot_row][col] == 0:
            continue
        if mat[pivot_row][col] < 0:
            mat[pivot_row] = [-x for x in mat[pivot_row]]
        piv = mat[pivot_row][col]
        for r in range(pivot_row):
            q = mat[r][col] // piv
            if q:
                for j in range(ncols):
                    mat[r][j] -= q * mat[pivot_row][j]
        pivot_row += 1
    return mat


def basis_S_by_kernel(N):
    """basis_S by elimination, as the reference for the closed form: S is the
    projection to the first m coordinates of the integer kernel of the
    2 x (m+2) matrix [1..1 12 0; 1 4 .. m^2 0 M].  The kernel is read off the
    HNF of [transpose | I], then the projection is put in HNF."""
    m = N // 2
    M = N * gcd(N, 2)
    cols = [(1, k * k) for k in range(1, m + 1)] + [(12, 0), (0, M)]
    aug = [list(col) + [int(i == j) for j in range(m + 2)] for i, col in enumerate(cols)]
    kernel = [row[2:] for row in hnf(aug, 2) if row[0] == row[1] == 0]
    rows = hnf([vec[:m] for vec in kernel], m)
    return [ExpVector(N, tuple(r)) for r in rows]


def random_vector_in_S(rng, N, bound=5):
    """Rejection-sample an exponent vector in S with entries in [-bound, bound]."""
    m = N // 2
    while True:
        vec = ExpVector(N, tuple(rng.randint(-bound, bound) for _ in range(m)))
        if is_in_S(vec):
            return vec


def brute_force_membership(target, basis, box=80):
    """Solve target = x*b1 + y*b2 over Z by exhaustive search (rank-2 only)."""
    b1, b2 = basis
    for x in range(-box, box + 1):
        rest0 = target[0] - x * b1[0]
        rest1 = target[1] - x * b1[1]
        for y in range(-box, box + 1):
            if rest0 == y * b2[0] and rest1 == y * b2[1]:
                return x, y
    return None


def cusps_by_orbits(N):
    """{alpha: [width of each cusp]} of +-Gamma^1(N), the matrices congruent
    to [[1, 0], [*, 1]] mod N, by brute force: the cusps of Gamma(N) are the
    columns (a, c) mod N with gcd(a, c, N) = 1, and the orbits of
    (a, c) -> (a, c + a) and (a, c) -> (-a, -c) on them are the cusps of
    +-Gamma^1(N), filed under alpha = min(a, N - a).  A cusp's width is the
    least h > 0 for which gamma T^h gamma^-1 = I + h [[-ac, a^2], [-c^2, ac]]
    is congruent to +-[[1, 0], [*, 1]] mod N; the sign - is needed only at
    the cusp 1/2 of N = 4, which is irregular for Gamma^1(4)."""
    cols = [(a, c) for a in range(N) for c in range(N) if gcd(gcd(a, c), N) == 1]
    parent = {col: col for col in cols}

    def find(col):
        while parent[col] != col:
            col = parent[col]
        return col

    for a, c in cols:
        for other in ((a, (c + a) % N), (-a % N, -c % N)):
            parent[find(other)] = find((a, c))
    roots = {find(col) for col in cols}

    def fixes(h, a, c):
        top, corner, bottom = (1 - h * a * c) % N, h * a * a % N, (1 + h * a * c) % N
        return corner == 0 and top == bottom and top in (1, N - 1)

    out = {}
    for a, c in roots:
        width = next(h for h in range(1, N + 1) if fixes(h, a, c))
        out.setdefault(min(a, N - a), []).append(width)
    return out


def index_of_gamma1(N):
    """[SL_2(Z) : +-Gamma^1(N)] for N >= 3: SL_2(Z/N) has N matrices over
    each column (a, c) with gcd(a, c, N) = 1, the image of Gamma^1(N) has N
    elements and -I is not among them."""
    return sum(1 for a in range(N) for c in range(N) if gcd(gcd(a, c), N) == 1) // 2
