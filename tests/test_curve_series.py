import io
import itertools
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from modunits.bivar_poly import B, C, BivarPoly
from modunits.curve_series import (
    CurveExpansion,
    _agreement_report,
    _recurrence_series,
    d_consistency_report,
    defining_equation_report,
    expand_curve,
    express2_series_report,
    p_consistency_report,
)
from modunits.divpoly import D_COFACTOR, DISCRIMINANT
from modunits.qseries import QSeries, ZeroSeries
from support import (
    d_consistency_by_evaluation,
    defining_equation_by_evaluation,
    eval_poly_by_terms,
    express2_by_series,
    p_consistency_undivided,
    p_monomial_by_powers,
    recurrence_pairs,
    vanishing_report,
)


@lru_cache(maxsize=None)
def _expansion(N, precN):
    return expand_curve(N, precN)


def test_defining_equation_small_levels():
    for N, precN in ((5, 75), (6, 90), (7, 105), (10, 120)):
        assert defining_equation_report(expand_curve(N, precN))["pass"], N


def test_defining_equation_report_shape():
    r = defining_equation_report(expand_curve(5, 40))
    assert r == {"check": "defining_equation", "N": 5, "precN": 40, "pass": True}


def test_b_and_c_series_are_integral():
    # desk-scale shadow of the bounded-denominator property: the window
    # denominators all divide 1
    for N in (5, 6, 8, 9):
        exp = _expansion(N, 15 * N)
        assert exp.b.is_integral()
        assert exp.c.is_integral()
        assert exp.d.is_integral()


def test_c_vanishes_at_level_4():
    exp = _expansion(4, 60)
    assert exp.c.is_zero
    assert defining_equation_report(exp)["pass"]
    # c is tracked to O(q^((precN - 5)/4)), so F_4(b, c) = c covers no
    # exponent >= 0 below precN = 6; a check that compares nothing fails
    assert not defining_equation_report(expand_curve(4, 1))["pass"]
    assert not defining_equation_report(expand_curve(4, 5))["pass"]
    assert defining_equation_report(expand_curve(4, 6))["pass"]
    assert not d_consistency_report(expand_curve(4, 1))["pass"]


def test_n5_series_identities_from_table():
    # on X1(5): c = b, p7 = c^19, p10 = 0, d = c^5 (c^2 - 11 c - 1)
    exp = _expansion(5, 75)
    assert exp.b.first_difference(exp.c) is None
    assert exp.p(7).first_difference(exp.c.pow_int(19)) is None
    assert exp.p(10).is_zero
    dpoly = C ** 5 * (C ** 2 - 11 * C - 1)
    assert exp.d.first_difference(exp.eval_poly(dpoly)) is None


def test_n6_series_identities_from_table():
    # on X1(6): p9 = c^33 (c+1)^27
    exp = _expansion(6, 120)
    c1 = exp.c + 1
    assert exp.p(9).first_difference(exp.c.pow_int(33) * c1.pow_int(27)) is None
    assert p_consistency_report(expand_curve(6, 120), 9)["pass"]


def test_p_consistency_vanishing_rows():
    exp = _expansion(5, 75)
    assert p_consistency_report(exp, 10)["pass"]
    assert p_consistency_report(exp, 5)["pass"]


def test_p_consistency_all_small_levels():
    for N in range(4, 13):
        exp = _expansion(N, 15 * N)
        for n in range(1, N // 2 + 3):
            assert p_consistency_report(exp, n)["pass"], (N, n)


def test_d_consistency():
    exp5 = _expansion(5, 75)
    assert d_consistency_report(exp5)["pass"]
    assert d_consistency_report(expand_curve(6, 90))["pass"]
    assert d_consistency_report(expand_curve(8, 96))["pass"]


def test_express2_series():
    for N in range(4, 13):
        assert express2_series_report(expand_curve(N, 10 * N))["pass"], N


def test_report_records_failure_exponent():
    # a deliberately wrong identity must fail with a located exponent
    exp = _expansion(5, 40)
    bad = exp.eval_poly(B - C - 1)
    r = vanishing_report("defining_equation", exp, bad)
    assert not r["pass"]
    assert r["firstFailingExponent"] == "0"


def test_reports_read_level_and_precision_from_the_expansion():
    # every report is made at the level and precision of the expansion it is
    # given, so no report of one level can be computed on another's series
    exp = expand_curve(9, 40)
    reports = [defining_equation_report(exp), d_consistency_report(exp),
               express2_series_report(exp)]
    reports += [p_consistency_report(exp, n) for n in range(1, 28)]
    reports += [exp.p_report(n) for n in range(1, 7)]
    for r in reports:
        assert (r["N"], r["precN"]) == (9, 40), r


def test_expansion_validation():
    with pytest.raises(ValueError):
        expand_curve(3, 10)
    with pytest.raises(ValueError):
        CurveExpansion(5, 0)


def _window(lhs, rhs):
    return min(lhs.precN, rhs.precN) - min(0, lhs.ord, rhs.ord)


def test_eval_poly_horner_matches_term_evaluation():
    # P_1..P_{m+2}, F_N, D and its quartic cofactor Q = D / B^3, which
    # verify evaluates
    for N in range(4, 15):
        exp = _expansion(N, 15 * N)
        pows = {}
        polys = [exp.divcache.P(n) for n in range(1, N // 2 + 3)]
        polys += [exp.divcache.F(N), DISCRIMINANT, D_COFACTOR]
        for f in polys:
            got = exp.eval_poly(f)
            want = eval_poly_by_terms(exp, f, pows)
            assert got.first_difference(want) is None, (N, f)
            assert got.precN >= want.precN, (N, f)


small_poly_st = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 4)), st.integers(-9, 9), max_size=8
).map(BivarPoly)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 9), st.integers(1, 40), small_poly_st)
def test_eval_poly_horner_matches_terms_on_random_polys(N, precN, f):
    exp = _expansion(N, precN)
    got = exp.eval_poly(f)
    want = eval_poly_by_terms(exp, f)
    assert got.first_difference(want) is None
    assert got.precN >= want.precN


@pytest.mark.parametrize("N", range(4, 15))
def test_recurrence_reports_match_term_evaluation(N):
    # the recurrence check gives the report that evaluating P_n gives, on a
    # window no smaller, through the zero indices n = 0 mod N up to 3N
    exp = expand_curve(N, 2 * N)
    pows = {}
    for n in range(1, 3 * N + 1):
        value = eval_poly_by_terms(exp, exp.divcache.P(n), pows)
        if n % N == 0:
            want = vanishing_report("p_consistency", exp, value, n=n)
        else:
            want = _agreement_report("p_consistency", exp, value, exp.p(n), n=n)
        assert p_consistency_report(exp, n) == want, n
        if n >= 5:
            rhs = _recurrence_series(exp, n)
            assert _window(exp.p(n), rhs) >= _window(exp.p(n), value), n


def test_recurrence_window_at_verify_precision():
    for N in range(5, 15):
        exp = _expansion(N, 15 * N)
        for n in range(5, N // 2 + 3):
            rhs = _recurrence_series(exp, n)
            value = eval_poly_by_terms(exp, exp.divcache.P(n))
            assert _window(exp.p(n), rhs) >= _window(exp.p(n), value), (N, n)


def _vector(N, powers):
    """The exponent vector of prod p_k^r over the items of powers."""
    from modunits.unit_lattice import ExpVector, p_to_h

    vec = ExpVector.zero(N)
    for k, r in powers.items():
        vec = vec + p_to_h(k, N)[1].scale(r)
    return vec


def test_p_consistency_fails_on_perturbed_series(monkeypatch):
    # the check of p_n, n != 0 mod N, reads u / p_n as one memoized Siegel
    # product: one coefficient of it inside the compared window, above its
    # leading term, fails the check at that exponent in p_n's frame, where u
    # starts.  In each case v is nonzero too: were it the zero series, u would
    # be p_n and u / p_n the constant 1 that the left side reads as well
    from dataclasses import replace

    for N, n in ((7, 5), (9, 6), (10, 8), (11, 7), (6, 7), (8, 9)):
        exp = expand_curve(N, 6 * N)
        assert p_consistency_report(exp, n)["pass"]
        powers = _powers(recurrence_pairs(n)[0])
        e = exp.monomial(powers).ord + 2
        powers[n] = -1
        vec = _vector(N, powers)
        good = exp._products[vec]
        coeffs = list(good.fstar.coeffs)
        coeffs[2] += 1
        exp._products[vec] = replace(good, fstar=QSeries(N, 0, coeffs, good.fstar.precN))
        report = p_consistency_report(exp, n)
        assert not report["pass"], (N, n)
        assert report["firstFailingExponent"] == str(Fraction(e, N)), (N, n)
    # when n = 0 mod N, u and v are one Siegel product (one vector), so no
    # product the check reads can be corrupted apart; it decides u - v = 0 on
    # the folded vectors instead, and a corrupted vector of a factor of u
    # alone fails it.  At N = 5, n = 10 both carry the zero factor p_5, so
    # u - v = 0 - 0 whatever the other factors are
    from modunits import curve_series

    real = curve_series.p_to_h
    for N, n, k in ((6, 6, 5), (5, 5, 4)):
        u, v = (_vector(N, _powers(pairs)) for pairs in recurrence_pairs(n))
        assert u == v, (N, n)
        assert p_consistency_report(expand_curve(N, 6 * N), n)["pass"], (N, n)
        monkeypatch.setattr(curve_series, "p_to_h", lambda j, M: real(j + N if j == k else j, M))
        report = p_consistency_report(expand_curve(N, 6 * N), n)
        monkeypatch.setattr(curve_series, "p_to_h", real)
        assert not report["pass"], (N, n)
    assert p_consistency_report(expand_curve(5, 30), 10)["pass"]


def test_zero_index_check_sees_past_the_window(monkeypatch):
    # at N = 5, n = 15 and precN = 75, u and v start at q^(89/5), above the
    # window of the zero p_15: a corrupted factor of u leaves the series
    # comparison on that window clean, and the exact identity still fails
    from modunits import curve_series

    N, n = 5, 15
    assert p_consistency_report(expand_curve(N, 15 * N), n)["pass"]
    real = curve_series.p_to_h
    monkeypatch.setattr(curve_series, "p_to_h", lambda j, M: real(j + N if j == 9 else j, M))
    exp = expand_curve(N, 15 * N)
    assert exp.p(n).first_difference(_recurrence_series(exp, n)) is None
    report = p_consistency_report(exp, n)
    assert not report["pass"] and "firstFailingExponent" not in report
    # compared past the window, u - v is not zero
    assert p_consistency_undivided(exp, n)["firstFailingExponent"] == "89/5"


def test_p_consistency_fails_on_corrupted_dictionary(monkeypatch):
    # p_to_h gives the check its divisor p_n and the factors of u and v:
    # handing one index the vector of p_{k+N}, a different unit, fails it,
    # also at n = 0 mod N when the index is a factor of u alone
    from modunits import curve_series

    real = curve_series.p_to_h
    for N, n, k in ((7, 5, 5), (9, 6, 6), (10, 8, 8), (11, 7, 7), (6, 7, 7), (5, 9, 9),
                    (6, 6, 5), (5, 5, 4)):
        assert p_consistency_report(expand_curve(N, 6 * N), n)["pass"], (N, n)
        monkeypatch.setattr(curve_series, "p_to_h", lambda j, M: real(j + N if j == k else j, M))
        report = p_consistency_report(expand_curve(N, 6 * N), n)
        monkeypatch.setattr(curve_series, "p_to_h", real)
        assert not report["pass"] and "firstFailingExponent" in report, (N, n, k)


@pytest.mark.parametrize("N", range(4, 15))
def test_divided_check_matches_undivided_oracle(N):
    # dividing by p_n and shifting back by its leading exponent leaves every
    # report as comparing p_n with u - v gives it, the vanishing checks at
    # n = 0 mod N included
    cases = [(2 * N, range(1, 3 * N + 1)), (15 * N, range(1, N // 2 + 3))]
    if 6 <= N <= 9:
        cases += [(precN, range(1, 13)) for precN in range(1, 7)]
    for precN, ns in cases:
        exp = expand_curve(N, precN)
        for n in ns:
            want = p_consistency_undivided(exp, n)
            assert p_consistency_report(exp, n) == want, (precN, n)


def test_c_is_one_siegel_product():
    # c = -p_4 / p_2^5 as one product equals p_4 * b^-5 by series arithmetic
    for N in range(5, 41):
        exp = _expansion(N, 15 * N)
        assert exp.c == exp.p(4) * exp.b.pow_int(-5), N


def test_express2_reads_the_level_expansion(monkeypatch):
    from modunits import curve_series
    from modunits.siegel import product_series
    from modunits.unit_lattice import p_to_h, v_to_h

    for N in range(4, 21):
        precN = 15 * N
        exp = expand_curve(N, precN)
        report = express2_series_report(exp)
        assert report == express2_series_report(expand_curve(N)), N
        assert report["pass"] and report["n"] == N // 2 + 1, N
        # v resolved on its own times the resolved partner is the product
        # taken as Siegel products: same window, same precision
        m = N // 2
        partner = m if N % 2 else m - 1
        sign, vec = p_to_h(partner, N)
        joint = product_series(v_to_h(N) + vec, precN)
        assert exp.product(v_to_h(N)).ipow == 0, N
        assert exp.product(v_to_h(N)).to_qseries() * exp.p(partner) == (
            joint.to_qseries(sign)
        ), N
        # and p_{m+1} and the partner are read off p_to_h: handing either the
        # vector of p_{k+N}, a different unit, fails the check, at the
        # exponent where the series comparison fails
        real = curve_series.p_to_h
        for k in (m + 1, partner):
            monkeypatch.setattr(curve_series, "p_to_h", lambda j, M: real(j + N if j == k else j, M))
            bad = express2_series_report(expand_curve(N, precN))
            want = express2_by_series(expand_curve(N, precN))
            monkeypatch.setattr(curve_series, "p_to_h", real)
            assert not bad["pass"] and "firstFailingExponent" in bad, (N, k)
            assert bad == want, (N, k)


def test_verify_builds_each_siegel_product_once(monkeypatch):
    from collections import Counter

    from modunits import cli, curve_series

    built = Counter()
    real = curve_series.product_series

    def counted(vec, precN):
        built[vec, precN] += 1
        return real(vec, precN)

    monkeypatch.setattr(curve_series, "product_series", counted)
    for N in range(4, 21):
        built.clear()
        cli._verify_tasks(N, 15 * N, N // 2 + 2, 2, 1)
        twice = [vec.e for (vec, precN), k in built.items() if precN == 15 * N and k > 1]
        assert built and not twice, (N, twice)


def _powers(pairs):
    out = {}
    for k, r in pairs:
        out[k] = out.get(k, 0) + r
    return out


@pytest.mark.parametrize("N", range(4, 17))
def test_monomial_matches_series_arithmetic(N):
    # one folded Siegel product against p_k ** r multiplied out, on the
    # common window: c, single p_n, and the recurrence's u and v through the
    # zero indices n = 0 mod N
    precN = 4 * N
    exp = expand_curve(N, precN)
    cases = [[(4, 1), (2, -5)]] + [[(n, 1)] for n in range(1, 2 * N + 1)]
    for n in range(5, 2 * N + 3):
        cases.extend(recurrence_pairs(n))
    for pairs in cases:
        got = exp.monomial(_powers(pairs))
        want = p_monomial_by_powers(N, precN, pairs)
        assert got.first_difference(want) is None, (N, pairs)
        assert got.is_zero == want.is_zero, (N, pairs)
        if not want.is_zero:
            assert got.ord == want.ord and got.precN >= want.precN, (N, pairs)
    assert exp.c == -exp.monomial({4: 1, 2: -5})
    # p_N is the zero series: no negative power of it exists
    with pytest.raises(ZeroSeries):
        exp.monomial({N: -1, 1: 1})


def test_verify_never_inverts_or_powers_a_series(monkeypatch):
    # every verify series is one Siegel product or a Horner fold; at N = 4 the
    # zero c comes from p_4's zero factor, not from b ** -5
    from modunits import cli

    def refuse(self, *args):
        raise AssertionError("QSeries.inv or QSeries.pow_int called")

    monkeypatch.setattr(QSeries, "inv", refuse)
    monkeypatch.setattr(QSeries, "pow_int", refuse)
    for N in range(4, 15):
        reports = cli._verify_tasks(N, 15 * N, N // 2 + 2, 1, 1)
        assert all(r["pass"] for r in reports), N


def test_verify_never_builds_F(monkeypatch):
    # the defining equation is derived from the p-checks, so verify builds no
    # F_N; DivPolyCache.F serves the poly command
    from modunits import cli
    from modunits.divpoly import DivPolyCache

    def refuse(self, n):
        raise AssertionError("DivPolyCache.F called")

    monkeypatch.setattr(DivPolyCache, "F", refuse)
    for N in range(4, 21):
        reports = cli._verify_tasks(N, 15 * N, N // 2 + 2, 1, 1)
        assert all(r["pass"] for r in reports), N


def test_verify_makes_each_p_check_once(monkeypatch):
    from collections import Counter

    from modunits import cli, curve_series

    made = Counter()
    real = curve_series.p_consistency_report

    def counted(expansion, n):
        made[n] += 1
        return real(expansion, n)

    monkeypatch.setattr(curve_series, "p_consistency_report", counted)
    for N in range(4, 21):
        made.clear()
        cli._verify_tasks(N, 15 * N, N // 2 + 2, 1, 1)
        assert made == Counter(range(1, N // 2 + 3)), N


def test_monomial_scales_no_series(monkeypatch):
    # to_qseries applies the sign of a resolved Siegel product, so monomial
    # builds each series in one pass, with no scaling by an int after it
    scalings = []
    real = QSeries.__mul__

    def spy(self, other):
        if isinstance(other, (int, Fraction)):
            scalings.append(other)
        return real(self, other)

    monkeypatch.setattr(QSeries, "__mul__", spy)
    monkeypatch.setattr(QSeries, "__rmul__", spy)
    for N in (4, 5, 6, 11, 14):
        exp = expand_curve(N, 4 * N)
        assert -exp.b == exp.monomial({2: 1}), N
        for n in range(1, 2 * N + 1):
            exp.monomial({n: 1})
        for n in range(5, 2 * N + 3):
            for pairs in recurrence_pairs(n):
                exp.monomial(_powers(pairs), 3)
    assert not scalings


@pytest.mark.parametrize("N", range(4, 31))
def test_derived_reports_match_series_oracles(N):
    # the defining equation from the p-checks and express2 from the vectors
    # give the reports that evaluating F_N(b, c) and multiplying v p_partner
    # give, the empty windows at N = 4 and precN <= 5 included
    precs = [15 * N] + (list(range(1, 31)) if N <= 9 else [])
    for precN in precs:
        exp = expand_curve(N, precN)
        assert defining_equation_report(exp) == defining_equation_by_evaluation(exp), precN
        assert express2_series_report(exp) == express2_by_series(exp), precN


def test_corrupted_dictionary_fails_both_forms(monkeypatch):
    # p_to_h handing b's or c's index (2 or 4) the vector of p_{k+N} changes
    # F_N(b, c) and the p-checks the derived defining equation rests on;
    # handing p_{m+1} or its partner that vector, or the opposite sign,
    # changes one side of express2.  (The sign of p_2 alone negates b and c,
    # which leaves F_5(b, c) = b - c zero; the derived form fails on it.)
    from modunits import curve_series

    real = curve_series.p_to_h

    def shifted(k, N):
        return lambda j, M: real(j + N if j == k else j, M)

    def negated(k, N):
        def fold(j, M):
            folded = real(j, M)
            return folded if j != k else (-folded[0], folded[1])
        return fold

    for N in range(5, 15):
        m = N // 2
        partner = m if N % 2 else m - 1
        for k, corrupt in itertools.product(sorted({2, 4, m + 1, partner}), (shifted, negated)):
            monkeypatch.setattr(curve_series, "p_to_h", corrupt(k, N))
            exp = expand_curve(N, 15 * N)
            if k in (2, 4) and corrupt is shifted:
                assert not defining_equation_report(exp)["pass"], (N, k, corrupt)
                assert not defining_equation_by_evaluation(exp)["pass"], (N, k, corrupt)
            if k in (m + 1, partner):
                assert not express2_series_report(exp)["pass"], (N, k, corrupt)
                assert not express2_by_series(exp)["pass"], (N, k, corrupt)
            monkeypatch.setattr(curve_series, "p_to_h", real)


def test_p4_at_level_4_is_a_vanishing_check():
    # p_4 is the zero series at N = 4, so comparing P_4(b, c) with it is the
    # vanishing check of the same value, at every precision
    for precN in range(1, 21):
        exp = expand_curve(4, precN)
        lhs = exp.eval_poly(exp.divcache.P(4))
        want = vanishing_report("p_consistency", exp, lhs, n=4)
        assert p_consistency_report(exp, 4) == want, precN


def _precisions(N):
    return sorted(set(range(1, 31)) | {2 * N, 15 * N})


@pytest.mark.parametrize("N", range(4, 31))
def test_low_p_checks_on_vectors_match_series_oracle(N):
    # P_1..P_4 are monomials, so the checks of n <= 4 compare folded
    # exponent vectors and signs; they give the reports that evaluating P_n
    # at (b, c) against the p_n series gives, p_4 at N = 4 (a vanishing
    # check) and the short windows included
    for precN in _precisions(N):
        exp = expand_curve(N, precN)
        for n in range(1, 5):
            assert p_consistency_report(exp, n) == p_consistency_undivided(exp, n), (
                precN, n)


@pytest.mark.parametrize("N", range(4, 31))
def test_d_check_divided_by_b_cubed_matches_evaluation(N):
    # Q(b, c) against d / b^3, both shifted by q^(3s/N), gives the report of
    # D(b, c) against d, the empty windows at N = 4 and precN <= 5 included
    for precN in _precisions(N):
        exp = expand_curve(N, precN)
        assert d_consistency_report(exp) == d_consistency_by_evaluation(exp), precN


def test_corrupted_p3_fails_like_the_series_oracle(monkeypatch):
    # p_3 = p_2^3 is the one low identity with content: handing p_3 the
    # vector of p_{3+N}, or the opposite sign, fails the check on vectors at
    # the exponent where P_3(b, c) = -b^3 and the p_3 series first differ
    from modunits import curve_series

    real = curve_series.p_to_h

    def negated(j, M):
        folded = real(j, M)
        return folded if j != 3 else (-folded[0], folded[1])

    for N in range(4, 15):
        for corrupt in (lambda j, M: real(j + N if j == 3 else j, M), negated):
            monkeypatch.setattr(curve_series, "p_to_h", corrupt)
            exp = expand_curve(N, 15 * N)
            report = p_consistency_report(exp, 3)
            want = p_consistency_undivided(exp, 3)
            monkeypatch.setattr(curve_series, "p_to_h", real)
            assert not report["pass"] and "firstFailingExponent" in want, N
            assert report == want, N
            assert p_consistency_report(expand_curve(N, 15 * N), 3)["pass"], N


def test_d_check_fails_on_shifted_d_vector(monkeypatch):
    # d times h_k to the least power that keeps it a unit of X1(N) (a vector
    # of S on the one index k) fails the divided check and the evaluation of
    # D(b, c) against d at the same exponent
    from math import gcd, lcm

    from modunits import curve_series
    from modunits.unit_lattice import ExpVector, is_in_S

    real = curve_series.d_to_h
    for N in range(4, 15):
        M = N * gcd(N, 2)
        for k in range(1, N // 2 + 1):
            shift = ExpVector.unit(N, k).scale(lcm(12, M // gcd(M, k * k)))
            assert is_in_S(shift), (N, k)
            monkeypatch.setattr(curve_series, "d_to_h", lambda L: real(L) + shift)
            exp = expand_curve(N, 15 * N)
            report = d_consistency_report(exp)
            want = d_consistency_by_evaluation(exp)
            monkeypatch.setattr(curve_series, "d_to_h", real)
            assert not report["pass"] and "firstFailingExponent" in report, (N, k)
            assert report == want, (N, k)


def test_verify_evaluates_no_low_P_and_no_power_above_b2(monkeypatch):
    # the checks of n <= 4 read P_1..P_4 as monomials and D is evaluated as
    # b^3 Q, so verify evaluates none of P_1..P_4 and builds b^2 at most
    from modunits import cli
    from modunits.divpoly import DivPolyCache

    low = [DivPolyCache().P(n) for n in range(1, 5)]
    evaluated, powers = [], set()
    real_eval, real_bpow = CurveExpansion.eval_poly, CurveExpansion._bpow

    def eval_spy(self, f):
        evaluated.append(f)
        return real_eval(self, f)

    def bpow_spy(self, i):
        powers.add(i)
        return real_bpow(self, i)

    monkeypatch.setattr(CurveExpansion, "eval_poly", eval_spy)
    monkeypatch.setattr(CurveExpansion, "_bpow", bpow_spy)
    assert cli.main(["verify", "--N", "4..14", "--seed", "1"], out=io.StringIO()) == 0
    assert evaluated and not [f for f in evaluated if f in low]
    assert max(powers) == 2
