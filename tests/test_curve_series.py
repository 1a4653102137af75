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
    _divided,
    _grouped,
    _recurrence_powers,
    d_consistency_report,
    defining_equation_report,
    expand_curve,
    express2_series_report,
    p_consistency_report,
)
from modunits.divpoly import D_COFACTOR, DISCRIMINANT
from modunits.qseries import QSeries, ZeroSeries
from modunits.siegel import product_lead_exponent
from modunits.unit_lattice import d_to_h, fold_p
from support import (
    DIVPOLY,
    d_consistency_by_evaluation,
    d_window_by_leads,
    defining_equation_by_evaluation,
    dense_reduced_product_holds,
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


def _corrupted_fold_p(k, shift=0, negate=False, add=None):
    """fold_p with a corrupted dictionary entry for p_k: each factor p_k read
    as p_{k+shift}, with the opposite sign when negate and times the unit of
    the vector add."""
    def fold(N, pairs, alpha=0):
        pairs = list(pairs)
        r = sum(x for j, x in pairs if j == k)
        vanishes, sign, vec = fold_p(N, [(j + shift if j == k else j, x) for j, x in pairs], alpha)
        if negate and r % 2:
            sign = -sign
        return vanishes, sign, vec if add is None else vec + add.scale(r)
    return fold


def test_defining_equation_small_levels():
    for N, precN in ((5, 75), (6, 90), (7, 105), (10, 120)):
        assert defining_equation_report(expand_curve(N, precN))["pass"], N


def test_defining_equation_report_shape():
    r = defining_equation_report(expand_curve(5, 40))
    assert r == {"check": "defining_equation", "N": 5, "precN": 40, "pass": True}


def test_b_and_c_series_are_integral():
    # b, c and d are, up to sign and a shift by their leading exponent, the
    # reduced Siegel products of their vectors, and those match the dense
    # factor products, which divide by nothing, on the whole 15N window
    for N in (5, 6, 8, 9):
        exp = _expansion(N, 15 * N)
        for s, vec in ((exp.b, fold_p(N, [(2, 1)])[2]),
                       (exp.c, fold_p(N, [(4, 1), (2, -5)])[2]),
                       (exp.d, d_to_h(N))):
            lead = s.coeffs[0]
            assert lead in (1, -1) and s.ord == N * product_lead_exponent(vec), (N, s)
            reduced = QSeries(N, 0, [lead * c for c in s.coeffs], 15 * N)
            assert dense_reduced_product_holds(vec, reduced), (N, s)


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


def _recurrence_series(exp, n):
    """The right side of the check of p_n, n >= 5, as the check compares it:
    u - v divided by p_n (by 1 when n = 0 mod N) and shifted by q^(s/N)."""
    from modunits import curve_series

    fold = curve_series.fold_p
    u, v = (fold(exp.N, pw.items()) for pw in _recurrence_powers(n))
    return _divided(exp, fold(exp.N, [(n, 1)]), [(1, u), (-1, v)])[1]


def test_eval_poly_horner_matches_term_evaluation():
    # P_1..P_{m+2}, F_N, D and its quartic cofactor Q = D / B^3, which
    # verify evaluates
    for N in range(4, 15):
        exp = _expansion(N, 15 * N)
        pows = {}
        polys = [DIVPOLY.P(n) for n in range(1, N // 2 + 3)]
        polys += [DIVPOLY.F(N), DISCRIMINANT, D_COFACTOR]
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
        value = eval_poly_by_terms(exp, DIVPOLY.P(n), pows)
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
            value = eval_poly_by_terms(exp, DIVPOLY.P(n))
            assert _window(exp.p(n), rhs) >= _window(exp.p(n), value), (N, n)


def _vector(N, powers):
    """The exponent vector of prod p_k^r over the items of powers."""
    from modunits.unit_lattice import ExpVector, p_to_h

    vec = ExpVector.zero(N)
    for k, r in powers.items():
        vec = vec + p_to_h(k, N)[1].scale(r)
    return vec


def test_p_consistency_fails_on_perturbed_series(monkeypatch):
    # the check of p_n, n != 0 mod N, reads u / p_n as one Siegel product,
    # built where the check reads it: one coefficient of it inside the
    # compared window, above its leading term, fails the check at that
    # exponent in p_n's frame, where u starts.  In each case v is nonzero
    # too: were it the zero series, u would be p_n and u / p_n the constant 1
    # that the left side reads as well.  The window ends at the proof top,
    # which at (7, 5), (9, 6) and (6, 7) leaves u / p_n two coefficients, so
    # the one corrupted is the second
    from dataclasses import replace

    from modunits import curve_series
    from modunits.curve_series import _valence_bound

    real_product = curve_series.product_series
    for N, n in ((7, 5), (9, 6), (10, 8), (11, 7), (6, 7), (8, 9)):
        exp = expand_curve(N, 6 * N)
        assert p_consistency_report(exp, n)["pass"]
        powers = _powers(recurrence_pairs(n)[0])
        e = exp.monomial(powers).ord + 1
        r = _vector(N, {n: 1})
        terms = [_vector(N, _powers(pairs)) - r for pairs in recurrence_pairs(n)]
        assert e < exp.p(n).ord + _valence_bound(N, terms) + 1, (N, n)
        powers[n] = -1
        vec = _vector(N, powers)

        def corrupted(v, precN, vec=vec):
            good = real_product(v, precN)
            if v != vec:
                return good
            coeffs = list(good.fstar.coeffs)
            coeffs[1] += 1
            return replace(good, fstar=QSeries(N, 0, coeffs, good.fstar.precN))

        monkeypatch.setattr(curve_series, "product_series", corrupted)
        report = p_consistency_report(exp, n)
        monkeypatch.setattr(curve_series, "product_series", real_product)
        assert not report["pass"], (N, n)
        assert report["firstFailingExponent"] == str(Fraction(e, N)), (N, n)
    # when n = 0 mod N, u and v are one Siegel product (one vector), so no
    # product the check reads can be corrupted apart; it decides u - v = 0 on
    # the folded vectors instead, and a corrupted vector of a factor of u
    # alone fails it.  At N = 5, n = 10 both carry the zero factor p_5, so
    # u - v = 0 - 0 whatever the other factors are
    for N, n, k in ((6, 6, 5), (5, 5, 4)):
        u, v = (_vector(N, _powers(pairs)) for pairs in recurrence_pairs(n))
        assert u == v, (N, n)
        assert p_consistency_report(expand_curve(N, 6 * N), n)["pass"], (N, n)
        monkeypatch.setattr(curve_series, "fold_p", _corrupted_fold_p(k, shift=N))
        report = p_consistency_report(expand_curve(N, 6 * N), n)
        monkeypatch.setattr(curve_series, "fold_p", fold_p)
        assert not report["pass"], (N, n)
    assert p_consistency_report(expand_curve(5, 30), 10)["pass"]


def test_zero_index_check_sees_past_the_window(monkeypatch):
    # at N = 5, n = 15 and precN = 75, u and v start at q^(89/5), above the
    # window of the zero p_15: a corrupted factor of u leaves the series
    # comparison on that window clean, and the exact identity still fails
    from modunits import curve_series

    N, n = 5, 15
    assert p_consistency_report(expand_curve(N, 15 * N), n)["pass"]
    monkeypatch.setattr(curve_series, "fold_p", _corrupted_fold_p(9, shift=N))
    exp = expand_curve(N, 15 * N)
    assert exp.p(n).first_difference(_recurrence_series(exp, n)) is None
    report = p_consistency_report(exp, n)
    assert not report["pass"] and "firstFailingExponent" not in report
    # compared past the window, u - v is not zero
    assert p_consistency_undivided(exp, n)["firstFailingExponent"] == "89/5"


def test_p_consistency_fails_on_corrupted_dictionary(monkeypatch):
    # fold_p gives the check its divisor p_n and the factors of u and v:
    # handing one index the vector of p_{k+N}, a different unit, fails it,
    # also at n = 0 mod N when the index is a factor of u alone
    from modunits import curve_series

    for N, n, k in ((7, 5, 5), (9, 6, 6), (10, 8, 8), (11, 7, 7), (6, 7, 7), (5, 9, 9),
                    (6, 6, 5), (5, 5, 4)):
        assert p_consistency_report(expand_curve(N, 6 * N), n)["pass"], (N, n)
        monkeypatch.setattr(curve_series, "fold_p", _corrupted_fold_p(k, shift=N))
        report = p_consistency_report(expand_curve(N, 6 * N), n)
        monkeypatch.setattr(curve_series, "fold_p", fold_p)
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
        v = product_series(v_to_h(N), precN)
        assert v.ipow == 0, N
        assert v.to_qseries() * exp.p(partner) == (
            joint.to_qseries(sign)
        ), N
        # and p_{m+1} and the partner are read off fold_p: handing either the
        # vector of p_{k+N}, a different unit, fails the check, at the
        # exponent where the series comparison fails
        for k in (m + 1, partner):
            monkeypatch.setattr(curve_series, "fold_p", _corrupted_fold_p(k, shift=N))
            bad = express2_series_report(expand_curve(N, precN))
            want = express2_by_series(expand_curve(N, precN))
            monkeypatch.setattr(curve_series, "fold_p", fold_p)
            assert not bad["pass"] and "firstFailingExponent" in bad, (N, k)
            assert bad == want, (N, k)


def test_verify_builds_each_siegel_product_once(monkeypatch):
    # within one check, verify builds no vector twice at one precision, at
    # any precision.  The one repeat is the d check at N = 5: c = b on
    # X1(5), so b and c share the vector (5, -5), and the short expansion
    # builds each at precision 4
    from collections import Counter

    from modunits import cli, curve_series

    checks, built = [None], Counter()
    real = curve_series.product_series

    def counted(vec, precN):
        built[checks[-1], vec.e, precN] += 1
        return real(vec, precN)

    def tagged(name):
        real_report = getattr(curve_series, name)

        def report(expansion, *args):
            checks.append((expansion.N, name) + args)
            try:
                return real_report(expansion, *args)
            finally:
                checks.pop()
        return report

    monkeypatch.setattr(curve_series, "product_series", counted)
    for name in ("defining_equation_report", "p_consistency_report", "d_consistency_report",
                 "express2_series_report"):
        monkeypatch.setattr(curve_series, name, tagged(name))
    for N in range(4, 21):
        cli._verify_tasks(N, 15 * N, N // 2 + 2, 2, 1)
    assert built and None not in {key for key, _, _ in built}
    twice = {key: k for key, k in built.items() if k > 1}
    assert twice == {((5, "d_consistency_report"), (5, -5), 4): 2}


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


def test_verify_reads_no_division_polynomial(monkeypatch):
    # the checks of n <= 4 read P_1..P_4 from divpoly.P_BASE and the others
    # are decided on Siegel products, so verify builds and reads no P_n or F_n
    from modunits import cli
    from modunits.divpoly import DivPolyCache

    calls = []

    def spy(name):
        real = getattr(DivPolyCache, name)

        def read(self, n):
            calls.append((name, n))
            return real(self, n)
        return read

    for name in ("P", "F"):
        monkeypatch.setattr(DivPolyCache, name, spy(name))
    assert cli.main(["verify", "--N", "4..14", "--seed", "1"], out=io.StringIO()) == 0
    assert not calls, calls


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
                exp.monomial(_powers(pairs))
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
    # fold_p handing b's or c's index (2 or 4) the vector of p_{k+N} changes
    # F_N(b, c) and the p-checks the derived defining equation rests on;
    # handing p_{m+1} or its partner that vector, or the opposite sign,
    # changes one side of express2.  (The sign of p_2 alone negates b and c,
    # which leaves F_5(b, c) = b - c zero; the derived form fails on it.)
    from modunits import curve_series

    def shifted(k, N):
        return _corrupted_fold_p(k, shift=N)

    def negated(k, N):
        return _corrupted_fold_p(k, negate=True)

    for N in range(5, 15):
        m = N // 2
        partner = m if N % 2 else m - 1
        for k, corrupt in itertools.product(sorted({2, 4, m + 1, partner}), (shifted, negated)):
            monkeypatch.setattr(curve_series, "fold_p", corrupt(k, N))
            exp = expand_curve(N, 15 * N)
            if k in (2, 4) and corrupt is shifted:
                assert not defining_equation_report(exp)["pass"], (N, k, corrupt)
                assert not defining_equation_by_evaluation(exp)["pass"], (N, k, corrupt)
            if k in (m + 1, partner):
                assert not express2_series_report(exp)["pass"], (N, k, corrupt)
                assert not express2_by_series(exp)["pass"], (N, k, corrupt)
            monkeypatch.setattr(curve_series, "fold_p", fold_p)


def test_p4_at_level_4_is_a_vanishing_check():
    # p_4 is the zero series at N = 4, so comparing P_4(b, c) with it is the
    # vanishing check of the same value, at every precision
    for precN in range(1, 21):
        exp = expand_curve(4, precN)
        lhs = exp.eval_poly(DIVPOLY.P(4))
        want = vanishing_report("p_consistency", exp, lhs, n=4)
        assert p_consistency_report(exp, 4) == want, precN


def test_p_check_refuses_an_index_below_1():
    # P_1..P_4 are read from the tuple P_0..P_4, where a negative index
    # would name another base case
    exp = expand_curve(5, 30)
    for n in (0, -1, -4):
        with pytest.raises(ValueError):
            p_consistency_report(exp, n)


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

    for N in range(4, 15):
        for corrupt in (_corrupted_fold_p(3, shift=N), _corrupted_fold_p(3, negate=True)):
            monkeypatch.setattr(curve_series, "fold_p", corrupt)
            exp = expand_curve(N, 15 * N)
            report = p_consistency_report(exp, 3)
            want = p_consistency_undivided(exp, 3)
            monkeypatch.setattr(curve_series, "fold_p", fold_p)
            assert not report["pass"] and "firstFailingExponent" in want, N
            assert report == want, N
            assert p_consistency_report(expand_curve(N, 15 * N), 3)["pass"], N


def test_d_check_by_the_identity_rule_matches_horner():
    # the d check decided by _identity_report on its folded terms, as the
    # p-checks are, gives the Horner check's report; ROADMAP item 2 rests on
    # this.  At N = 4 and precN <= 4 they differ: Horner fails on c's empty
    # window, while the identity rule drops c's vanishing terms and passes.
    from modunits.curve_series import _identity_report
    from modunits.unit_lattice import d_to_h

    def by_rule(exp):
        N = exp.N
        rhs = [(coeff * (-1) ** (i + j + 1), fold_p(N, [(2, i + 3 - 5 * j), (4, j)]))
               for (i, j), coeff in D_COFACTOR.terms.items()]
        return _identity_report("d_consistency", exp, (False, 1, d_to_h(N)), rhs)

    for precN in range(1, 5):
        exp = expand_curve(4, precN)
        assert not d_consistency_report(exp)["pass"], precN
        assert by_rule(exp) == {"check": "d_consistency", "N": 4, "precN": precN,
                                "pass": True}, precN
    cases = [(4, precN) for precN in range(5, 31)]
    cases += [(N, precN) for N in range(5, 17)
              for precN in sorted(set(range(1, 31)) | {40, 60, 15 * N})]
    cases += [(N, 15 * N) for N in (20, 30, 40, 60, 61)]
    assert len(cases) == 427
    for N, precN in cases:
        exp = expand_curve(N, precN)
        assert by_rule(exp) == d_consistency_report(exp), (N, precN)


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


def test_p_check_with_a_zero_factor_builds_no_series(monkeypatch):
    # u or v carries the zero factor p_N, so p_n = +-(one monomial): the terms
    # cancel on their exponent vectors and no Siegel product is built
    from modunits import curve_series

    built = []
    real = curve_series.product_series

    def counted(vec, precN):
        built.append(vec)
        return real(vec, precN)

    for N, n in ((6, 9), (7, 11), (6, 10)):
        exp = expand_curve(N, 15 * N)
        u, v = (fold_p(N, pw.items()) for pw in _recurrence_powers(n))
        assert u[0] != v[0], (N, n)
        monkeypatch.setattr(curve_series, "product_series", counted)
        report = p_consistency_report(exp, n)
        monkeypatch.setattr(curve_series, "product_series", real)
        assert report["pass"] and not built, (N, n, built)
        assert report == p_consistency_undivided(exp, n), (N, n)


def test_two_term_identity_fails_past_the_window(monkeypatch):
    # at (N, n) = (6, 9), u carries the zero factor p_6, so the check is the
    # two-term identity p_9 = -v, v = p_5^3 p_3.  w = (3, 0, 1) has leading
    # exponent 0, so handing p_3 its vector plus w leaves -v / p_9 = the
    # product of w, 1 - 3 q^(1/6) + ...  At precN = 1 the window holds only
    # the leading term: the sides agree there, as a comparison on the window
    # finds, yet their vectors differ, and the check fails naming no exponent
    from modunits import curve_series
    from modunits.siegel import product_lead_exponent
    from modunits.unit_lattice import ExpVector

    N, n = 6, 9
    w = ExpVector(N, (3, 0, 1))
    assert product_lead_exponent(w) == 0
    monkeypatch.setattr(curve_series, "fold_p", _corrupted_fold_p(3, add=w))
    short = expand_curve(N, 1)
    u, v = (curve_series.fold_p(N, pw.items()) for pw in _recurrence_powers(n))
    assert u[0] and not v[0]
    sides = _divided(short, curve_series.fold_p(N, [(n, 1)]), [(1, u), (-1, v)])
    assert _agreement_report("p_consistency", short, *sides, n=n)["pass"]
    report = p_consistency_report(short, n)
    assert not report["pass"] and "firstFailingExponent" not in report
    # on a wider window the same failure is located, one step above p_9's
    # leading exponent
    wide = expand_curve(N, 15 * N)
    s = wide.p(n).ord
    assert p_consistency_report(wide, n)["firstFailingExponent"] == str(Fraction(s + 1, N))


fold_st = st.tuples(st.booleans(), st.sampled_from((1, -1)),
                    st.lists(st.integers(-3, 3), min_size=3, max_size=3))


def _fold(t):
    from modunits.unit_lattice import ExpVector

    vanishes, sign, e = t
    return vanishes, sign, ExpVector(7, e)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3).filter(bool), fold_st.map(_fold)), max_size=6),
       st.randoms(use_true_random=False))
def test_grouping_is_an_exact_sum_over_vectors(terms, rng):
    # grouping is order-independent, t - t cancels, and terms with distinct
    # vectors that do not vanish never cancel
    groups = _grouped(terms)
    shuffled = list(terms)
    rng.shuffle(shuffled)
    assert _grouped(shuffled) == groups
    assert not _grouped(terms + [(-coeff, fold) for coeff, fold in terms])
    live = {}
    for coeff, fold in terms:
        if not fold[0]:
            live.setdefault(fold[2], (coeff, fold))
    assert len(_grouped(list(live.values()))) == len(live)
    assert all(coeff for coeff in groups.values())


# -- cusp orders, the valence bound and the proof windows ---------------------


@pytest.mark.parametrize("N", range(4, 31))
def test_cusp_classes_match_orbit_enumeration(N):
    # the closed-form count and width of each class alpha against the orbits
    # of +-Gamma^1(N) on the cusps of Gamma(N), and the widths sum to the
    # index, the irregular cusp 1/2 of N = 4 included
    from modunits.curve_series import cusp_classes
    from support import cusps_by_orbits, index_of_gamma1

    orbits = cusps_by_orbits(N)
    classes = cusp_classes(N)
    assert sorted(orbits) == list(range(len(classes)))
    for alpha, (count, width) in enumerate(classes):
        assert orbits[alpha] == [width] * count, (N, alpha)
    assert sum(count * width for count, width in classes) == index_of_gamma1(N)


@pytest.mark.parametrize("N", range(4, 42))
def test_cusp_orders_on_basis_S(N):
    # every unit of X1(N) has a divisor of degree 0 supported on the cusps,
    # with integral orders, and its order at infinity is N times its leading
    # exponent; each order equals w sum_k e_k B_2(<k alpha/N>)/2 exactly, with
    # B_2(x) = x^2 - x + 1/6 in Fractions, so a rounded division fails here
    from modunits.curve_series import cusp_classes, cusp_orders
    from modunits.siegel import product_lead_exponent
    from modunits.unit_lattice import basis_S

    def b2(x):
        x %= 1
        return x * x - x + Fraction(1, 6)

    classes = cusp_classes(N)
    counts = [count for count, _ in classes]
    for vec in basis_S(N):
        orders = cusp_orders(vec)
        assert all(type(o) is int for o in orders), (N, vec)
        exact = [width * sum(ek * b2(Fraction(k * alpha, N)) / 2
                             for k, ek in enumerate(vec.e, 1))
                 for alpha, (_, width) in enumerate(classes)]
        assert orders == exact, (N, vec)
        assert sum(count * o for count, o in zip(counts, orders)) == 0, (N, vec)
        assert orders[1] == N * product_lead_exponent(vec), (N, vec)


@pytest.mark.parametrize("N", range(5, 13))
def test_vector_outside_S_has_no_cusp_orders_and_no_bound(N):
    # h_1 alone is no function on X1(N): its orders are refused, and a unit
    # equation with such a term has no valence bound
    from modunits.curve_series import _valence_bound, cusp_orders
    from modunits.unit_lattice import ExpVector, NotInS

    vec = ExpVector.unit(N, 1)
    with pytest.raises(NotInS):
        cusp_orders(vec)
    assert _valence_bound(N, [vec]) is None
    assert _valence_bound(N, [ExpVector.zero(N), vec]) is None


def test_d_check_with_a_term_outside_S_compares_its_whole_window(monkeypatch):
    # d's vector plus (-3, 0, -1) at N = 6 stays on the q^(1/6) grid with an
    # even power of i, but leaves S, so the d check has no proof top: it
    # compares its whole window, as D(b, c) evaluated against that d does,
    # and fails at 7/6 once that window reaches it
    from modunits import curve_series
    from modunits.unit_lattice import ExpVector, is_in_S

    N, real, real_top = 6, curve_series.d_to_h, curve_series._proof_top
    off = ExpVector(N, (-3, 0, -1))
    assert not is_in_S(real(N) + off) and is_in_S(real(N))
    tops = []

    def proof_top(*args):
        divisor, top = real_top(*args)
        tops.append(top)
        return divisor, top

    monkeypatch.setattr(curve_series, "_proof_top", proof_top)
    # with d itself every term is a unit of X1(6): the check has a proof top,
    # and its window stops short of 15N
    assert _d_check_window(N, 15 * N) < 15 * N and tops[-1] is not None
    monkeypatch.setattr(curve_series, "d_to_h", lambda L: real(L) + off)
    for precN in [*range(1, 31), 15 * N]:
        del tops[:]
        assert _d_check_window(N, precN) == precN, precN
        exp = expand_curve(N, precN)
        report = d_consistency_report(exp)
        assert tops == [None, None], precN
        assert report == d_consistency_by_evaluation(exp), precN
        want = {"check": "d_consistency", "N": N, "precN": precN, "pass": precN <= 3}
        if precN > 3:
            want["firstFailingExponent"] = "7/6"
        assert report == want, precN


def _unit_equation_difference(f1, f2, top):
    """The lowest exponent numerator below top at which the sides of
    f1 - f2 = 1 differ, or None, f1 and f2 the Siegel products of two
    vectors, each built up to q^(top/N) and at least to its leading term."""
    from modunits.curve_series import _lead
    from modunits.qseries import combination
    from modunits.siegel import product_series

    f1s, f2s = (product_series(f, max(1, top - _lead(f))).to_qseries() for f in (f1, f2))
    g = combination([(1, f1s), (-1, f2s), (-1, QSeries.one(f1.N, max(1, top)))])
    return g.ord if g.coeffs and g.ord < top else None


def test_valence_bound_holds_on_random_false_unit_equations():
    # for 240 random pairs f1, f2 of S the unit equation f1 - f2 = 1 is false,
    # and its sides first differ at or below the valence bound P in q^(1/N).
    # P < 60N, so that is the first difference on a 60N window as well; the
    # sides are built only up to q^((P+1)/N), where it must show
    import random

    from modunits import cli
    from modunits.curve_series import _valence_bound
    from modunits.unit_lattice import basis_S

    rng = random.Random(23)
    cases = 0
    for N in range(5, 17):
        basis = basis_S(N)
        for _ in range(20):
            f1, f2 = (cli._random_vector_in_S(rng, basis) for _ in range(2))
            bound = _valence_bound(N, [f1, f2])
            assert bound < 60 * N, (N, f1, f2)
            assert _unit_equation_difference(f1, f2, bound + 1) is not None, (N, f1, f2, bound)
            cases += 1
    assert cases >= 240


def test_valence_bound_is_tight():
    # 1 - f2 = 1 fails first at the order of f2 at infinity, which reaches the
    # bound: at N = 5, f2 = (-2, -22) has its 4 zeros at infinity and poles of
    # order 2 at each of the two cusps of class 0; at N = 6, f2 = (3, 0, -3)
    # has one zero at infinity and one pole, in class 2
    from modunits.curve_series import _valence_bound, cusp_orders
    from modunits.unit_lattice import ExpVector

    for N, e, bound, orders in ((5, (-2, -22), 4, [-2, 4, 0]), (6, (3, 0, -3), 1, [0, 1, -1, 0])):
        one, f2 = ExpVector.zero(N), ExpVector(N, e)
        assert cusp_orders(f2) == orders, N
        assert _valence_bound(N, [one, f2]) == bound, N
        assert _unit_equation_difference(one, f2, 60 * N) == bound, N
        assert _unit_equation_difference(one, f2, bound) is None, N


def _p_check_need(N, n):
    """The least precN at which the p-check of n >= 5, n != 0 mod N, compares
    up to its proof top s + P + 1: every divided series, the left side's
    constant included, runs P + 1 past its leading exponent numerator, here
    lead - s."""
    from modunits.curve_series import _lead, _valence_bound

    r = fold_p(N, [(n, 1)])[2]
    terms = [fold_p(N, pw.items())[2] - r for pw in _recurrence_powers(n)]
    return _valence_bound(N, terms) + 1 - min([0] + [_lead(t) for t in terms])


class _ShortExpansion(Exception):
    """Raised in place of building the d check's short expansion."""


def _d_check_window(N, precN):
    """The precision at which d_consistency_report evaluates Q at level N
    and precision precN, read off the CurveExpansion it builds for that;
    nothing is evaluated."""
    from modunits import curve_series

    def short(level, W):
        raise _ShortExpansion(W)

    exp = expand_curve(N, precN)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curve_series, "CurveExpansion", short)
        with pytest.raises(_ShortExpansion) as built:
            d_consistency_report(exp)
    return built.value.args[0]


def _d_check_need(N):
    """The least precN at which the d check compares up to its proof top."""
    return _d_check_window(N, 10 ** 9)


def test_proof_windows_pinned():
    # the least precisions that make each check a proof grow like N^2/48 for
    # the p-checks and N^2/11 for the d check; at N = 121 the d check's, 1,816,
    # passes the default 15N = 1,815 for the first time
    assert max(_p_check_need(40, n) for n in range(5, 40 // 2 + 3)) == 35
    assert [_d_check_need(N) for N in (60, 120, 121, 200)] == [289, 1153, 1816, 3601]
    assert all(_d_check_need(N) <= 15 * N for N in range(5, 121))


def test_d_window_matches_the_leading_exponent_oracle(monkeypatch):
    # the d check's window, from the one rule on its terms' proof windows,
    # is the one the leading exponents of b, c and d / b^3 give; the d check
    # reads one valence bound per level, computed once here
    from modunits import curve_series

    real = curve_series._valence_bound
    bounds = lru_cache(maxsize=None)(lambda N, vecs: real(N, list(vecs)))
    monkeypatch.setattr(curve_series, "_valence_bound", lambda N, vecs: bounds(N, tuple(vecs)))
    for N in range(4, 201):
        for precN in (1, 2, 5, 10, 50, 15 * N, 10 ** 6):
            assert _d_check_window(N, precN) == d_window_by_leads(N, precN), (N, precN)


def test_verify_builds_no_product_past_its_proof_window(monkeypatch):
    # in verify, every Siegel product is built by a p-check or the d check,
    # and no further than its check's proof top: a divided term of a p-check
    # to fstar precision max(1, P + 1 - lead) and the d check's products at
    # one precision, the least at which its compared window ends at the proof
    # top.  Both windows end exactly there.  (At N = 4 c is the zero
    # function, so the d check has no bound and compares the whole window.)
    from modunits import cli, curve_series
    from modunits.curve_series import _lead, _valence_bound
    from modunits.unit_lattice import d_to_h

    check, built, windows = [None], [], {}
    real_product, real_agreement = curve_series.product_series, curve_series._agreement_report

    def product_spy(vec, precN):
        built.append((check[0], vec, precN))
        return real_product(vec, precN)

    def agreement_spy(name, expansion, lhs, rhs, n=None):
        windows[check[0]] = min(lhs.precN, rhs.precN)
        return real_agreement(name, expansion, lhs, rhs, n)

    def tagged(name):
        real = getattr(curve_series, name)

        def report(expansion, *args):
            check[0] = (expansion.N, name) + args
            try:
                return real(expansion, *args)
            finally:
                check[0] = None
        return report

    monkeypatch.setattr(curve_series, "product_series", product_spy)
    monkeypatch.setattr(curve_series, "_agreement_report", agreement_spy)
    for name in ("p_consistency_report", "d_consistency_report", "express2_series_report"):
        monkeypatch.setattr(curve_series, name, tagged(name))
    assert cli.main(["verify", "--N", "4..14", "--seed", "1"], out=io.StringIO()) == 0

    assert built and all(key is not None for key, _, _ in built)
    for key in {key for key, _, _ in built}:
        N, name = key[:2]
        if name == "p_consistency_report":
            n = key[2]
            r = fold_p(N, [(n, 1)])[2]
            terms = [fold_p(N, pw.items())[2] - r for pw in _recurrence_powers(n)]
            bound = _valence_bound(N, terms)
            for k, vec, precN in built:
                if k == key:
                    assert vec in terms + [r - r], (key, vec)
                    assert precN <= max(1, bound + 1 - _lead(vec)), (key, vec, precN)
            assert windows[key] == _lead(r) + bound + 1, key
        elif N > 4:
            assert name == "d_consistency_report", key
            b, c = fold_p(N, [(2, 1)])[2], fold_p(N, [(4, 1), (2, -5)])[2]
            r = d_to_h(N) - b.scale(3)
            bound = _valence_bound(N, [b.scale(i) + c.scale(j) - r for i, j in D_COFACTOR.terms])
            assert len({precN for k, _, precN in built if k == key}) == 1, key
            assert windows[key] == 3 * _lead(b) + _lead(r) + bound + 1, key
