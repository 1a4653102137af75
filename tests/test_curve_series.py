from functools import lru_cache

import pytest

from modunits.bivar_poly import B, C
from modunits.curve_series import (
    CurveExpansion,
    check_d_consistency,
    check_defining_equation,
    check_p_consistency,
    d_consistency_report,
    defining_equation_report,
    expand_curve,
    express2_series_report,
    p_consistency_report,
)


@lru_cache(maxsize=None)
def _expansion(N, precN):
    return expand_curve(N, precN)


def test_defining_equation_small_levels():
    assert check_defining_equation(5, 75)
    assert check_defining_equation(6, 90)
    assert check_defining_equation(7, 105)
    assert check_defining_equation(10, 120)


def test_defining_equation_report_shape():
    r = defining_equation_report(5, 40)
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
    assert check_defining_equation(4, 60)
    # c is tracked to O(q^((precN - 5)/4)), so F_4(b, c) = c covers no
    # exponent >= 0 below precN = 6; a check that compares nothing fails
    assert not check_defining_equation(4, 1)
    assert not check_defining_equation(4, 5)
    assert check_defining_equation(4, 6)
    assert not check_d_consistency(4, 1)


def test_n5_series_identities_from_table():
    # on X1(5): c = b, p7 = c^19, p10 = 0, d = c^5 (c^2 - 11 c - 1)
    exp = _expansion(5, 75)
    assert exp.b.agrees_with(exp.c)
    assert exp.p(7).agrees_with(exp.c.pow_int(19))
    assert exp.p(10).is_zero
    dpoly = C ** 5 * (C ** 2 - 11 * C - 1)
    assert exp.d.agrees_with(exp.eval_poly(dpoly))


def test_n6_series_identities_from_table():
    # on X1(6): p9 = c^33 (c+1)^27
    exp = _expansion(6, 120)
    c1 = exp.c + 1
    assert exp.p(9).agrees_with(exp.c.pow_int(33) * c1.pow_int(27))
    assert check_p_consistency(6, 9, 120)


def test_p_consistency_vanishing_rows():
    exp = _expansion(5, 75)
    assert p_consistency_report(5, 10, expansion=exp)["pass"]
    assert p_consistency_report(5, 5, expansion=exp)["pass"]


def test_p_consistency_all_small_levels():
    for N in range(4, 13):
        exp = _expansion(N, 15 * N)
        for n in range(1, N // 2 + 3):
            assert p_consistency_report(N, n, expansion=exp)["pass"], (N, n)


def test_d_consistency():
    exp5 = _expansion(5, 75)
    assert d_consistency_report(5, expansion=exp5)["pass"]
    assert check_d_consistency(6, 90)
    assert check_d_consistency(8, 96)


def test_express2_series():
    for N in range(4, 13):
        assert express2_series_report(N, 10 * N)["pass"], N


def test_report_records_failure_exponent():
    # a deliberately wrong identity must fail with a located exponent
    exp = _expansion(5, 40)
    bad = exp.eval_poly(B - C - 1)
    from modunits.curve_series import _vanishing_report

    r = _vanishing_report("defining_equation", 5, 40, bad)
    assert not r["pass"]
    assert r["firstFailingExponent"] == "0"


def test_expansion_validation():
    with pytest.raises(ValueError):
        expand_curve(3, 10)
    with pytest.raises(ValueError):
        CurveExpansion(5, 0)
