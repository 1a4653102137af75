"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s -v` to see the per-criterion
lines and timings.
"""

import io
import json
import random
import time
from math import gcd as int_gcd

from modunits import cli
from modunits.bivar_poly import B, C, ONE, poly_to_obj, render_obj, render_poly
from modunits.curve_series import (
    defining_equation_report,
    expand_curve,
    express2_series_report,
    p_consistency_report,
)
from modunits.divpoly import DISCRIMINANT, DivPolyCache
from modunits.qseries import QSeries
from modunits.siegel import h_star, product_lead_exponent, product_series
from modunits.unit_lattice import (
    basis_S,
    d_to_h,
    decompose_series,
    expand_p_expression,
    lattice_index,
    p_to_h,
    t_to_h,
    to_p_expression,
    v_to_h,
)
from support import coefficient_gcd, compose, dense_h_star, random_vector_in_S


def _report(num, name, ok, elapsed, budget=None):
    stamp = "%.2fs" % elapsed
    if budget is not None:
        ok = ok and elapsed < budget
        stamp += " / budget %ds" % budget
    print("ACCEPTANCE %02d %-26s %s  (%s)" % (num, name, "PASS" if ok else "FAIL", stamp))
    assert ok, "criterion %d (%s) failed" % (num, name)


P_TABLE = {
    1: ONE,
    2: -B,
    3: -(B ** 3),
    4: C * B ** 5,
    5: -(-B + C) * B ** 8,
    6: -(B ** 12) * (C ** 2 - B + C),
    7: B ** 16 * (C ** 3 - B ** 2 + B * C),
    8: C * B ** 21 * (B * C ** 2 - 2 * B ** 2 + 3 * B * C - C ** 2),
}

F_TABLE = {
    3: B,
    4: C,
    5: C - B,
    6: C ** 2 - B + C,
    7: C ** 3 - B ** 2 + B * C,
    8: B * C ** 2 - 2 * B ** 2 + 3 * B * C - C ** 2,
}


def test_criterion_01_polynomial_tables():
    start = time.monotonic()
    cache = DivPolyCache()
    ok = True
    for n, expected in P_TABLE.items():
        got = cache.P(n)
        ok = ok and got == expected and render_poly(got) == render_poly(expected)
    for n, expected in F_TABLE.items():
        got = cache.F(n)
        ok = ok and got == expected and render_poly(got) == render_poly(expected)
    f2 = cache.F(2)
    quartic = (
        C ** 4 - 8 * B * C ** 2 - 3 * C ** 3 + 16 * B ** 2 - 20 * B * C
        + 3 * C ** 2 + B - C
    )
    ok = ok and f2.num == B and f2.den == quartic
    ok = ok and render_obj(poly_to_obj(f2)) == "%s / (%s)" % (render_poly(B), render_poly(quartic))
    _report(1, "polynomial tables", ok, time.monotonic() - start, budget=1)


N5_TABLE = {
    1: ONE,
    2: -B,
    3: -(B ** 3),
    4: B ** 6,
    5: None,
    6: -(B ** 14),
    7: B ** 19,
    8: B ** 25,
    9: -(B ** 32),
    10: None,
}


def test_criterion_02_n5_table():
    start = time.monotonic()
    cache = DivPolyCache()
    c = B  # the B slot plays the univariate variable c
    ok = True
    for n, expected in N5_TABLE.items():
        got = compose(cache.P(n), c, c)
        ok = ok and (got.is_zero if expected is None else got == expected)
    ok = ok and compose(DISCRIMINANT, c, c) == c ** 5 * (c ** 2 - 11 * c - 1)
    _report(2, "N=5 table", ok, time.monotonic() - start, budget=1)


N6_TABLE = {
    1: (0, 0, 1),
    2: (1, 1, -1),
    3: (3, 3, -1),
    4: (6, 5, 1),
    5: (10, 8, 1),
    6: None,
    7: (20, 16, -1),
    8: (26, 21, -1),
    9: (33, 27, 1),
    10: (41, 33, 1),
}


def test_criterion_03_n6_table():
    start = time.monotonic()
    cache = DivPolyCache()
    c = B
    ok = True
    for n, row in N6_TABLE.items():
        got = compose(cache.P(n), c * (c + 1), c)
        if row is None:
            ok = ok and got.is_zero
        else:
            a, b, sign = row
            ok = ok and got == sign * c ** a * (c + 1) ** b
    ok = ok and compose(DISCRIMINANT, c * (c + 1), c) == c ** 6 * (c + 1) ** 3 * (
        9 * c + 1
    )
    _report(3, "N=6 table", ok, time.monotonic() - start, budget=1)


def test_criterion_04_defining_equation():
    start = time.monotonic()
    ok = True
    for N in range(4, 13):
        ok = ok and defining_equation_report(expand_curve(N, 15 * N))["pass"]
    _report(4, "defining equation series", ok, time.monotonic() - start, budget=30)


def test_criterion_05_p_consistency():
    start = time.monotonic()
    ok = True
    for N in range(4, 13):
        expansion = expand_curve(N, 15 * N)
        for n in range(1, N // 2 + 3):
            ok = ok and p_consistency_report(expansion, n)["pass"]
    _report(5, "p_n series consistency", ok, time.monotonic() - start, budget=60)


def test_criterion_06_express2_series():
    start = time.monotonic()
    ok = True
    for N in range(4, 13):
        ok = ok and express2_series_report(expand_curve(N, 15 * N))["pass"]
    _report(6, "p_{m+1} = v p_partner", ok, time.monotonic() - start)


def _sample(N, count, seed):
    rng = random.Random("acceptance:%d:%d" % (seed, N))
    return [random_vector_in_S(rng, N, bound=5) for _ in range(count)]


def test_criterion_07_decomposition_round_trip():
    start = time.monotonic()
    ok = True
    for N in (5, 7, 8, 11, 12):
        m = N // 2
        for vec in _sample(N, 100, seed=0):
            fstar = product_series(vec, m + 2).fstar
            ok = ok and decompose_series(fstar, N) == vec
    _report(7, "decomposition round-trip", ok, time.monotonic() - start, budget=60)


def test_criterion_08_dictionary_round_trip():
    start = time.monotonic()
    ok = True
    for N in (5, 7, 8, 11, 12):
        for vec in _sample(N, 100, seed=0):
            sign, back = expand_p_expression(to_p_expression(vec))
            ok = ok and sign == 1 and back == vec
    _report(8, "dictionary round-trip", ok, time.monotonic() - start)


def test_criterion_09_lattice_rank():
    start = time.monotonic()
    ok = True
    for N in range(4, 101):
        basis = basis_S(N)
        m = N // 2
        M = N * int_gcd(N, 2)
        ok = ok and len(basis) == m
        # HNF pivots on the diagonal certify independence
        ok = ok and all(basis[i].e[i] != 0 for i in range(m))
        for vec in basis:
            ok = ok and vec.sum1 % 12 == 0 and vec.sum2 % M == 0
    _report(9, "lattice rank 4..100", ok, time.monotonic() - start, budget=5)


def test_criterion_10_ledger_values():
    start = time.monotonic()
    ok = True
    for N in list(range(7, 21)) + [31, 40]:
        M = N * int_gcd(N, 2)
        ok = ok and t_to_h(N).ledger == (0, -1)
        ok = ok and d_to_h(N).ledger == (12, 0)
        ok = ok and v_to_h(N).ledger == (0, -M)
        for n in range(1, N // 2 + 1):
            sign, vec = p_to_h(n, N)
            ok = ok and sign == 1 and vec.ledger == (0, 0)
    for N in (4, 5, 6):
        M = N * int_gcd(N, 2)
        for vec, want in (
            (t_to_h(N), (0, -1)),
            (d_to_h(N), (12, 0)),
            (v_to_h(N), (0, -M)),
        ):
            got = vec.ledger
            ok = ok and (got[0] - want[0]) % 12 == 0 and (got[1] - want[1]) % M == 0
        for n in range(1, N // 2 + 1):
            _, vec = p_to_h(n, N)
            ok = ok and vec.sum1 % 12 == 0 and vec.sum2 % M == 0
    _report(10, "ledger values", ok, time.monotonic() - start)


def test_criterion_11_integrality_and_gauss():
    start = time.monotonic()
    ok = True
    for N in range(4, 25):
        for k in range(1, N // 2 + 1):
            ok = ok and list(h_star(k, N, 3 * N).coeffs) == dense_h_star(k, N, 3 * N)
    rng = random.Random("acceptance:gauss")
    trials = 0
    while trials < 100:
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
        if not a[0] or not b[0]:
            continue
        cap = len(a) + len(b)
        f = QSeries(1, 0, a + [0] * (cap - len(a)), cap)
        g = QSeries(1, 0, b + [0] * (cap - len(b)), cap)
        if not (coefficient_gcd(f) == coefficient_gcd(g) == 1):
            continue
        trials += 1
        ok = ok and coefficient_gcd(f * g) == 1
    _report(11, "integrality and Gauss lemma", ok, time.monotonic() - start)


def test_criterion_12_leading_exponent_constraint():
    start = time.monotonic()
    ok = True
    for N in range(4, 41):
        for vec in basis_S(N):
            # the leading exponent of the product lies in (1/N)Z
            ok = ok and (N * product_lead_exponent(vec)).denominator == 1
    _report(12, "leading-exponent constraint", ok, time.monotonic() - start)


def test_criterion_13_f24_divisor_path():
    # cold cache: P_1..P_24 and F_4..F_24 all computed inside the budget
    start = time.monotonic()
    cache = DivPolyCache()
    f24 = cache.F(24)
    sign, exps = cache.factor_P_over_F(24)
    elapsed = time.monotonic() - start
    ok = len(f24.terms) == 93 and f24.total_degree == 26
    ok = ok and exps == {3: 192, 4: 1, 6: 1, 8: 1, 12: 1, 24: 1}
    # the sign is whatever the computation found; it must rebuild P_24
    rebuilt = sign * B ** 192
    for d in (4, 6, 8, 12, 24):
        rebuilt = rebuilt * cache.F(d)
    ok = ok and sign in (1, -1) and rebuilt == cache.P(24)
    _report(13, "F_24 by divisor path", ok, elapsed, budget=2)


def test_criterion_14_basis_closed_form():
    # the budget keeps elimination off this path: the O(m^3) HNF of the
    # kernel took about 30 s over this range on a 2-core VM
    start = time.monotonic()
    ok = True
    for N in range(4, 301):
        basis = basis_S(N)
        ok = ok and len(basis) == N // 2 and lattice_index(N) == 12 * N * int_gcd(N, 2)
    _report(14, "basis and index 4..300", ok, time.monotonic() - start, budget=2)


def test_criterion_15_verify_level_30():
    # the budget keeps the b-power tower off the p_n checks: evaluating P_n
    # term by term took about 15 s at this level on a 2-core VM
    start = time.monotonic()
    out = io.StringIO()
    code = cli.main(["verify", "--N", "30", "--trials", "2"], out=out)
    ok = code == 0 and json.loads(out.getvalue())["pass"]
    _report(15, "verify level 30", ok, time.monotonic() - start, budget=8)
