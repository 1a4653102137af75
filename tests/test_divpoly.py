import hashlib
import io
import random

import pytest

from modunits import cli

from modunits.bivar_poly import (
    B,
    C,
    ONE,
    ZERO,
    BivarPoly,
    div_exact,
    gcd,
    remove_common,
)
from modunits.divpoly import (
    D_COFACTOR,
    DISCRIMINANT,
    DivPolyCache,
    FactorizationIncomplete,
)
from support import DIVPOLY, QUARTIC, compose, divpoly_sequential, factor_P_over_F_by_trial_division

# the printed tables, in factored form
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


def test_p_table():
    cache = DivPolyCache()
    for n, expected in P_TABLE.items():
        assert cache.P(n) == expected, "P_%d" % n


def test_f_table():
    cache = DivPolyCache()
    for n, expected in F_TABLE.items():
        assert cache.F(n) == expected, "F_%d" % n


def test_f2():
    f2 = DivPolyCache().F(2)
    assert f2.num == B
    assert f2.den == QUARTIC
    # cross-multiplied identity: F_2 = B^4 / D
    assert f2.num * DISCRIMINANT == B ** 4 * f2.den


def test_oddness():
    cache = DivPolyCache()
    for n in range(0, 13):
        assert cache.P(-n) == -cache.P(n)
    assert cache.P(-3) == B ** 3


def test_discriminant_structure():
    d = DISCRIMINANT
    assert d.coefficient(3, 4) == 1
    # N=5 and N=6 specialisations of D from the example tables
    c = B  # use the B slot as the univariate c
    assert compose(d, c, c) == c ** 5 * (c ** 2 - 11 * c - 1)
    assert compose(d, c * (c + 1), c) == c ** 6 * (c + 1) ** 3 * (9 * c + 1)


def test_recurrence_identity_random_indices():
    # psi_{m+n} psi_{m-n} psi_k^2 = psi_{m+k} psi_{m-k} psi_n^2 - psi_{n+k} psi_{n-k} psi_m^2
    rng = random.Random(7)
    cache = DivPolyCache()
    for _ in range(25):
        k, m, n = (rng.randint(1, 12) for _ in range(3))
        lhs = cache.P(m + n) * cache.P(m - n) * cache.P(k) ** 2
        rhs = (
            cache.P(m + k) * cache.P(m - k) * cache.P(n) ** 2
            - cache.P(n + k) * cache.P(n - k) * cache.P(m) ** 2
        )
        assert lhs == rhs, (k, m, n)


def test_f_coprime_to_discriminant_and_earlier_p():
    cache = DivPolyCache()
    for n in range(4, 11):
        fn = cache.F(n)
        assert gcd(fn, DISCRIMINANT).is_constant
        for d in range(2, n):
            assert gcd(fn, cache.P(d)).is_constant


def test_f_matches_remove_common_oracle():
    # the GCD path strips everything P_n shares with D and every earlier P_d
    cache = DivPolyCache()
    for n in range(4, 15):
        mods = [DISCRIMINANT] + [cache.P(d) for d in range(2, n)]
        assert cache.F(n) == remove_common(cache.P(n), mods), "F_%d" % n


def _from_sympy(poly):
    return BivarPoly({(i, j): int(c) for (i, j), c in poly.terms()})


def test_p_factors_along_divisors_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    b, c = sympy.symbols("B C")
    cache = DivPolyCache()
    for n in range(4, 13):
        expr = sum(
            coeff * b ** i * c ** j for (i, j), coeff in cache.P(n).terms.items()
        )
        _, factors = sympy.factor_list(expr, b, c)
        got = sorted(
            (repr(_from_sympy(sympy.Poly(f, b, c)).primitive_positive()), m)
            for f, m in factors
        )
        # a_n = round(n^2 / 3) is observed, not derived here
        want = [(repr(B), round(n * n / 3))] + [
            (repr(cache.F(d)), 1) for d in range(4, n + 1) if n % d == 0
        ]
        assert got == sorted(want), "P_%d" % n


def test_f_guard_rejects_broken_structure():
    cache = DivPolyCache()
    p12 = cache.P(12)
    # F_6 divided out of P_12 beforehand: the division by F_6 fails
    cache._P[12] = div_exact(p12, cache.F(6)) * (C + 7)
    with pytest.raises(FactorizationIncomplete):
        cache.F(12)
    # an extra quartic factor of D survives every division
    cache._P[12] = p12 * D_COFACTOR
    with pytest.raises(FactorizationIncomplete):
        cache.F(12)
    cache._P[12] = p12
    assert cache.F(12) == DivPolyCache().F(12)


N5_TABLE = {
    1: (0, 1),
    2: (1, -1),
    3: (3, -1),
    4: (6, 1),
    5: None,
    6: (14, -1),
    7: (19, 1),
    8: (25, 1),
    9: (32, -1),
    10: None,
}

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


def test_specialisation_table_n5():
    c = B
    cache = DivPolyCache()
    for n, row in N5_TABLE.items():
        got = compose(cache.P(n), c, c)
        if row is None:
            assert got == ZERO, "p_%d" % n
        else:
            e, sign = row
            assert got == sign * c ** e, "p_%d" % n


def test_specialisation_table_n6():
    c = B
    cache = DivPolyCache()
    for n, row in N6_TABLE.items():
        got = compose(cache.P(n), c * (c + 1), c)
        if row is None:
            assert got == ZERO, "p_%d" % n
        else:
            a, b, sign = row
            assert got == sign * c ** a * (c + 1) ** b, "p_%d" % n


def test_factor_p_over_f_examples():
    cache = DivPolyCache()
    assert cache.factor_P_over_F(8) == (1, {3: 21, 4: 1, 8: 1})
    assert cache.factor_P_over_F(6) == (-1, {3: 12, 6: 1})
    assert cache.factor_P_over_F(2) == (-1, {3: 1})


def test_factor_p_over_f_reconstructs():
    cache = DivPolyCache()
    for n in range(2, 13):
        sign, exps = cache.factor_P_over_F(n)
        prod = BivarPoly({(0, 0): sign})
        for d, a in exps.items():
            base = DISCRIMINANT if d == "D" else cache.F(d)
            assert a > 0
            prod = prod * base ** a
        assert prod == cache.P(n), "P_%d reconstruction" % n


def test_factor_p_over_f_matches_trial_division():
    # the closed form never searches; trial division over F_4..F_n, B and the
    # quartic of D finds the same exponents and sign
    cache = DivPolyCache()
    for n in range(2, 31):
        assert cache.factor_P_over_F(n) == factor_P_over_F_by_trial_division(cache, n), n


def test_b_valuation_of_p_d():
    # a_d, the lowest power of B in P_d that the divisor walk shifts out, is
    # floor(d^2 / 3); the generator vectors of ROADMAP item 4 are built on it
    for d in range(2, 46):
        assert DIVPOLY.factor_P_over_F(d)[1][3] == d * d // 3, d


def test_factor_p_over_f_rejects_a_corrupted_divisor():
    cache = DivPolyCache()
    cache.factor_P_over_F(12)
    f4 = cache._F[4]
    # a proper F_d that does not divide P_n stops the walk
    cache._F[4] = C + 1
    with pytest.raises(FactorizationIncomplete):
        cache.factor_P_over_F(12)
    # one that divides but is not F_4 leaves a cofactor other than +-F_12
    cache._F[4] = ONE
    with pytest.raises(FactorizationIncomplete):
        cache.factor_P_over_F(12)
    # a multiple of F_4 takes more than P_12 has
    cache._F[4] = f4 * B
    with pytest.raises(FactorizationIncomplete):
        cache.factor_P_over_F(12)
    cache._F[4] = f4
    assert cache.factor_P_over_F(12) == (-1, {3: 48, 4: 1, 6: 1, 12: 1})


def test_range_guard():
    # the top-down build reaches only indices below n, never past it; the
    # size guard on a requested n is the poly command's (tests/test_cli.py)
    cache = DivPolyCache()
    cache.P(45)
    assert max(cache._P) == 45


def test_top_down_matches_sequential_fill():
    want = divpoly_sequential(40)
    cache = DivPolyCache()
    for n in (40, 33, 17):
        assert cache.P(n) == want[n], "P_%d" % n
    for n in range(41):
        assert cache.P(n) == want[n], "P_%d" % n
        assert DivPolyCache().P(-n) == -want[n], "P_-%d" % n


# sha256 of the stdout of `modunits poly <kind> --n <n>`, as printed when
# P_n was filled upward through every index and multiplied term by term
POLY_SHA256 = {
    ("F", 4): "12f37a8a84034d3e623d726fe10e5031f4df997ac13f4d5571b5a90c41fb84fe",
    ("F", 5): "2c57b0994f19b10097fafd38a9950740f380dcc71537ddde653c229d5844ef72",
    ("F", 6): "e8b19d163eff0ebc4429bb9d81fbb1047f782e5e7d13c850a07c0b6bf71cc056",
    ("F", 7): "b289ae2a587f0be8f1c90a098841069f8047ee5efe9fd58de78fc50249799938",
    ("F", 8): "4fe4b375b3c875c1c268416db9fd12bae8875d55c8b35d8c5699c3c7c3ff4b9d",
    ("F", 9): "09f33618258a94000a2aa206238c89007843b839d7ba09d070e2e49514432542",
    ("F", 10): "698ef9bddf745846653c144418be0e65450cd19da59bf7aa883c4acd61fd2998",
    ("F", 11): "36f918ee9943640ea634ec68c54e428c465acfe02e2593a4ba0094a61e2b26b5",
    ("F", 12): "e8db1dc02425e7aad6cf778833e181e01ce62977e1270645e93962579bea445a",
    ("F", 13): "d335d288eeb3a71cebcc5a5178a2653fcb070ef7fc101422ee992c745cdc742a",
    ("F", 14): "6da32cca99016d454e3653c366b2cf4e861569c2b041b42f44b062aea671d548",
    ("F", 15): "0612bedafd54251de929f80563d61c84d12279ddff7686107c02cbd0441ba0e4",
    ("F", 16): "749f73968a08082ceedbb40a198443ac118af752b2dbf0237f97a0c9e5cd9b6c",
    ("P", 45): "b907d13c9e269177ad2f0c24ea594f19960608d80e0ccdf6fdcb49126d7da1e4",
}


@pytest.mark.parametrize("kind, n", sorted(POLY_SHA256))
def test_poly_stdout_pinned(kind, n):
    out = io.StringIO()
    assert cli.main(["poly", kind, "--n", str(n)], out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == POLY_SHA256[kind, n]


def test_f_needs_n_at_least_2():
    with pytest.raises(ValueError):
        DivPolyCache().F(1)
