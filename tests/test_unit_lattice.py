import random
from fractions import Fraction
from math import gcd as int_gcd

import pytest
from hypothesis import given, settings, strategies as st

from modunits.qseries import QSeries
from modunits.siegel import h_star, product_lead_exponent, product_series
from modunits.unit_lattice import (
    ExpVector,
    InsufficientPrecision,
    NotAUnitProduct,
    NotInS,
    PExpression,
    basis_S,
    d_to_h,
    decompose_series,
    expand_p_expression,
    is_in_S,
    lattice_index,
    p_to_h,
    t_to_h,
    to_p_expression,
    v_to_h,
)
from support import (
    basis_S_by_kernel,
    brute_force_membership,
    decompose_series_greedy,
    expand_p_expression_by_vectors,
    random_vector_in_S,
)


def test_is_in_S_examples():
    assert is_in_S(ExpVector(7, (36, -36, 12)))
    assert ExpVector(7, (36, -36, 12)).ledger == (12, 0)
    assert is_in_S(ExpVector.zero(11))
    assert not is_in_S(ExpVector(7, (1, 0, 0)))


def test_is_in_S_closure():
    rng = random.Random(3)
    for N in (5, 8, 9):
        for _ in range(10):
            a = random_vector_in_S(rng, N)
            b = random_vector_in_S(rng, N)
            assert is_in_S(a + b)
            assert is_in_S(-a)
            assert (a + b).ledger == (a.ledger[0] + b.ledger[0], a.ledger[1] + b.ledger[1])


def test_basis_rank_and_membership():
    for N in range(4, 41):
        basis = basis_S(N)
        assert len(basis) == N // 2
        for vec in basis:
            assert is_in_S(vec)


def test_basis_n5_congruences_and_membership():
    basis = basis_S(5)
    for vec in basis:
        e1, e2 = vec.e
        assert (e1 + e2) % 12 == 0
        assert (e1 + 4 * e2) % 5 == 0
    # (12, 12) lies in the span (oracle: brute-force coefficient search)
    combo = brute_force_membership((12, 12), [list(v.e) for v in basis])
    assert combo is not None
    x, y = combo
    b1, b2 = basis
    assert b1.scale(x) + b2.scale(y) == ExpVector(5, (12, 12))


def test_lattice_index_reported():
    for N in (5, 8, 12):
        idx = lattice_index(N)
        assert idx > 0
        basis = basis_S(N)
        det = 1
        for i, vec in enumerate(basis):
            det *= vec.e[i]
        assert abs(det) == idx


def test_basis_matches_elimination_oracle():
    for N in range(4, 61):
        assert basis_S(N) == basis_S_by_kernel(N), "N=%d" % N


def test_basis_is_canonical_hnf():
    for N in range(4, 301):
        basis = basis_S(N)
        rows = [vec.e for vec in basis]
        assert len(rows) == N // 2
        det = 1
        for i, row in enumerate(rows):
            assert not any(row[:i]), "row %d not upper triangular at N=%d" % (i, N)
            assert row[i] > 0
            det *= row[i]
            assert all(0 <= rows[r][i] < row[i] for r in range(i)), "N=%d col %d" % (N, i)
        assert all(is_in_S(vec) for vec in basis)
        assert lattice_index(N) == det == 12 * N * int_gcd(N, 2), "N=%d" % N


def test_dictionary_vectors_at_7():
    assert t_to_h(7).e == (2, -3, 1)
    assert t_to_h(7).ledger == (0, -1)
    assert d_to_h(7).e == (36, -36, 12)
    assert d_to_h(7).ledger == (12, 0)
    assert v_to_h(7).ledger == (0, -7)
    assert p_to_h(2, 7) == (1, ExpVector(7, (5, -8, 3)))


def test_t_folds_at_small_levels():
    assert t_to_h(5).e == (2, -2)
    assert t_to_h(4).e == (3, -3)
    # folding preserves the first ledger entry exactly and the second modulo
    # N*gcd(N,2): n -> N-n shifts k^2 by a multiple of that modulus
    for N, M in ((4, 8), (5, 5), (6, 12)):
        s1, s2 = t_to_h(N).ledger
        assert s1 == 0
        assert (s2 - (-1)) % M == 0


def test_ledger_values_exact_for_larger_levels():
    for N in range(7, 21):
        M = N * int_gcd(N, 2)
        assert t_to_h(N).ledger == (0, -1)
        assert d_to_h(N).ledger == (12, 0)
        assert v_to_h(N).ledger == (0, -M)
        for n in range(1, N // 2 + 1):
            sign, vec = p_to_h(n, N)
            assert sign == 1
            assert vec.ledger == (0, 0), (N, n)


def test_p_to_h_zero_function():
    assert p_to_h(5, 5) is None
    assert p_to_h(12, 6) is None
    with pytest.raises(ValueError):
        p_to_h(0, 5)


def test_express2_vector_identity():
    # p_{m+1} and v * p_partner have identical folded exponent vectors
    for N in range(4, 15):
        m = N // 2
        partner = m if N % 2 else m - 1
        s1, hi = p_to_h(m + 1, N)
        s2, lo = p_to_h(partner, N)
        assert s1 == 1 and s2 == 1
        assert hi == v_to_h(N) + lo, N


def test_to_p_expression_examples():
    p = to_p_expression(ExpVector(5, (12, 12)))
    assert (p.alpha, p.beta, p.pexp) == (2, 12, (12, 12))
    d7 = d_to_h(7)
    pd = to_p_expression(d7)
    assert (pd.alpha, pd.beta) == (1, 0)
    z = to_p_expression(ExpVector.zero(9))
    assert (z.alpha, z.beta, z.pexp) == (0, 0, (0, 0, 0, 0))
    with pytest.raises(NotInS):
        to_p_expression(ExpVector(7, (1, 0, 0)))


def test_dictionary_round_trip_random():
    rng = random.Random(11)
    for N in (5, 7, 8, 12):
        for _ in range(25):
            vec = random_vector_in_S(rng, N)
            sign, back = expand_p_expression(to_p_expression(vec))
            assert sign == 1
            assert back == vec, (N, vec)


def test_decompose_trivial_cases():
    N = 5
    assert decompose_series(QSeries.one(N, 4), N) == ExpVector.zero(N)
    got = decompose_series(h_star(2, 5, 6), 5)
    assert got == ExpVector(5, (0, 1))


def test_decompose_round_trip_random():
    rng = random.Random(23)
    for N in (5, 8, 11):
        m = N // 2
        for _ in range(30):
            vec = random_vector_in_S(rng, N)
            fstar = product_series(vec, m + 2).fstar
            assert decompose_series(fstar, N) == vec, (N, vec)


def test_decompose_errors():
    N = 8
    with pytest.raises(InsufficientPrecision):
        decompose_series(QSeries.one(N, N // 2), N)
    with pytest.raises(NotAUnitProduct):
        decompose_series(QSeries.from_terms(N, {0: 2, 1: 1}, 6), N)
    # corrupt a genuine product above the scan window: the residual check trips
    vec = ExpVector(N, (12, 0, 0, 0))
    fstar = product_series(vec, N // 2 + 2).fstar
    bump = QSeries.from_terms(N, {0: 1, N // 2 + 1: 1}, N // 2 + 2)
    with pytest.raises(NotAUnitProduct):
        decompose_series(fstar * bump, N)
    # an odd coefficient at the halved index cannot come from a product
    odd = QSeries.from_terms(N, {0: 1, N // 2: 1}, N // 2 + 2)
    with pytest.raises(NotAUnitProduct):
        decompose_series(odd, N)
    with pytest.raises(ValueError):
        decompose_series(QSeries.one(5, 8), N)


def test_rationality_and_integrality_for_S_products():
    rng = random.Random(5)
    for N in (5, 8, 12):
        for _ in range(10):
            vec = random_vector_in_S(rng, N)
            sp = product_series(vec, N // 2 + 3)
            # sum of exponents is 0 mod 12, hence 0 mod 4
            assert sp.ipow % 2 == 0
            assert sp.ipow == 0
            assert sp.fstar.is_integral()


def _lead_on_grid(e):
    """Whether the leading exponent of the Siegel product of e lies in (1/N)Z."""
    return (e.N * product_lead_exponent(e)).denominator == 1


def test_leading_exponent_check():
    for N in (5, 8, 13):
        for vec in basis_S(N):
            assert _lead_on_grid(vec)
    assert _lead_on_grid(d_to_h(9))
    # direct arithmetic on a vector outside S: value 13/588 is not in (1/7)Z
    assert not _lead_on_grid(ExpVector(7, (1, 0, 0)))


@settings(max_examples=60)
@given(st.integers(4, 20), st.data())
def test_leading_exponent_check_on_S(N, data):
    basis = basis_S(N)
    coeffs = [data.draw(st.integers(-3, 3)) for _ in basis]
    vec = ExpVector.zero(N)
    for c, bvec in zip(coeffs, basis):
        vec = vec + bvec.scale(c)
    assert is_in_S(vec)
    assert _lead_on_grid(vec)


def test_exp_vector_json():
    vec = ExpVector(7, (5, -8, 3))
    assert ExpVector.from_obj(vec.to_obj()) == vec
    p = PExpression(5, 2, 12, (12, 12))
    assert PExpression.from_obj(p.to_obj()) == p


def test_exp_vector_validation():
    with pytest.raises(ValueError):
        ExpVector(7, (1, 2))
    with pytest.raises(ValueError):
        ExpVector(3, (1,))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotAUnitProduct:
        return NotAUnitProduct


@settings(max_examples=150, deadline=None)
@given(
    st.integers(4, 30),
    st.data(),
    st.sampled_from(["clean", "perturb", "fraction", "odd_half"]),
)
def test_decompose_matches_greedy_oracle(N, data, kind):
    m = N // 2
    vec = ExpVector(N, tuple(data.draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))))
    precN = data.draw(st.sampled_from([m + 1, m + 2, 2 * N, 5 * N]))
    coeffs = list(product_series(vec, precN).fstar.coeffs)
    if kind == "perturb":
        coeffs[data.draw(st.integers(1, precN - 1))] += data.draw(st.sampled_from([-2, -1, 1, 2]))
    elif kind == "fraction":
        coeffs[data.draw(st.integers(1, precN - 1))] += Fraction(1, 2)
    elif kind == "odd_half" and N % 2 == 0:
        # an odd multiplicity of (1 - q^(1/2)), which no integral product has
        coeffs[m] += 1
    fstar = QSeries(N, 0, coeffs, precN)
    got = _outcome(decompose_series, fstar, N)
    assert got == _outcome(decompose_series_greedy, fstar, N)
    if kind == "clean":
        assert got == vec
    elif kind == "fraction" or kind == "odd_half" and N % 2 == 0:
        assert got is NotAUnitProduct


@settings(max_examples=150, deadline=None)
@given(st.integers(4, 60), st.integers(-30, 30), st.integers(-30, 30), st.data())
def test_expand_p_expression_matches_vector_oracle(N, alpha, beta, data):
    # arbitrary exponents, over indices that may fold with a sign; p_n is the
    # zero function at n = 0 mod N, so those indices carry exponent 0
    pexp = data.draw(st.lists(st.integers(-9, 9), max_size=3 * N))
    pexp = tuple(0 if k % N == 0 else ek for k, ek in enumerate(pexp, start=1))
    p = PExpression(N, alpha, beta, pexp)
    assert expand_p_expression(p) == expand_p_expression_by_vectors(p)
