import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modunits.qseries import QSeries
from modunits.siegel import (
    BadIndex,
    SiegelProduct,
    ZeroIndexError,
    fold_index,
    h_star,
    lead_exponent,
    product_series,
)
from modunits.unit_lattice import ExpVector, d_to_h, p_to_h, t_to_h, v_to_h
from support import (
    dense_h_star,
    dense_product_of_factors,
    product_series_by_powers,
    siegel_factor_exponents,
)


def test_h_star_reduced_leading_terms():
    # 1 - q^(1/5) + O(q^(4/5)): nothing else appears below 4/5
    h = h_star(1, 5, 4)
    assert list(h.coeffs) == [1, -1, 0, 0]
    # level-halving index: 1 - 2 q^(1/2) + O(q)
    for k in (2, 3, 5):
        h = h_star(k, 2 * k, 2 * k + 1)
        assert h.coeff(0) == 1 and h.coeff(k) == -2


def test_h_star_against_dense_oracle():
    for (k, N, prec) in [(2, 5, 7), (1, 5, 12), (3, 7, 20), (2, 4, 9), (4, 9, 30)]:
        assert list(h_star(k, N, prec).coeffs) == dense_h_star(k, N, prec), (k, N)


def test_h_star_2_5_frozen():
    # expansion of (1 - q^(2/5))(1 - q^(3/5)) below q^(7/5)
    assert list(h_star(2, 5, 7).coeffs) == [1, 0, -1, -1, 0, 1, 0]


def test_h_star_product_against_combined_oracle():
    # series product of the k=1 and k=2 reduced expansions at level 5 equals
    # the direct dense expansion of the merged factor lists
    from support import dense_product_of_factors, siegel_factor_exponents

    prec = 6
    prod = h_star(1, 5, prec) * h_star(2, 5, prec)
    merged = siegel_factor_exponents(1, 5, prec) + siegel_factor_exponents(2, 5, prec)
    assert list(prod.coeffs) == dense_product_of_factors(merged, prec)


def test_single_factor_lead_exponent():
    sp = product_series(ExpVector.unit(7, 1), 5)
    assert sp.ipow == 1
    assert sp.leadExp == Fraction(13, 588)
    lead, lead_exp, fstar = sp.fstar.reduced_form()
    assert (lead, lead_exp) == (1, 0) and fstar == sp.fstar


def test_product_lead_exponent_is_the_sum_of_lead_exponents():
    rng = random.Random(11)
    for N in range(4, 61):
        for _ in range(3):
            e = ExpVector(N, [rng.randint(-9, 9) for _ in range(N // 2)])
            want = sum(ek * lead_exponent(k, N) for k, ek in enumerate(e.e, start=1))
            assert product_series(e, 1).leadExp == want, (N, e.e)


def test_h_star_bad_index():
    with pytest.raises(BadIndex):
        h_star(0, 5, 4)
    with pytest.raises(BadIndex):
        h_star(3, 5, 4)
    with pytest.raises(BadIndex):
        h_star(1, 3, 4)


def test_h_star_integral_coefficients():
    for N in range(4, 25):
        for k in range(1, N // 2 + 1):
            assert h_star(k, N, 3 * N).is_integral(), (k, N)


def test_first_nonconstant_term():
    for N in range(4, 21):
        for k in range(1, N // 2 + 1):
            h = h_star(k, N, N + 1)
            want = -2 if 2 * k == N else -1
            assert h.coeff(k) == want
            assert all(h.coeff(j) == 0 for j in range(1, k))


def test_lead_exponent_values():
    assert lead_exponent(1, 7) == Fraction(13, 588)
    assert lead_exponent(2, 4) == Fraction(-1, 24)
    assert lead_exponent(5, 10) == Fraction(-1, 24)
    assert lead_exponent(1, 6) == Fraction(1, 72)


def test_fold_index_examples():
    # odd level: index m+1 folds onto m with positive sign
    for m in (2, 3, 5):
        N = 2 * m + 1
        assert fold_index(m + 1, N) == (m, 1)
    assert fold_index(6, 7) == (1, 1)
    for N in (5, 8, 11):
        assert fold_index(N + 1, N) == (1, -1)
    assert fold_index(-1, 9) == (1, -1)
    with pytest.raises(ZeroIndexError):
        fold_index(0, 5)
    with pytest.raises(ZeroIndexError):
        fold_index(14, 7)


@settings(max_examples=200)
@given(st.integers(4, 30), st.integers(-60, 60))
def test_fold_reflection_consistency(N, n):
    # h at (N-n)/N equals h at n/N, by composing negation and period shift
    if n % N == 0:
        return
    assert fold_index(n, N) == fold_index(N - n, N)


def test_product_series_zero_vector():
    sp = product_series(ExpVector.zero(7), 8)
    assert sp.ipow == 0 and sp.leadExp == 0
    assert sp.fstar == QSeries.one(7, 8)


def test_product_series_t_vector_lead_exponent():
    N = 7
    t = t_to_h(N)
    sp = product_series(t, 10)
    want = 2 * lead_exponent(1, N) - 3 * lead_exponent(2, N) + lead_exponent(3, N)
    assert sp.leadExp == want == Fraction(3, 49)


def test_product_series_d_vector():
    sp = product_series(d_to_h(7), 12)
    assert sp.ipow == 0
    assert sp.leadExp == 1
    assert sp.fstar.is_integral()


def test_product_series_homomorphism():
    N = 9
    e1 = ExpVector(N, (2, -1, 0, 3))
    e2 = ExpVector(N, (-1, 4, -2, 0))
    lhs = product_series(e1 + e2, 9)
    rhs = product_series(e1, 9) * product_series(e2, 9)
    assert lhs.ipow == rhs.ipow
    assert lhs.leadExp == rhs.leadExp
    assert lhs.fstar.agrees_with(rhs.fstar)


def test_siegel_product_json():
    sp = product_series(d_to_h(7), 6)
    obj = sp.to_obj()
    assert obj["ipow"] == 0
    assert obj["leadExp"] == "1"
    assert obj["fstar"]["denomN"] == 7


def assert_same_product(got, want):
    """Field-by-field equality, with the reduced series' coefficients plain
    ints on both sides."""
    for f in fields(got):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert all(type(c) is int for c in got.fstar.coeffs)
    assert all(type(c) is int for c in want.fstar.coeffs)
    assert type(got.scalar) is type(want.scalar) is Fraction


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_product_series_matches_powers_oracle(data):
    N = data.draw(st.integers(4, 40), label="N")
    m = N // 2
    e = data.draw(st.lists(st.integers(-300, 300), min_size=m, max_size=m), label="e")
    precN = data.draw(st.integers(1, 15 * N), label="precN")
    vec = ExpVector(N, tuple(e))
    assert_same_product(product_series(vec, precN), product_series_by_powers(vec, precN))


def test_product_series_dictionary_vectors_match_powers_oracle():
    # the p_n (n <= m + 2), d and v vectors that verify expands at N = 4..14,
    # and the zero vector, the constant 1 that skips the recurrence
    for N in range(4, 15):
        m = N // 2
        vecs = [d_to_h(N), v_to_h(N), ExpVector.zero(N)]
        for n in range(1, m + 3):
            folded = p_to_h(n, N)
            if folded is not None:
                vecs.append(folded[1])
        for vec in vecs:
            for precN in (1, 2, m + 2, 15 * N):
                assert_same_product(
                    product_series(vec, precN), product_series_by_powers(vec, precN)
                )
    # the divided vectors u / p_n and v / p_n of the p-checks at verify's
    # precision: entries of at most 3 in size (4 at N = 6, n = 5), the
    # recurrence's common case
    from support import recurrence_pairs

    for N in range(5, 15):
        for n in range(5, N // 2 + 3):
            divisor = p_to_h(n, N)[1]
            for pairs in recurrence_pairs(n):
                vec = ExpVector.zero(N) - divisor
                for k, r in pairs:
                    vec = vec + p_to_h(k, N)[1].scale(r)
                assert max(map(abs, vec.e)) <= 4, (N, n, vec)
                assert_same_product(
                    product_series(vec, 15 * N), product_series_by_powers(vec, 15 * N)
                )


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_product_series_nonnegative_matches_dense_oracle(data):
    N = data.draw(st.integers(4, 16), label="N")
    m = N // 2
    e = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m), label="e")
    precN = data.draw(st.integers(1, 5 * N), label="precN")
    factors = []
    for k, ek in enumerate(e, start=1):
        factors += siegel_factor_exponents(k, N, precN) * ek
    sp = product_series(ExpVector(N, tuple(e)), precN)
    assert list(sp.fstar.coeffs) == dense_product_of_factors(factors, precN)


def test_product_series_rejects_non_positive_precision():
    for vec in (ExpVector.zero(7), d_to_h(7)):
        for precN in (0, -3):
            with pytest.raises(ValueError):
                product_series(vec, precN)


def test_to_qseries_keeps_int_coefficients():
    # an integral scale multiplies the int coefficients as ints; the series is
    # the one the Fraction products give
    for N, vec in ((7, d_to_h(7)), (11, p_to_h(6, 11)[1]), (10, p_to_h(4, 10)[1])):
        sp = product_series(vec, 4 * N)
        shift = sp.leadExp * N
        for ipow, scalar in ((0, Fraction(1)), (2, Fraction(1)), (0, Fraction(-3)),
                             (2, Fraction(5, 2))):
            scaled = SiegelProduct(N, ipow, scalar, sp.leadExp, sp.fstar)
            qs = scaled.to_qseries()
            scale = scalar if ipow == 0 else -scalar
            want = QSeries(N, int(shift), [scale * c for c in sp.fstar.coeffs],
                           sp.fstar.precN + int(shift))
            assert qs == want
            if scale.denominator == 1:
                assert all(type(c) is int for c in qs.coeffs)
