import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from modunits import qseries
from modunits.curve_series import expand_curve
from modunits.qseries import NotIntegral, QSeries, ZeroSeries, combination
from support import coefficient_gcd, combination_by_terms, dense_mul, series_mul_schoolbook


def geometric(N, precN):
    # 1/(1 - q^(1/N)) = 1 + q^(1/N) + q^(2/N) + ...
    return QSeries(N, 0, [1] * precN, precN)


def test_mul_disjoint_and_identity():
    f = QSeries.from_terms(5, {0: 1, 1: -1}, 6)  # 1 - q^(1/5)
    g = QSeries.from_terms(5, {0: 1, 1: 1}, 6)  # 1 + q^(1/5)
    prod = f * g
    assert prod.coeff(0) == 1 and prod.coeff(1) == 0 and prod.coeff(2) == -1
    one = QSeries.one(5, 6)
    assert (f * one) == f


def test_mul_precision_rule():
    f = QSeries(5, 2, [1, 1], 4)  # q^(2/5) + q^(3/5) + O(q^(4/5))
    g = QSeries(5, 1, [3], 2)  # 3 q^(1/5) + O(q^(2/5))
    prod = f * g
    assert prod.ord == 3
    assert prod.precN == min(4 + 1, 2 + 2)
    assert prod.coeffs == (3,)


def test_init_accepts_generators():
    f = QSeries(2, 1, (c for c in [0, 3, 6]), 4)
    assert f.ord == 2 and f.coeffs == (3, 6)
    with pytest.raises(TypeError, match=re.escape("got Fraction(1, 3)")):
        QSeries(2, 1, (c for c in [0, 2, Fraction(1, 3)]), 4)


@pytest.mark.parametrize("bad", [0.5, 0.1, 2.0, "1/2", "3", None, True,
                                 Fraction(1, 2), Fraction(4, 2)])
def test_init_refuses_coefficients_that_are_not_exact(bad):
    # series are over Z: a float, a string, a bool or a Fraction, even a
    # whole one, is refused rather than converted, and the message names it
    with pytest.raises(TypeError, match=re.escape("coefficients must be int, got %r" % (bad,))):
        QSeries(1, 0, [1, bad, 0], 3)
    with pytest.raises(TypeError):
        QSeries.from_terms(4, {0: 1, 2: bad}, 5)


@pytest.mark.parametrize("series", [
    QSeries(5, -2, [3, 0, -7, 1], 2),
    QSeries(3, 1, [-1, 4], 3),
    QSeries.zero(7, 10),
])
def test_repr_reads_back(series):
    assert eval(repr(series), {"QSeries": QSeries}) == series


def test_inv_geometric():
    f = QSeries.from_terms(7, {0: 1, 1: -1}, 9)
    assert f.inv() == geometric(7, 9)


def test_inv_monomial():
    f = QSeries.from_terms(5, {3: -1}, 8)
    g = f.inv()
    assert g.ord == -3 and g.precN == 2
    assert g.coeffs == (-1, 0, 0, 0, 0)


@pytest.mark.parametrize("lead", [2, -2, 3])
def test_inv_needs_a_unit_lowest_coefficient(lead):
    # over Z only +-1 is invertible: 1/2 has no integral inverse, so
    # constant term 2 (or a monomial 2 q^(3/5)) is refused, not rounded
    for f in (QSeries(5, 0, [lead, 1, 1], 3), QSeries.from_terms(5, {3: lead}, 8)):
        with pytest.raises(ValueError, match="not a unit of Z"):
            f.inv()
        with pytest.raises(ValueError):
            f.pow_int(-2)


def test_inv_h_half_series():
    # reduced series at (k/2k, 0) is (1-x)^2 (1-x^3)^2 ... in x = q^(1/2);
    # its inverse starts 1 + 2x + 3x^2 + 6x^3 (oracle: dense expansion)
    h = QSeries(2, 0, [1, -2, 1, -2], 4)
    inv = h.inv()
    expected = [1, 2, 3, 6]
    assert list(inv.coeffs) == expected
    # oracle check by re-multiplying densely
    assert dense_mul([1, -2, 1, -2], expected, 4) == [1, 0, 0, 0]


def test_pow_int():
    f = QSeries.from_terms(6, {0: 1, 1: 1}, 5)
    assert f.pow_int(0) == QSeries.one(6, 5)
    assert f.pow_int(1) == f
    q = QSeries.from_terms(6, {1: 1}, 8)
    assert q.pow_int(12).ord == 12
    assert (f.pow_int(3) * f.pow_int(-3)).first_difference(QSeries.one(6, 5)) is None


def test_pow_of_zero_series():
    z = QSeries.zero(5, 10)
    assert z.pow_int(3).is_zero
    assert z.pow_int(3).precN == 30
    with pytest.raises(ZeroSeries):
        z.pow_int(0)
    with pytest.raises(ZeroSeries):
        z.pow_int(-1)


def test_integral_and_primitive_flags():
    # integral: no series holds anything else; primitive: coefficient gcd 1
    # (the zero series is not)
    with pytest.raises(TypeError):
        QSeries.from_terms(1, {0: Fraction(1, 2), 1: Fraction(1, 2)}, 3)
    f = QSeries.from_terms(5, {0: 1, 1: -1}, 4)
    assert coefficient_gcd(f) == 1
    h = QSeries.from_terms(1, {0: 2, 1: 4}, 3)
    assert coefficient_gcd(h) == 2
    assert coefficient_gcd(QSeries.zero(1, 3)) == 0


def test_constant_absorbed_at_non_positive_precision():
    # q^(-7/5) + O(q^(-2/5)) and q^(-3/4) + O(1): the constant term is
    # beyond the tracked window, so adding one changes nothing
    for s in (QSeries.from_terms(5, {-7: 1}, -2), QSeries.from_terms(4, {-3: 1}, 0)):
        for c in (1, -3, 7):
            assert s + c == s
            assert c + s == s
            assert s - c == s
            assert c - s == -s
    zero = QSeries.zero(3, -1)
    assert zero + 2 == zero and 2 - zero == zero
    # at positive precision the constant is still added
    s = QSeries.from_terms(5, {-7: 1}, 1)
    assert (s + 2).coeff(0) == 2 and (s - 2).coeff(0) == -2
    # a Fraction is no scalar of a series over Z
    for op in (lambda: s + Fraction(1, 2), lambda: s - Fraction(2, 1),
               lambda: s * Fraction(1, 2), lambda: Fraction(1, 2) * s):
        with pytest.raises(TypeError):
            op()


def test_add_requires_matching_grid():
    f = QSeries.one(5, 4)
    g = QSeries.one(10, 8)
    for mixed in (lambda: f + g, lambda: f - g, lambda: g - f,
                  lambda: combination([(1, g), (2, f)])):
        with pytest.raises(ValueError):
            mixed()
    assert (QSeries.one(10, 8) + g).coeff(0) == 2


def test_json_round_trip():
    f = QSeries(5, -2, [-3, 0, 5 * 10 ** 40], 1)
    assert QSeries.from_obj(f.to_obj()) == f
    obj = f.to_obj()
    assert obj["coeffs"] == ["-3", "0", "5" + "0" * 40]
    # JSON ints are read too
    obj["coeffs"] = [-3, 0, 5 * 10 ** 40]
    assert QSeries.from_obj(obj) == f


@pytest.mark.parametrize("text", ["-3/4", "1/2", "7/3"])
def test_from_obj_refuses_a_reduced_fraction_as_not_integral(text):
    obj = QSeries.one(5, 3).to_obj()
    obj["coeffs"][1] = text
    with pytest.raises(NotIntegral, match="^series has a non-integral coefficient$"):
        QSeries.from_obj(obj)


@pytest.mark.parametrize("bad", ["2/4", "3/1", "1/0", "0/5", "-0", "+3", " 3", "03",
                                 "3/-4", "1e3", "0.5", "", "٣", True, 2.0, None])
def test_from_obj_refuses_what_to_obj_does_not_write(bad):
    # an input error, and not the non-integral verdict: unreduced, signed or
    # padded text is not what to_obj writes for any series
    obj = QSeries.one(5, 3).to_obj()
    obj["coeffs"][1] = bad
    with pytest.raises(ValueError, match="neither an int nor its canonical decimal string") as err:
        QSeries.from_obj(obj)
    assert not isinstance(err.value, NotIntegral)


series_st = st.tuples(
    st.integers(-3, 3), st.lists(st.integers(-5, 5), min_size=1, max_size=6)
).map(lambda t: QSeries(4, t[0], t[1], t[0] + len(t[1])))


@settings(max_examples=150)
@given(series_st, series_st, series_st)
def test_ring_laws_to_tracked_precision(f, g, h):
    assert (f + g).first_difference(g + f) is None
    assert ((f + g) + h).first_difference(f + (g + h)) is None
    assert (f * (g + h)).first_difference(f * g + f * h) is None
    assert ((f * g) * h).first_difference(f * (g * h)) is None


@settings(max_examples=100)
@given(series_st)
def test_mul_inv_is_one(f):
    assume(not f.is_zero)
    if f.coeffs[0] not in (1, -1):
        with pytest.raises(ValueError):
            f.inv()
        return
    prod = f * f.inv()
    assert prod.ord == 0 and prod.coeff(0) == 1
    assert all(c == 0 for c in prod.coeffs[1:])


# Gauss's lemma, on fully tracked polynomial windows: the product of
# primitive integer polynomials is primitive.
int_poly = st.lists(st.integers(-9, 9), min_size=1, max_size=8).filter(
    lambda cs: cs[0] != 0
)


@settings(max_examples=150)
@given(int_poly, int_poly)
def test_gauss_lemma_on_polynomials(a, b):
    cap = len(a) + len(b)  # window covers the full product support
    f = QSeries(1, 0, a + [0] * (cap - len(a)), cap)
    g = QSeries(1, 0, b + [0] * (cap - len(b)), cap)
    assume(coefficient_gcd(f) == coefficient_gcd(g) == 1)
    assert coefficient_gcd(f * g) == 1


def test_bounded_denominator_corollary_cases():
    # an integral product h = f * g with g integral of constant term 1 has an
    # integral cofactor: f = h * g.inv(), read back over Z on the window
    g = QSeries(1, 0, [1, -5, 0, 2], 4)
    for coeffs in ([1, 0, 0, 0], [1, 3, -2, 7], [2, -1, -1, -1], [0, 3, 1, 0]):
        h = QSeries(1, 0, coeffs, 4)
        f = h * g.inv()
        assert f * g == h
    assert h * g.inv() == QSeries(1, 1, [3, 16, 80], 4)


# the product kernel against the schoolbook oracle: small and wide int
# coefficients, zero series, unequal lengths and negative ords
coeff_st = st.one_of(st.integers(-20, 20), st.integers(-10 ** 30, 10 ** 30))
mixed_series_st = st.tuples(
    st.integers(-6, 6),
    st.one_of(
        st.lists(coeff_st, max_size=12),
        st.lists(st.just(0), min_size=1, max_size=5),
    ),
).map(lambda t: QSeries(3, t[0], t[1], t[0] + len(t[1])))


# the one linear routine and the operators on it against the dict oracle
int_series_st = st.tuples(
    st.integers(-4, 6), st.lists(st.integers(-5, 5), min_size=0, max_size=8)
).map(lambda t: QSeries(3, t[0], t[1], t[0] + len(t[1])))


@settings(max_examples=150)
@given(st.lists(st.tuples(st.integers(-9, 9).filter(bool), int_series_st), min_size=1, max_size=4))
def test_combination_matches_repeated_addition(terms):
    want = combination_by_terms(terms)
    assert combination(terms) == want
    total = terms[0][1] * terms[0][0]
    for coeff, s in terms[1:]:
        total = total + s * coeff
    assert total == want


@settings(max_examples=150)
@given(mixed_series_st, mixed_series_st, st.one_of(st.just(0), coeff_st))
def test_linear_operators_match_the_oracle(f, g, c):
    assert f + g == combination_by_terms([(1, f), (1, g)])
    assert f - g == combination_by_terms([(1, f), (-1, g)])
    assert -f == combination_by_terms([(-1, f)])
    assert f * c == c * f == combination_by_terms([(c, f)])
    assert combination([(c, f), (3, g)]) == combination_by_terms([(c, f), (3, g)])


@settings(max_examples=150)
@given(mixed_series_st, mixed_series_st)
def test_mul_matches_schoolbook_oracle(f, g):
    prod = f * g
    assert prod == series_mul_schoolbook(f, g)
    assert all(type(c) is int for c in prod.coeffs)


# -- the Kronecker path of QSeries.__mul__ -------------------------------------

# the shortest window the Kronecker path takes, and a slot width (in bits)
# that the tests below cross: slots of every width take that path
KMIN = 64
KBITS = 512

# windows on both sides of the Kronecker minimum: negative coefficients, runs
# of zeros, small and wide entries, one-coefficient and empty windows
window_coeff_st = st.one_of(
    st.just(0), st.integers(-3, 3), st.integers(-(2 ** 200), 2 ** 200)
)
long_window_st = st.one_of(
    st.lists(window_coeff_st, max_size=KMIN + 30),
    st.lists(window_coeff_st, min_size=KMIN - 2, max_size=KMIN + 2),
    st.lists(window_coeff_st, min_size=KMIN, max_size=2 * KMIN),
    st.lists(window_coeff_st, min_size=1, max_size=1),
    # runs of zeros between small coefficients
    st.lists(
        st.one_of(st.integers(-5, 5).map(lambda c: [c]), st.integers(1, 12).map(lambda r: [0] * r)),
        max_size=KMIN,
    ).map(lambda parts: sum(parts, [])),
)
long_series_st = st.one_of(
    st.tuples(st.integers(-6, 6), long_window_st).map(
        lambda t: QSeries(2, t[0], t[1], t[0] + len(t[1]))
    ),
    st.integers(-6, KMIN + 6).map(lambda p: QSeries.zero(2, p)),
)


@settings(max_examples=200, deadline=None)
@given(long_series_st, long_series_st)
def test_long_mul_matches_schoolbook_oracle(f, g):
    assert f * g == series_mul_schoolbook(f, g)
    assert f * f == series_mul_schoolbook(f, f)
    # the cancelling product (f + g)(f - g)
    s, d = f + g, f - g
    assert s * d == series_mul_schoolbook(s, d)


def _at_cap(n, abits, bits, sign):
    """Two windows of n ints whose slot bound max|f| * max|g| * n has exactly
    the given number of bits, with every coefficient at its extreme so that
    one product coefficient reaches the bound."""
    a = 2 ** abits - 1
    b = -(-(2 ** (bits - 1)) // (a * n))
    assert (a * b * n).bit_length() == bits
    return [a] * n, [sign * b if k % 2 else b for k in range(n)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(KMIN, KMIN + 40),
    st.integers(1, 300),
    st.sampled_from([KBITS - 1, KBITS, KBITS + 1]),
    st.sampled_from([1, -1]),
    st.integers(-4, 4),
)
def test_mul_at_the_slot_cap_matches_oracle(n, abits, bits, sign, ord_):
    fc, gc = _at_cap(n, abits, bits, sign)
    f = QSeries(3, ord_, fc, ord_ + n)
    g = QSeries(3, -ord_, gc + [1] * 5, n + 5 - ord_)
    assert f * g == series_mul_schoolbook(f, g)
    assert g * f == series_mul_schoolbook(g, f)
    assert -f * g == series_mul_schoolbook(-f, g)


def test_long_mul_cancels_to_a_monomial():
    n = 3 * KMIN
    geom = QSeries(2, -1, [1] * n, n - 1)
    one_minus_q = QSeries(2, 0, [1, -1] + [0] * (n - 2), n)
    assert geom * one_minus_q == QSeries.from_terms(2, {-1: 1}, n - 1)


def test_mul_of_real_operands_matches_oracle():
    e14 = expand_curve(14)
    for i in (1, 3, 6):
        bi = e14.b.pow_int(i)
        assert bi * e14.c == series_mul_schoolbook(bi, e14.c), i
    e30 = expand_curve(30)
    p5, p6 = e30.p(5), e30.p(6)
    assert p5 * p6 == series_mul_schoolbook(p5, p6)


def test_mul_takes_the_kronecker_path_on_narrow_int_windows(monkeypatch):
    calls = []

    def counted(fc, gc, bound):
        calls.append(len(fc))
        return kronecker(fc, gc, bound)

    kronecker = qseries._mul_kronecker
    monkeypatch.setattr(qseries, "_mul_kronecker", counted)

    def path(f, g):
        del calls[:]
        assert f * g == series_mul_schoolbook(f, g)
        return bool(calls)

    def series(coeffs, ord_=0):
        return QSeries(7, ord_, coeffs, ord_ + len(coeffs))

    small = [(-1) ** k * (k % 5) for k in range(1, KMIN + 40)]
    # narrow int windows at and above the minimum
    assert path(series(small[:KMIN]), series(small))
    assert path(series(small), series(small, -3))
    # the window length alone decides: short windows stay on the loop
    assert not path(series(small[: KMIN - 1]), series(small))
    assert not path(series(small), series(small[: KMIN - 1], 5))
    # slots of any width take the Kronecker path
    for n in (KMIN, KMIN + 17):
        fc, gc = _at_cap(n, 100, KBITS, -1)
        assert path(series(fc), series(gc))
        fc, gc = _at_cap(n, 100, KBITS + 1, -1)
        assert path(series(fc), series(gc))
    # real operands: b^i c at N = 14 is narrow, p_5 p_6 at N = 30 is wide
    e14 = expand_curve(14)
    assert path(e14.b.pow_int(3), e14.c)
    e30 = expand_curve(30)
    assert path(e30.p(5), e30.p(6))
