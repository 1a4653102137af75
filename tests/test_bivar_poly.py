import pytest
from hypothesis import assume, given, settings, strategies as st

from modunits.bivar_poly import (
    B,
    C,
    ONE,
    ZERO,
    BivarPoly,
    NotDivisible,
    RatPoly,
    div_exact,
    gcd,
    poly_from_obj,
    poly_to_obj,
    remove_common,
    render_poly,
)
from modunits import bivar_poly
from modunits.bivar_poly import _kronecker_frame, _mul_kronecker, pack_slots, unpack_slots
from support import QUARTIC, div_exact_rescan, mul_by_term_pairs, read_poly, sylvester_resultant_in_C

small_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(-9, 9),
    max_size=6,
).map(BivarPoly)

nonzero_polys = small_polys.filter(lambda p: not p.is_zero)

nonzero_ints = st.integers(-9, 9).filter(bool)
monomials = st.builds(
    lambda i, j, c: BivarPoly({(i, j): c}), st.integers(0, 4), st.integers(0, 4), nonzero_ints
)
constants = nonzero_ints.map(lambda c: BivarPoly({(0, 0): c}))


def _negative_lead(g):
    return g if g.leading_term()[1] < 0 else -g


divisors = st.one_of(
    nonzero_polys, nonzero_polys.map(_negative_lead), monomials, constants
)


def _quotient_or_error(div, f, g):
    try:
        return div(f, g)
    except NotDivisible:
        return NotDivisible


def test_add_examples():
    assert B + (-B) == ZERO
    assert C ** 2 - B + C == BivarPoly({(0, 2): 1, (1, 0): -1, (0, 1): 1})
    assert (B * C + 1) + (B * C - 1) == 2 * B * C


def test_mul_examples():
    assert B * C == BivarPoly({(1, 1): 1})
    assert (C - B) * (C + B) == C ** 2 - B ** 2
    assert (-B) ** 3 == -(B ** 3)


# sparse, wide-coefficient inputs for the Kronecker product: small and huge
# coefficients of both signs, pure-B and pure-C polynomials (with both factors
# pure-B every slot row has width W = 1), constants and zero
wide_coeffs = st.one_of(
    st.integers(-9, 9),
    st.integers(2 ** 200, 2 ** 300),
    st.integers(-(2 ** 300), -(2 ** 200)),
)


def _kronecker_polys(bdeg, cdeg, size):
    return st.dictionaries(
        st.tuples(st.integers(0, bdeg), st.integers(0, cdeg)), wide_coeffs, max_size=size
    ).map(BivarPoly)


kronecker_polys = st.one_of(
    _kronecker_polys(12, 12, 8),
    _kronecker_polys(40, 3, 5),
    _kronecker_polys(30, 0, 6),
    _kronecker_polys(0, 30, 6),
    _kronecker_polys(0, 0, 1),
    _kronecker_polys(5, 5, 36),
)


@settings(max_examples=200)
@given(kronecker_polys, kronecker_polys)
def test_kronecker_matches_term_pairs_oracle(f, g):
    assert _mul_kronecker(f, g) == mul_by_term_pairs(f, g)
    assert _mul_kronecker(f, f) == mul_by_term_pairs(f, f)


@settings(max_examples=100)
@given(kronecker_polys, kronecker_polys)
def test_kronecker_cancellation(f, g):
    # (f + g)(f - g) = f^2 - g^2: the cross terms cancel slot by slot
    prod = _mul_kronecker(f + g, f - g)
    assert prod == mul_by_term_pairs(f + g, f - g)
    assert prod == mul_by_term_pairs(f, f) - mul_by_term_pairs(g, g)


def _total_degree_frame_slots(f, g):
    """Slots of the packed product f * g in the unsheared frame (i + j, j),
    with degC counted from 0."""
    fs = [i + j for i, j in f.terms]
    gs = [i + j for i, j in g.terms]
    return (max(fs) - min(fs) + max(gs) - min(gs) + 1) * (f.deg_C + g.deg_C + 1)


@settings(max_examples=200)
@given(kronecker_polys, kronecker_polys)
def test_kronecker_frame_is_no_larger_than_the_total_degree_frame(f, g):
    assume(f and g)
    assert _kronecker_frame(f, g)[-1] <= _total_degree_frame_slots(f, g)
    assert _kronecker_frame(f, f)[-1] <= _total_degree_frame_slots(f, f)


def test_division_polynomial_products_take_the_steepest_frame():
    from modunits.divpoly import DivPolyCache

    # the largest product made while building P_45
    P = DivPolyCache().P
    f, g = P(24), P(22) ** 3
    a, _, _, _, slots = _kronecker_frame(f, g)
    assert (a, slots) == (-2, 3672)
    assert _total_degree_frame_slots(f, g) == 6426
    assert _mul_kronecker(f, g) == mul_by_term_pairs(f, g)
    # a polynomial along an axis keeps the unsheared frame
    line = 2 ** 200 * B ** 30 - 1
    assert _kronecker_frame(line, line)[0] == 0


@pytest.mark.parametrize("shears", [(0, -2), (-2,), (-1, -2)])
def test_kronecker_frame_boxes_follow_each_shear(monkeypatch, shears):
    # each frame's box is computed from its own shear, so the product is
    # right whichever shears are tried, not only the default (0, -1, -2)
    from modunits.divpoly import DivPolyCache

    P = DivPolyCache().P
    f, g = P(16), P(15)
    monkeypatch.setattr(bivar_poly, "_SHEARS", shears)
    assert _kronecker_frame(f, g)[0] in shears
    assert _mul_kronecker(f, g) == mul_by_term_pairs(f, g)


def test_kronecker_slot_bound_is_attained():
    # f = +-M (1 + B + ... + B^r): the B^r coefficient of f * f is (r + 1) M^2,
    # the bound itself, and M makes its bit length a whole number of bytes,
    # so only the slot's extra byte holds the sign
    r, M = 3, 2 ** 127 - 1
    top = (r + 1) * M * M
    assert top.bit_length() % 8 == 0
    f = M * sum((B ** t for t in range(r + 1)), ZERO)
    for g, h in ((f, f), (f, -f), (-f, f), (-f, -f)):
        assert bivar_poly._coefficient_bound(g, h) == top
        prod = _mul_kronecker(g, h)
        assert prod == mul_by_term_pairs(g, h)
        assert abs(prod.coefficient(r, 0)) == top


@settings(max_examples=100)
@given(
    st.integers(1, 6).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(-(2 ** (8 * k - 1)), 2 ** (8 * k - 1) - 1), max_size=40),
        )
    )
)
def test_slots_round_trip(case):
    # every slot value in the signed range comes back, the extremes included
    k, digits = case
    items = list(enumerate(digits))
    packed = pack_slots(reversed(items), len(digits), k)
    assert packed == sum(c << (8 * k * t) for t, c in items)
    assert unpack_slots(packed, len(digits), k) == [(t, c) for t, c in items if c]
    # the digits above the requested slots are dropped, carries and all
    low = len(digits) // 2
    assert unpack_slots(packed, low, k) == [(t, c) for t, c in items[:low] if c]


def test_kronecker_examples():
    assert _mul_kronecker(ZERO, B) == ZERO
    assert _mul_kronecker(C, ZERO) == ZERO
    assert _mul_kronecker(BivarPoly({(0, 0): -3}), ONE) == -3
    # every middle term cancels
    geometric = sum((B ** t * C ** (7 - t) for t in range(8)), ZERO)
    assert _mul_kronecker(C - B, geometric) == C ** 8 - B ** 8
    assert _mul_kronecker(B - C, B + C) == B ** 2 - C ** 2
    # a coefficient whose bound fills its slot's top byte
    big = BivarPoly({(0, 0): 2 ** 255 - 1, (1, 0): -(2 ** 255 - 1)})
    assert _mul_kronecker(big, big) == mul_by_term_pairs(big, big)


def test_mul_takes_the_kronecker_path_above_the_cutoff(monkeypatch):
    from modunits.divpoly import DivPolyCache

    P = DivPolyCache().P
    p13, p12, p20, p18 = P(13), P(12), P(20), P(18)
    calls = []

    def counted(f, g, *frame):
        calls.append((len(f.terms), len(g.terms)))
        return _mul_kronecker(f, g, *frame)

    monkeypatch.setattr(bivar_poly, "_mul_kronecker", counted)
    assert len(p13.terms) * len(p12.terms) < bivar_poly._KRONECKER_MIN_PAIRS
    assert p13 * p12 == mul_by_term_pairs(p13, p12)
    assert not calls
    assert p20 * p18 == mul_by_term_pairs(p20, p18)
    assert calls == [(len(p20.terms), len(p18.terms))]
    # sparse operands spread over a wide degree range stay on the dict loop
    sparse = sum((B ** (40 * t) * C ** (41 * t) for t in range(30)), ONE)
    assert sparse * sparse == mul_by_term_pairs(sparse, sparse)
    assert len(calls) == 1


def test_mul_takes_the_dict_path_between_the_break_even_and_half_a_slot(monkeypatch):
    # on random sparse operands the Kronecker path loses to the dict loop
    # from about 0.4 slots per pair on, so a product at 0.46 stays on the
    # dict loop although its packed form has under one slot per two pairs
    f = BivarPoly({(t % 9, t * t % 11): t + 1 for t in range(40)})
    g = BivarPoly({(3 * t % 9, t % 11): t + 2 for t in range(40)})
    pairs = len(f.terms) * len(g.terms)
    assert pairs >= bivar_poly._KRONECKER_MIN_PAIRS
    assert 0.4 < _kronecker_frame(f, g)[-1] / pairs <= 0.5
    calls = []

    def counted(f, g, *frame):
        calls.append((len(f.terms), len(g.terms)))
        return _mul_kronecker(f, g, *frame)

    monkeypatch.setattr(bivar_poly, "_mul_kronecker", counted)
    assert f * g == mul_by_term_pairs(f, g)
    assert not calls


def test_div_exact_examples():
    assert div_exact(B ** 2 * C, B) == B * C
    # recurrence intermediate: (P4*P2^2 - P0*P3^2) / P2 * P1 = -C*B^6
    num = (C * B ** 5) * (-B) ** 2 - ZERO * (-(B ** 3)) ** 2
    assert div_exact(num, -B) * ONE == -C * B ** 6
    with pytest.raises(NotDivisible):
        div_exact(C, B)
    with pytest.raises(NotDivisible):
        div_exact(B ** 2, 2 * B)


@settings(max_examples=100)
@given(small_polys, divisors)
def test_div_exact_recovers_factor(f, g):
    assert div_exact(f * g, g) == f
    assert div_exact_rescan(f * g, g) == f


@settings(max_examples=100)
@given(small_polys, divisors)
def test_div_exact_rejects_non_multiples(f, g):
    assume(not (g.is_constant and abs(g.constant()) == 1))
    # f*g + 1 is divisible by g only when g is a unit
    with pytest.raises(NotDivisible):
        div_exact(f * g + 1, g)
    with pytest.raises(NotDivisible):
        div_exact_rescan(f * g + 1, g)


@settings(max_examples=100)
@given(nonzero_polys, divisors, st.integers(2, 5))
def test_div_exact_rejects_non_integral_quotient(f, g, k):
    assume(f.int_content() % k)
    with pytest.raises(NotDivisible):
        div_exact(f * g, k * g)


@settings(max_examples=150)
@given(small_polys, divisors)
def test_div_exact_matches_rescan_oracle(f, g):
    # arbitrary pairs, mostly non-multiples: same quotient or same refusal
    assert _quotient_or_error(div_exact, f, g) == _quotient_or_error(div_exact_rescan, f, g)


def test_gcd_examples():
    assert gcd(B ** 2 * C, B * C ** 2) == B * C
    p6 = -(B ** 12) * (C ** 2 - B + C)
    assert gcd(p6, -B) == B
    assert gcd(C ** 2 - B + C, C - B) == ONE


def test_gcd_coprimality_matches_resultant_oracle():
    f = C ** 2 - B + C
    g = C - B
    res = sylvester_resultant_in_C(f, g)
    assert not res.is_zero
    assert gcd(f, g).is_constant


def test_remove_common_examples():
    from modunits.divpoly import DISCRIMINANT, DivPolyCache

    P = DivPolyCache().P
    assert remove_common(P(6), [DISCRIMINANT] + [P(d) for d in range(2, 6)]) == (
        C ** 2 - B + C
    )
    assert remove_common(P(8), [DISCRIMINANT] + [P(d) for d in range(2, 8)]) == (
        B * C ** 2 - 2 * B ** 2 + 3 * B * C - C ** 2
    )
    assert remove_common(B ** 3, [B]) == ONE


def test_canonical_text_form():
    f = B * C ** 2 - 2 * B ** 2 + 3 * B * C - C ** 2
    assert render_poly(f) == "B*C^2 - 2*B^2 + 3*B*C - C^2"
    assert render_poly(-(B ** 3)) == "-B^3"
    assert render_poly(ZERO) == "0"
    assert render_poly(BivarPoly({(0, 0): -7})) == "-7"


def test_parse_round_trip_table_strings():
    for text, f in [
        ("B*C^2 - 2*B^2 + 3*B*C - C^2", B * C ** 2 - 2 * B ** 2 + 3 * B * C - C ** 2),
        ("-B^3", -(B ** 3)),
        ("C^4 - 8*B*C^2 - 3*C^3 + 16*B^2 - 20*B*C + 3*C^2 + B - C", QUARTIC),
        ("0", ZERO),
        ("16", 16 * ONE),
        ("-B + C", C - B),
    ]:
        assert render_poly(f) == text
        assert read_poly(text) == f


def test_normalisation_sign_uses_grlex_c_over_b():
    # C - B keeps its sign: C is the graded-lex (C > B) leading monomial
    assert (B - C).primitive_positive() == C - B
    assert (2 * B - 2 * C).primitive_positive() == C - B
    assert (-(B ** 2)).primitive_positive() == B ** 2


@settings(max_examples=150)
@given(small_polys, small_polys, small_polys)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)


@settings(max_examples=100)
@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(f, g):
    d = gcd(f, g)
    assert div_exact(f, d) * d == f
    assert div_exact(g, d) * d == g


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_gcd_respects_common_factor(f, g, h):
    # gcd(fh, gh) = gcd(f,g)*h after primitive/positive normalisation
    assert gcd(f * h, g * h) == (gcd(f, g) * h).primitive_positive()


@settings(max_examples=80)
@given(nonzero_polys, st.lists(nonzero_polys, max_size=3))
def test_remove_common_is_coprime_to_mods(f, mods):
    reduced = remove_common(f, mods)
    for m in mods:
        assert gcd(reduced, m).is_constant


@settings(max_examples=150)
@given(small_polys)
def test_serialization_round_trip(f):
    assert read_poly(render_poly(f)) == f
    assert poly_from_obj(poly_to_obj(f)) == f


def test_ratpoly_normalisation():
    from modunits.divpoly import DISCRIMINANT, DivPolyCache

    # F_2 = B^4 / D is built as B / quartic, already in lowest terms, which
    # is why RatPoly keeps the pair it is given
    f2 = DivPolyCache().F(2)
    assert f2.num == B
    assert f2.den == QUARTIC
    assert gcd(f2.num, f2.den).is_constant
    assert f2 == RatPoly(B ** 4, DISCRIMINANT)
    # no reduction, a positive-leading denominator, equality of quotients
    r = RatPoly(2 * B, -4 * C)
    assert (r.num, r.den) == (-2 * B, 4 * C)
    assert r == RatPoly(-B, 2 * C) and r != RatPoly(B, 2 * C)


def test_ratpoly_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RatPoly(B, ZERO)
