"""Exact sparse polynomial arithmetic over Z in the two variables B and C.

A polynomial is a map from monomials (degB, degC) to nonzero arbitrary
precision integers.  Serialisation orders terms by total degree, then by the
exponent of B, descending (the layout used in the classical tables for the
X1(n) defining polynomials).  Sign normalisation "up to Q*" makes the leading
coefficient positive under graded lex with C > B.

Products have two paths behind the one operator.  Small ones, and sparse ones
spread over a wide degree range, add up the product of every pair of terms in
a dict.  Large dense ones go through Kronecker substitution (Harvey,
arXiv:0712.4046): both factors are packed into integers, one slot per
monomial, in the frame (i + j, j + a*(i + j)) of total degree and a sheared
degree, with the shear a in {0, -1, -2} whose product box has the fewest
slots; one big-integer product does the work and the slots are read back.
A division polynomial P_n lies in a thin band along its Newton polygon, and
a = -2 boxes it in 54-67% of the slots of the unsheared frame for
13 <= n <= 60.  The cutoff between the two paths is a measured constant
(_KRONECKER_MIN_PAIRS).  The slot packing and reading, pack_slots and
unpack_slots, also serve the Kronecker path of the series product in qseries.
"""

from __future__ import annotations

import heapq
from math import gcd as _int_gcd

__all__ = [
    "BivarPoly",
    "RatPoly",
    "NotDivisible",
    "ZERO",
    "ONE",
    "B",
    "C",
    "div_exact",
    "gcd",
    "remove_common",
    "render_poly",
    "render_obj",
    "poly_to_obj",
    "poly_from_obj",
]


class NotDivisible(ArithmeticError):
    """Exact division failed: nonzero remainder or non-integral quotient."""


def _grlex_key(mono):
    # graded lex with C > B: total degree first, then degC
    i, j = mono
    return (i + j, j)


def _print_key(mono):
    # serialisation order: total degree, then degB
    i, j = mono
    return (i + j, i)


class BivarPoly:
    """Immutable sparse element of Z[B, C], built from a dict
    {(degB, degC): int coefficient}; zero coefficients are dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            i, j = mono
            if i < 0 or j < 0:
                raise ValueError("negative exponent in monomial %r" % (mono,))
            if not isinstance(coeff, int):
                raise TypeError("coefficients must be int, got %r" % (coeff,))
            if coeff:
                clean[i, j] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BivarPoly is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_constant(self):
        return not self.terms or set(self.terms) == {(0, 0)}

    def constant(self):
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms.get((0, 0), 0)

    @property
    def total_degree(self):
        return max((i + j for i, j in self.terms), default=-1)

    @property
    def deg_B(self):
        return max((i for i, _ in self.terms), default=-1)

    @property
    def deg_C(self):
        return max((j for _, j in self.terms), default=-1)

    def coefficient(self, i, j):
        return self.terms.get((i, j), 0)

    def leading_term(self):
        """Leading (monomial, coefficient) under graded lex with C > B."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=_grlex_key)
        return mono, self.terms[mono]

    def sorted_terms(self):
        """Terms in canonical serialisation order, descending."""
        return [
            (mono, self.terms[mono])
            for mono in sorted(self.terms, key=_print_key, reverse=True)
        ]

    def int_content(self):
        g = 0
        for c in self.terms.values():
            g = _int_gcd(g, c)
            if g == 1:
                return 1
        return g

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_constant and self.constant() == other
        if isinstance(other, BivarPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return BivarPoly({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = BivarPoly({(0, 0): other})
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return _from_clean(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = BivarPoly({(0, 0): other})
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return ZERO
            return BivarPoly({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, BivarPoly):
            return NotImplemented
        pairs = len(self.terms) * len(other.terms)
        if pairs >= _KRONECKER_MIN_PAIRS:
            frame = _kronecker_frame(self, other)
            if 5 * frame[-1] <= 2 * pairs:
                return _mul_kronecker(self, other, frame)
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                else:
                    del out[key]
        return _from_clean(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- normalisation -----------------------------------------------------

    def primitive_positive(self):
        """Divide out the integer content and fix the sign so the graded-lex
        (C > B) leading coefficient is positive."""
        if not self.terms:
            return ZERO
        g = self.int_content()
        _, lead = self.leading_term()
        if lead < 0:
            g = -g
        if g == 1:
            return self
        return BivarPoly({m: c // g for m, c in self.terms.items()})

    def __repr__(self):
        return "BivarPoly(%s)" % render_poly(self)

    __str__ = __repr__


ZERO = BivarPoly()
ONE = BivarPoly({(0, 0): 1})
B = BivarPoly({(1, 0): 1})
C = BivarPoly({(0, 1): 1})


# -- exact division ----------------------------------------------------------


def div_exact(f, g):
    """Quotient f // g when g divides f exactly in Z[B, C].

    One pass over the remainder in descending graded-lex order: a heap holds
    the remainder's monomials, and an entry whose term has since cancelled is
    skipped when popped.

    Raises NotDivisible on a nonzero remainder or a non-integral quotient.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return ZERO
    (ga, gb), gc = g.leading_term()
    rest = [(a - ga, b - gb, c) for (a, b), c in g.terms.items() if (a, b) != (ga, gb)]
    rem = dict(f.terms)
    # max-heap on graded lex (C > B) via the keys (-(i + j), -j)
    heap = [(-(i + j), -j) for i, j in rem]
    heapq.heapify(heap)
    out = {}
    while heap:
        neg_deg, neg_j = heapq.heappop(heap)
        i, j = neg_j - neg_deg, -neg_j
        lc = rem.pop((i, j), 0)
        if not lc:
            continue  # cancelled since it was pushed
        qi, qj = i - ga, j - gb
        if qi < 0 or qj < 0 or lc % gc:
            raise NotDivisible("%r does not divide %r" % (g, f))
        q = lc // gc
        out[(qi, qj)] = q
        # every other term of g lands strictly below (i, j) in graded lex
        for a, b, c in rest:
            key = (i + a, j + b)
            v = rem.get(key)
            if v is None:
                rem[key] = -q * c
                heapq.heappush(heap, (-(key[0] + key[1]), -key[1]))
            elif v == q * c:
                del rem[key]
            else:
                rem[key] = v - q * c
    return _from_clean(out)


# -- Kronecker product --------------------------------------------------------

# BivarPoly.__mul__ takes the Kronecker path for products of at least this many
# term pairs whose packed form has at most two slots per five pairs.  Measured
# against the dict loop (py3.11, 2 cores, frame choice included), the Kronecker
# path runs at 0.2x its speed at 4 x 3 terms, breaks even near 500 pairs on
# division-polynomial operands (0.8x at 378, 1.0-1.1x at 476-560) and near 0.4
# slots per pair on random sparse ones of 40 x 40 terms (1.2x at 0.3-0.35,
# 0.97x at 0.35-0.4, 0.89x at 0.4-0.45, 0.8x at 0.5), and runs at 2.2x at
# 40 x 34 terms (P_16 * P_15) and 12x at 904 x 717 (P_35 * P_33).  The
# division-polynomial products that reach the gate sit at 0.38 slots per pair
# or fewer.
_KRONECKER_MIN_PAIRS = 500


# The packing frames tried, (i + j, j + a*(i + j)) for the shears a = 0, -1,
# -2: the one whose product box has the fewest slots is used, the first on a tie.
_SHEARS = (0, -1, -2)


def _frame_boxes(f):
    """[(lowest, highest) of s = i + j and of v = j + a*s over the terms of f,
    for each shear a of _SHEARS]."""
    s = [i + j for i, j in f.terms]
    lo, hi = min(s), max(s)
    boxes = []
    for a in _SHEARS:
        v = [j + a * t for (_, j), t in zip(f.terms, s)]
        boxes.append((lo, hi, min(v), max(v)))
    return boxes


def _kronecker_frame(f, g):
    """(a, low corner (s, v) of f, of g, row width W, slots of the packed
    product f * g) for the frame of _SHEARS with the fewest slots."""
    best = None
    fboxes = _frame_boxes(f)
    gboxes = fboxes if g is f else _frame_boxes(g)
    for a, (fs, fS, fv, fV), (gs, gS, gv, gV) in zip(_SHEARS, fboxes, gboxes):
        width = fV - fv + gV - gv + 1
        slots = (fS - fs + gS - gs + 1) * width
        if best is None or slots < best[-1]:
            best = (a, (fs, fv), (gs, gv), width, slots)
    return best


def _coefficient_bound(f, g):
    """A bound on every |coefficient| of f * g: each is a sum of products c*d
    of coefficients of f and g, no term of f or of g used twice, so it is at
    most ||f||_1 * max|g| and at most max|f| * ||g||_1."""
    fc = [abs(c) for c in f.terms.values()]
    gc = fc if g is f else [abs(c) for c in g.terms.values()]
    return min(sum(fc) * max(gc), max(fc) * sum(gc))


def _mul_kronecker(f, g, frame=None):
    """f * g by one big-integer product (Kronecker substitution), packed in
    frame, _kronecker_frame(f, g) when not given.

    In the frame (s, v) = (i + j, j + a*(i + j)) the term c*B^i*C^j goes to
    the slot (s - s0)*W + (v - v0) of an integer in base 2^(8k), with (s0, v0)
    the lowest s and v of its factor and W the span of v over the product
    plus one.  Slot indices add like the pair (s, v), and every v of the
    product lies within W of the sum of the factors' v0, so distinct
    monomials of the product land in distinct slots; a slot reads back as
    j = v - a*s, i = s - j.  The shear a is the one of _SHEARS whose product
    box has the fewest slots.  For division polynomials that is a = -2,
    v = -(2i + j): the box of P_45 has 3,723 slots against 6,477 in the frame
    (i + j, j), and P_24 * P_22^3 packs in 3,672 slots against 6,426, while
    polynomials along an axis keep a = 0.  A slot holds k bytes, enough for
    _coefficient_bound plus a sign bit.
    """
    if not f.terms or not g.terms:
        return ZERO
    a, (fs, fv), (gs, gv), width, slots = frame or _kronecker_frame(f, g)
    k = _coefficient_bound(f, g).bit_length() // 8 + 1
    fpacked = _kronecker_pack(f, a, fs, fv, width, k)
    gpacked = fpacked if g is f else _kronecker_pack(g, a, gs, gv, width, k)
    out = {}
    low_s, low_v = fs + gs, fv + gv
    for t, c in unpack_slots(fpacked * gpacked, slots, k):
        ds, dv = divmod(t, width)
        s = low_s + ds
        j = low_v + dv - a * s
        out[(s - j, j)] = c
    return _from_clean(out)


def _kronecker_pack(f, a, s0, v0, width, k):
    """f packed in k-byte slots, the term c*B^i*C^j at (s - s0)*W + (v - v0)
    for s = i + j and v = j + a*s."""
    return pack_slots(
        (((i + j - s0) * width + j + a * (i + j) - v0, c) for (i, j), c in f.terms.items()),
        (f.total_degree - s0 + 1) * width,
        k,
    )


def pack_slots(items, slots, k):
    """The integer sum of c * 2^(8k*t) over the (t, c) pairs of items, for
    0 <= t < slots and every |c| < 2^(8k-1), built as the difference of two
    byte strings: one of the positive and one of the negative coefficients."""
    pos = bytearray(slots * k)
    neg = bytearray(slots * k)
    for t, c in items:
        at = t * k
        if c > 0:
            pos[at : at + k] = c.to_bytes(k, "little")
        elif c:
            neg[at : at + k] = (-c).to_bytes(k, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def unpack_slots(value, slots, k):
    """The nonzero digits among the lowest `slots` signed digits of value in
    base 2^(8k), as (slot, digit) pairs, when every digit lies in
    [-2^(8k-1), 2^(8k-1)): the slots of a product of two pack_slots integers
    whose k bounds each slot of the product."""
    # adding 2^(8k-1) to every slot makes each one a nonnegative k-byte digit
    half = 1 << (8 * k - 1)
    zero = half.to_bytes(k, "little")
    size = slots * k
    data = (
        (value + int.from_bytes(zero * slots, "little")) & ((1 << (8 * size)) - 1)
    ).to_bytes(size, "little")
    return [
        (t, int.from_bytes(digit, "little") - half)
        for t, at in enumerate(range(0, size, k))
        if (digit := data[at : at + k]) != zero
    ]


def _from_clean(terms):
    """Wrap a dict that already has no zero coefficient or bad exponent."""
    res = BivarPoly()
    object.__setattr__(res, "terms", terms)
    return res


# -- GCD ---------------------------------------------------------------------
#
# Content/primitive-part splitting plus a subresultant PRS, with the main
# variable C over Z[B] (recursing to B over Z for the coefficient domain).
# No command reaches it: F_n is found by exact division along the divisors of
# n (divpoly), and gcd/remove_common remain as the tests' independent oracle
# for F_n and as names that perfbench/tracer.py binds.


def _trim(lst):
    while lst and lst[-1].is_zero:
        lst.pop()
    return lst


def _to_clist(f, main):
    deg = f.deg_C if main == "C" else f.deg_B
    buckets = [{} for _ in range(deg + 1)]
    for (i, j), c in f.terms.items():
        if main == "C":
            buckets[j][(i, 0)] = c
        else:
            buckets[i][(0, j)] = c
    return [BivarPoly(b) for b in buckets]


def _from_clist(lst, main):
    out = {}
    for k, p in enumerate(lst):
        for (i, j), c in p.terms.items():
            key = (i, j + k) if main == "C" else (i + k, j)
            out[key] = c
    return BivarPoly(out)


def _content_list(lst):
    acc = None
    for p in lst:
        if p.is_zero:
            continue
        acc = p.primitive_positive() if acc is None else gcd(acc, p)
        if acc.is_constant:
            return ONE
    return acc


def _prem(a, b):
    """Pseudo-remainder of dense coefficient lists (lc(b)^(da-db+1) * a mod b)."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[db]
    r = list(a)
    e = da - db + 1
    while r and len(r) - 1 >= db:
        dr = len(r) - 1
        lr = r[dr]
        r = [lb * x for x in r]
        shift = dr - db
        for t in range(db + 1):
            r[shift + t] = r[shift + t] - lr * b[t]
        r = _trim(r[:dr])
        e -= 1
    if e > 0 and r:
        lbe = lb ** e
        r = [lbe * x for x in r]
    return r


def _prs_gcd(a, b):
    """Subresultant PRS on primitive dense lists; None means a trivial gcd."""
    if len(a) < len(b):
        a, b = b, a
    g = ONE
    h = ONE
    while True:
        delta = (len(a) - 1) - (len(b) - 1)
        r = _prem(a, b)
        if not r:
            last = b
            break
        denom = g * h ** delta
        b_next = [div_exact(x, denom) for x in r]
        a, b = b, b_next
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = div_exact(g ** delta, h ** (delta - 1))
    if len(last) == 1:
        return None
    cont = _content_list(last)
    return [div_exact(x, cont) for x in last]


def gcd(f, g):
    """A gcd of f and g in Z[B, C], primitive with positive graded-lex (C > B)
    leading coefficient.  Constant factors are dropped (gcd up to Q*)."""
    if f.is_zero and g.is_zero:
        return ZERO
    if f.is_zero:
        return g.primitive_positive()
    if g.is_zero:
        return f.primitive_positive()
    if f.is_constant or g.is_constant:
        return ONE
    fp = f.primitive_positive()
    gp = g.primitive_positive()
    main = "C" if (fp.deg_C > 0 or gp.deg_C > 0) else "B"
    fl = _to_clist(fp, main)
    gl = _to_clist(gp, main)
    cf = _content_list(fl)
    cg = _content_list(gl)
    c = gcd(cf, cg) if not (cf.is_constant or cg.is_constant) else ONE
    fpp = [div_exact(x, cf) for x in fl] if cf != ONE else fl
    gpp = [div_exact(x, cg) for x in gl] if cg != ONE else gl
    h = _prs_gcd(fpp, gpp)
    if h is None:
        result = c
    else:
        result = c * _from_clist(h, main)
    return result.primitive_positive()


def remove_common(f, mods):
    """Repeatedly divide f by its gcd with each polynomial in mods until no
    nonconstant common factor remains; the result is primitive with positive
    graded-lex (C > B) leading coefficient."""
    if f.is_zero:
        raise ValueError("cannot remove factors from the zero polynomial")
    result = f
    for m in mods:
        if isinstance(m, RatPoly):
            raise TypeError("mods must be polynomials")
        if m.is_zero or m.is_constant:
            continue
        while True:
            g = gcd(result, m)
            if g.is_constant:
                break
            result = div_exact(result, g)
    return result.primitive_positive()


# -- rational polynomials ----------------------------------------------------


class RatPoly:
    """Quotient num/den of two elements of Z[B, C], as given: the denominator
    is checked nonzero and its graded-lex (C > B) leading coefficient made
    positive, but the pair is not reduced.  Its one instance, F_2 = B /
    quartic, is already in lowest terms.  Equality compares the quotients,
    so a RatPoly is not hashable."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        _, lead = den.leading_term()
        if lead < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    def __eq__(self, other):
        if isinstance(other, RatPoly):
            return self.num * other.den == other.num * self.den
        return NotImplemented


# -- text and JSON forms -----------------------------------------------------


def _mono_str(i, j):
    parts = []
    if i:
        parts.append("B" if i == 1 else "B^%d" % i)
    if j:
        parts.append("C" if j == 1 else "C^%d" % j)
    return "*".join(parts)


def render_obj(obj):
    """Canonical text form of a poly_to_obj object, its terms in their order
    there, e.g. "B*C^2 - 2*B^2 + 3*B*C - C^2"; a quotient's {"num", "den"}
    is "num / (den)", as in F_2 = "B / (C^4 - 8*B*C^2 - ... + B - C)"."""
    if "num" in obj:
        return "%s / (%s)" % (render_obj(obj["num"]), render_obj(obj["den"]))
    parts = []
    for i, j, c in obj["terms"]:
        body = _mono_str(i, j)
        negative = c.startswith("-")
        mag = c[1:] if negative else c
        if body:
            s = body if mag == "1" else "%s*%s" % (mag, body)
        else:
            s = mag
        if not parts:
            parts.append("-" + s if negative else s)
        else:
            parts.append((" - " if negative else " + ") + s)
    return "".join(parts) or "0"


def render_poly(f):
    """Canonical text form, e.g. "B*C^2 - 2*B^2 + 3*B*C - C^2"."""
    return render_obj(poly_to_obj(f))


def poly_to_obj(f):
    """JSON object form: {"terms": [[degB, degC, "coeff"], ...]} in canonical
    order, and {"num": ..., "den": ...} of two such objects for a RatPoly."""
    if isinstance(f, RatPoly):
        return {"num": poly_to_obj(f.num), "den": poly_to_obj(f.den)}
    return {"terms": [[m[0], m[1], str(c)] for m, c in f.sorted_terms()]}


def poly_from_obj(obj):
    """Inverse of poly_to_obj, a RatPoly from {"num", "den"}; raises
    ValueError on a malformed term and ZeroDivisionError on a zero
    denominator."""
    if "num" in obj:
        return RatPoly(poly_from_obj(obj["num"]), poly_from_obj(obj["den"]))
    terms = {}
    for term in obj["terms"]:
        i, j, c = term
        if not (isinstance(i, int) and isinstance(j, int) and isinstance(c, (int, str))):
            raise ValueError("malformed term %r" % (term,))
        terms[i, j] = int(c)
    return BivarPoly(terms)
