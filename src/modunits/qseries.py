"""Exact truncated Puiseux series in q^(1/N) over the rationals.

A series is stored as a dense window of exact coefficients starting at its
lowest known exponent, plus an explicit precision: with exponent denominator
``denomN``, ``QSeries(denomN, ord, coeffs, precN)`` represents

    sum_j coeffs[j] * q^((ord+j)/denomN)  +  O(q^(precN/denomN))

with ``ord + len(coeffs) == precN`` and ``coeffs[0] != 0`` unless the series
is identically O(...).  All arithmetic tracks precision pessimistically
(min-based rules); no coefficient beyond the tracked window is ever invented.
Fractional powers are deliberately not implemented: every pipeline path uses
integer exponents only.

Sums, differences, negation and scaling by a number are all one call of
combination, the one routine for sum coeff * s and its window rule.

A product needs the first n = min(len f, len g) coefficients of each factor
and has two paths behind the one operator.  Int windows of at least a
measured minimum length go through Kronecker substitution (Harvey,
arXiv:0712.4046), with the slot packing that bivar_poly uses: each window is
packed into one integer with one slot per coefficient, as wide as the bound
max|f| * max|g| * n needs, one big-integer product does the work, and the low
n slots are read back.  Every other product, Fraction coefficients and short
windows, sums the coefficient products of each output term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import mul

from .bivar_poly import pack_slots, unpack_slots

__all__ = ["QSeries", "ZeroSeries", "combination"]


class ZeroSeries(ArithmeticError):
    """An operation needed a nonzero (invertible) series."""


def _norm_coeff(c):
    if isinstance(c, int):
        return c
    f = Fraction(c)
    return f.numerator if f.denominator == 1 else f


def _read_coeff(c):
    """A coefficient of to_obj's list: an int, or a string that to_obj would
    write for its value."""
    if type(c) is int:
        return c
    if type(c) is str:
        f = Fraction(c)
        if str(f) == c:
            return f
    raise ValueError("coefficient %r is neither an integer nor a fraction p/q "
                     "as to_obj writes it" % (c,))


# QSeries.__mul__ multiplies two int windows of n coefficients by one
# big-integer product when n >= _KRONECKER_MIN_WINDOW, whatever the slot
# width.  Measured against the coefficient sums on random windows (py3.11.7,
# 2 cores), with coefficients of 4, 64 and 200 bits: the big product runs at
# 0.6-0.8x for n = 16, 0.8-1.3x for n = 32 and 1.1-2.1x for n = 64, the low
# end of each range at the widest slots (about 400 bits).
_KRONECKER_MIN_WINDOW = 64


def _is_int(coeffs):
    return all(map(isinstance, coeffs, repeat(int)))


def _mul_kronecker(fc, gc, bound):
    """The first n coefficients of fc * gc, both windows of n ints, by
    Kronecker substitution: each window packed into k-byte slots, one
    big-integer product, the low n slots read back.  bound limits every
    coefficient of the full product, so k = bound bytes plus a sign bit keeps
    the slots apart."""
    n = len(fc)
    k = bound.bit_length() // 8 + 1
    fpacked = pack_slots(enumerate(fc), n, k)
    gpacked = fpacked if gc is fc else pack_slots(enumerate(gc), n, k)
    out = [0] * n
    for t, c in unpack_slots(fpacked * gpacked, n, k):
        out[t] = c
    return out


def combination(terms):
    """sum coeff * s over the (coeff, series) pairs, all on one exponent grid,
    to the lowest precision among them: the window runs from the lowest
    first tracked exponent (or that precision, when every window is empty)
    up to it.  Coefficients beyond it are dropped, none are invented."""
    denomN = terms[0][1].denomN
    if any(s.denomN != denomN for _, s in terms):
        raise ValueError("the series lie on different exponent grids")
    precN = min(s.precN for _, s in terms)
    lo = min([precN] + [s.ord for _, s in terms if s.coeffs])
    out = [0] * (precN - lo)
    for coeff, s in terms:
        for n, x in enumerate(s.coeffs[: max(0, precN - s.ord)], start=s.ord - lo):
            out[n] += coeff * x
    return QSeries(denomN, lo, out, precN)


class QSeries:
    __slots__ = ("denomN", "ord", "coeffs", "precN")

    def __init__(self, denomN, ord, coeffs, precN):
        if denomN < 1:
            raise ValueError("denomN must be a positive integer")
        coeffs = list(coeffs)
        if not _is_int(coeffs):
            coeffs = [_norm_coeff(c) for c in coeffs]
        if ord + len(coeffs) != precN:
            raise ValueError("ord + len(coeffs) must equal precN")
        # normalised truncation: leading coefficient nonzero, or empty window
        start = 0
        while start < len(coeffs) and coeffs[start] == 0:
            start += 1
        ord += start
        coeffs = coeffs[start:]
        object.__setattr__(self, "denomN", denomN)
        object.__setattr__(self, "ord", ord)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "precN", precN)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, denomN, precN):
        """The series O(q^(precN/denomN))."""
        return cls(denomN, precN, [], precN)

    @classmethod
    def one(cls, denomN, precN):
        return cls(denomN, 0, [1] + [0] * (precN - 1), precN)

    @classmethod
    def from_terms(cls, denomN, terms, precN):
        """Build from a map {exponent numerator: coefficient}."""
        if not terms:
            return cls.zero(denomN, precN)
        lo = min(terms)
        if max(terms) >= precN:
            raise ValueError("term exponent beyond requested precision")
        coeffs = [0] * (precN - lo)
        for e, c in terms.items():
            coeffs[e - lo] = c
        return cls(denomN, lo, coeffs, precN)

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self):
        """True when no nonzero coefficient is tracked (series is O(...))."""
        return not self.coeffs

    def coeff(self, expnum):
        """Coefficient of q^(expnum/denomN); exact below the precision bound."""
        if expnum >= self.precN:
            raise ValueError(
                "coefficient at %d/%d is beyond the tracked precision"
                % (expnum, self.denomN)
            )
        if expnum < self.ord:
            return 0
        return self.coeffs[expnum - self.ord]

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.denomN == other.denomN
            and self.ord == other.ord
            and self.coeffs == other.coeffs
            and self.precN == other.precN
        )

    def __hash__(self):
        return hash((self.denomN, self.ord, self.coeffs, self.precN))

    def first_difference(self, other):
        """Lowest exponent (as a Fraction) where the two series differ on the
        common window, or None if they agree."""
        if self.denomN != other.denomN:
            raise ValueError("the series lie on different exponent grids")
        window = min(self.precN, other.precN)
        lo = min(self.ord, other.ord)
        for n in range(lo, window):
            if self.coeff(n) != other.coeff(n):
                return Fraction(n, self.denomN)
        return None

    # -- arithmetic ------------------------------------------------------------

    def __neg__(self):
        return combination([(-1, self)])

    def _constant(self, c):
        """The constant c at this series' precision; at precN <= 0 the
        constant term lies beyond the tracked window and is absorbed."""
        if self.precN <= 0:
            return QSeries.zero(self.denomN, self.precN)
        return QSeries.from_terms(self.denomN, {0: c}, self.precN)

    def _plus(self, sign, other):
        """self + sign * other, a number other taken as a constant."""
        if isinstance(other, (int, Fraction)):
            other = self._constant(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return combination([(1, self), (sign, other)])

    def __add__(self, other):
        return self._plus(1, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(-1, other)

    def __rsub__(self, other):
        return (-self)._plus(1, other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return combination([(other, self)])
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.denomN != other.denomN:
            raise ValueError("the series lie on different exponent grids")
        f, g = self, other
        ford = f.ord if f.coeffs else f.precN
        gord = g.ord if g.coeffs else g.precN
        precN = min(f.precN + gord, g.precN + ford)
        ord_ = ford + gord
        # the window is min(len(f), len(g)) long, so every k needs f[0..k], g[k..0]
        n = precN - ord_
        fc = f.coeffs[:n]
        gc = fc if g is f else g.coeffs[:n]
        if n >= _KRONECKER_MIN_WINDOW and _is_int(fc) and (gc is fc or _is_int(gc)):
            bound = max(map(abs, fc)) * max(map(abs, gc)) * n
            return QSeries(self.denomN, ord_, _mul_kronecker(fc, gc, bound), precN)
        out = [sum(map(mul, fc[: k + 1], gc[k::-1])) for k in range(n)]
        return QSeries(self.denomN, ord_, out, precN)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse, to the same relative precision."""
        if not self.coeffs:
            raise ZeroSeries("cannot invert a series with no tracked term")
        c0 = self.coeffs[0]
        L = len(self.coeffs)
        inv0 = _norm_coeff(Fraction(1, 1) / c0)
        u = [inv0] + [0] * (L - 1)
        cs = self.coeffs
        for k in range(1, L):
            s = 0
            for i in range(1, k + 1):
                ci = cs[i]
                if ci:
                    s += ci * u[k - i]
            if s:
                if isinstance(s, int) and isinstance(c0, int) and s % c0 == 0:
                    u[k] = -s // c0
                else:
                    u[k] = _norm_coeff(-Fraction(s) / c0)
        return QSeries(self.denomN, -self.ord, u, self.precN - 2 * self.ord)

    def pow_int(self, e):
        """Integer power by binary powering (negative e inverts first)."""
        if not isinstance(e, int):
            raise TypeError("exponent must be an integer")
        if not self.coeffs:
            if e <= 0:
                raise ZeroSeries("zero-to-precision series has no inverse")
            # O(q^(p/N)) ** e = O(q^(ep/N))
            return QSeries.zero(self.denomN, self.precN * e)
        if e < 0:
            return self.inv().pow_int(-e)
        result = QSeries.one(self.denomN, self.precN - self.ord)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- integrality ----------------------------------------------------------

    def is_integral(self):
        """True when every tracked coefficient is an integer."""
        return all(
            isinstance(c, int) or c.denominator == 1 for c in self.coeffs
        )

    # -- presentation --------------------------------------------------------

    def _term_str(self, n, c):
        e = Fraction(n, self.denomN)
        if e == 0:
            return str(c)
        if e == 1:
            mono = "q"
        elif e.denominator == 1:
            mono = "q^%d" % e.numerator
        else:
            mono = "q^(%s)" % e
        if c == 1:
            return mono
        if c == -1:
            return "-" + mono
        return "%s*%s" % (c, mono)

    def __repr__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            s = self._term_str(self.ord + j, c)
            if not parts:
                parts.append(s)
            else:
                parts.append(" - " + s[1:] if s.startswith("-") else " + " + s)
        tail = "O(q^(%s))" % Fraction(self.precN, self.denomN)
        if parts:
            return "QSeries(%s + %s)" % ("".join(parts), tail)
        return "QSeries(%s)" % tail

    __str__ = __repr__

    # -- JSON ------------------------------------------------------------------

    def to_obj(self):
        return {
            "denomN": self.denomN,
            "ord": self.ord,
            "precN": self.precN,
            "coeffs": [str(Fraction(c)) for c in self.coeffs],
        }

    @classmethod
    def from_obj(cls, obj):
        """The series of to_obj's dict; denomN, ord and precN must be ints,
        so 7.9 or false is refused rather than truncated, and coeffs a list
        whose entries are ints or the strings to_obj writes ("3", "-3/4"),
        so true, 2.0 or "0.5" is refused rather than converted."""
        for key in ("denomN", "ord", "precN"):
            if type(obj[key]) is not int:
                raise ValueError("%s must be an integer, got %r" % (key, obj[key]))
        if type(obj["coeffs"]) is not list:
            raise ValueError("coeffs must be a list, got %r" % (obj["coeffs"],))
        return cls(obj["denomN"], obj["ord"], map(_read_coeff, obj["coeffs"]), obj["precN"])
