"""Siegel-function q-expansions at the points (k/N, 0).

The function indexed by a = (a1, 0) with 0 < a1 <= 1/2 expands as

    i * q^w * (1 - q^a1) * prod_{n>=1} (1 - q^(n+a1)) (1 - q^(n-a1)),

with w = (a1^2 - a1 + 1/6)/2.  The reduced series (constant term 1) has
integer coefficients and lives on the q^(1/N) grid; the scalar i and the
rational exponent w are tracked separately, so the whole computation stays in
exact rational arithmetic.  Indices outside [1, N/2] fold back via
h_{-a} = -h_a and h_{(a1+1,0)} = -h_{(a1,0)}.  A product of these functions
to integer powers is a SiegelProduct: the power of i, the leading exponent
and the reduced series, which SiegelProduct.to_qseries turns into a plain
rational series, with a sign and a shift by q^(shift/N), in one pass.

Below the precision, the reduced (k/N, 0) series is the finite product of
the factors (1 - q^(x/N)) over x > 0 with x = +-k (mod N); when 2k = N the two
classes coincide and each such x counts twice.  So a product of them to the
integer powers e_k is prod_x (1 - q^(x/N))^m_x, where m_x is the sum of the
e_k whose factors include x.  Its coefficients f_n (on the q^(1/N) grid)
follow from the logarithmic derivative: q f'/f = sum_n a_n q^(n/N) with
a_n = -sum_{x | n} x m_x, hence f_0 = 1 and n f_n = sum_{1<=j<=n} a_j f_{n-j}.
Each (1 - q^x)^(+-1) has integer coefficients and constant term 1, so f_n is
an integer and the division by n is exact.  The coefficients computed so far
are kept newest first in a deque, so each step is one sum over a_1, a_2, ...
zipped with it and one appendleft, with no slice; the empty product is 1 and
skips the recurrence.  h_star and product_series share this one recurrence;
unit_lattice.decompose_series runs it backwards.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .qseries import QSeries

__all__ = [
    "BadIndex",
    "ZeroIndexError",
    "PhaseNotRational",
    "SiegelProduct",
    "h_star",
    "product_lead_exponent",
    "fold_index",
    "product_series",
]


class BadIndex(ValueError):
    """Index k outside the range 1 <= k <= floor(N/2)."""


class ZeroIndexError(ValueError):
    """The Siegel function is undefined at lattice points (n = 0 mod N)."""


class PhaseNotRational(ArithmeticError):
    """A series that must be rational carried an odd power of i."""


def _check_index(k, N):
    if N < 4:
        raise BadIndex("level N must be at least 4, got %d" % N)
    if not 1 <= k <= N // 2:
        raise BadIndex("index k=%d outside [1, %d] at level %d" % (k, N // 2, N))


@lru_cache(maxsize=None)
def h_star(k, N, precN):
    """Reduced series (constant term 1) of the Siegel function at (k/N, 0),
    known modulo q^(precN/N).

    Product factors whose exponent reaches precN/N are omitted; each such
    factor is 1 + O(q^(precN/N)), so the truncation is exact.
    """
    _check_index(k, N)
    return _reduced_series(N, [(k, 1)], precN)


def _reduced_series(N, powers, precN):
    """The product of the reduced (k/N, 0) series to the nonzero powers e for
    (k, e) in powers, by one pass of the recurrence in the module docstring:
    each factor x = k, N - k (mod N) of h_k adds -x e to a_n at every
    multiple n of x."""
    if precN < 1:
        raise ValueError("precN must be at least 1")
    if not powers:
        return QSeries.one(N, precN)
    a = [0] * precN
    for k, ek in powers:
        for x in (*range(k, precN, N), *range(N - k, precN, N)):
            ax = x * ek
            for n in range(x, precN, x):
                a[n] -= ax
    # rf holds f_{n-1}, ..., f_0, so zipped with a_1, a_2, ... it pairs a_j
    # with f_{n-j} for j = 1..n
    a1 = a[1:]
    rf = deque([1])
    for n in range(1, precN):
        rf.appendleft(sum(map(mul, a1, rf)) // n)
    rf.reverse()
    return QSeries(N, 0, rf, precN)


def fold_index(n, N):
    """Fold an arbitrary index: returns (k, sign) with 1 <= k <= floor(N/2)
    such that the function at (n/N, 0) equals sign times the one at (k/N, 0).

    Raises ZeroIndexError when n = 0 mod N.
    """
    if N < 4:
        raise BadIndex("level N must be at least 4, got %d" % N)
    r = n % N
    if r == 0:
        raise ZeroIndexError("index %d vanishes modulo the level %d" % (n, N))
    s = (n - r) // N
    sign = -1 if s % 2 else 1
    k = r if 2 * r <= N else N - r
    return k, sign


@dataclass(frozen=True)
class SiegelProduct:
    """A unit written multiplicatively: i^ipow * q^leadExp * fstar, with fstar
    a reduced series (constant term 1)."""

    N: int
    ipow: int
    leadExp: Fraction
    fstar: QSeries

    def to_qseries(self, sign=1, shift=0):
        """sign * q^(shift/N) times the unit, as a plain rational series built
        in one pass; requires an even power of i and a leading exponent on
        the q^(1/N) grid."""
        if self.ipow % 2:
            raise PhaseNotRational("power of i is %d" % self.ipow)
        lead = self.leadExp * self.N
        if lead.denominator != 1:
            raise ValueError(
                "leading exponent %s is not a multiple of 1/%d" % (self.leadExp, self.N)
            )
        shift += int(lead)
        if self.ipow:
            sign = -sign
        coeffs = [sign * c for c in self.fstar.coeffs]
        return QSeries(
            self.N, self.fstar.ord + shift, coeffs, self.fstar.precN + shift
        )


def product_lead_exponent(e):
    """The leading q-exponent of the product over k of the (k/N, 0) Siegel
    functions to the powers e(k): the sum of e(k) ((k/N)^2 - k/N + 1/6) / 2,
    read off the exponent vector without building the series."""
    N = e.N
    # ek ((k/N)^2 - k/N + 1/6) / 2 = ek (6k^2 - 6kN + N^2) / (12N^2)
    return Fraction(
        sum(ek * (6 * k * (k - N) + N * N) for k, ek in enumerate(e.e, start=1) if ek),
        12 * N * N,
    )


def product_series(e, precN):
    """The product over k of the (k/N, 0) Siegel functions to the powers e(k),
    as a SiegelProduct at the requested precision; the reduced part comes from
    the one-pass recurrence that h_star uses.
    """
    N = e.N
    powers = [(k, ek) for k, ek in enumerate(e.e, start=1) if ek]
    fstar = _reduced_series(N, powers, precN)
    return SiegelProduct(N, sum(e.e) % 4, product_lead_exponent(e), fstar)
