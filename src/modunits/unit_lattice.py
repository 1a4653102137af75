"""The exponent-lattice view of units on X1(N).

Units are written over the Siegel basis indexed k = 1..m, m = floor(N/2).
An integer exponent vector e lies in the group S exactly when

    sum_k e(k) = 0 mod 12    and    sum_k k^2 e(k) = 0 mod N*gcd(N, 2),

and S is a full-rank sublattice of Z^m.  This module computes a canonical
basis of S (Hermite normal form), converts between the {b, d, p_n} and Siegel
generating sets in both directions, and decomposes reduced unit series into
exponent vectors by the Siegel-product recurrence run backwards.

The basis needs no elimination.  S is the kernel of the ledger map onto
Z/12 x Z/M, M = N*gcd(N, 2), and the columns k..m map onto the subgroup
{(u, v) : v = u*k^2 mod c_k}, with c_m = gcd(M, 12 m^2) and
c_k = gcd(c_(k+1), 2k+1).  Reading the columns from right to left, the pivot
of row k is the index step h_k = c_(k+1)/c_k (h_m = 12M/c_m), and each entry
right of it is the unique solution in [0, h_j) of one linear congruence.  The
pivots multiply to [Z^m : S] = 12M.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as _int_gcd
from math import prod
from operator import mul
from typing import Tuple

from .siegel import fold_index, product_series

__all__ = [
    "ExpVector",
    "PExpression",
    "NotInS",
    "InsufficientPrecision",
    "NotAUnitProduct",
    "is_in_S",
    "basis_S",
    "lattice_index",
    "t_to_h",
    "d_to_h",
    "v_to_h",
    "p_to_h",
    "to_p_expression",
    "expand_p_expression",
    "decompose_series",
]


class NotInS(ValueError):
    """The exponent vector fails the two congruences defining S."""


class InsufficientPrecision(ValueError):
    """The series precision is too small for the requested decomposition."""


class NotAUnitProduct(ValueError):
    """The series is not the reduced form of an integral Siegel product."""


@dataclass(frozen=True)
class ExpVector:
    """Integer exponents over the Siegel basis indexed k = 1..floor(N/2)."""

    N: int
    e: Tuple[int, ...]

    def __post_init__(self):
        if self.N < 4:
            raise ValueError("level N must be at least 4")
        e = tuple(map(int, self.e))
        if len(e) != self.N // 2:
            raise ValueError(
                "expected %d exponents at level %d, got %d"
                % (self.N // 2, self.N, len(e))
            )
        object.__setattr__(self, "e", e)

    @classmethod
    def zero(cls, N):
        return cls(N, (0,) * (N // 2))

    @classmethod
    def unit(cls, N, k):
        m = N // 2
        if not 1 <= k <= m:
            raise ValueError("basis index %d outside [1, %d]" % (k, m))
        return cls(N, (0,) * (k - 1) + (1,) + (0,) * (m - k))

    @property
    def m(self):
        return self.N // 2

    @property
    def sum1(self):
        return sum(self.e)

    @property
    def sum2(self):
        ks = range(1, len(self.e) + 1)
        return sum(map(mul, map(mul, ks, ks), self.e))

    @property
    def ledger(self):
        return (self.sum1, self.sum2)

    def __add__(self, other):
        if not isinstance(other, ExpVector):
            return NotImplemented
        if self.N != other.N:
            raise ValueError("levels differ")
        return ExpVector(self.N, tuple(a + b for a, b in zip(self.e, other.e)))

    def __sub__(self, other):
        if not isinstance(other, ExpVector):
            return NotImplemented
        if self.N != other.N:
            raise ValueError("levels differ")
        return ExpVector(self.N, tuple(a - b for a, b in zip(self.e, other.e)))

    def __neg__(self):
        return ExpVector(self.N, tuple(-a for a in self.e))

    def scale(self, c):
        return ExpVector(self.N, tuple(c * a for a in self.e))

    def to_obj(self):
        return {"N": self.N, "e": list(self.e)}

    @classmethod
    def from_obj(cls, obj):
        return cls(int(obj["N"]), tuple(int(x) for x in obj["e"]))


@dataclass(frozen=True)
class PExpression:
    """A unit over the p-basis: d^alpha * (p_{N-m-1} p_{m+1}^{-1})^beta * prod p_k^{pexp(k)}."""

    N: int
    alpha: int
    beta: int
    pexp: Tuple[int, ...]

    def to_obj(self):
        return {
            "N": self.N,
            "alpha": self.alpha,
            "beta": self.beta,
            "pexp": list(self.pexp),
        }

    @classmethod
    def from_obj(cls, obj):
        return cls(
            int(obj["N"]),
            int(obj["alpha"]),
            int(obj["beta"]),
            tuple(int(x) for x in obj["pexp"]),
        )


def _modulus2(N):
    return N * _int_gcd(N, 2)


def is_in_S(e):
    """Both congruences: sum e(k) = 0 mod 12, sum k^2 e(k) = 0 mod N*gcd(N,2)."""
    return e.sum1 % 12 == 0 and e.sum2 % _modulus2(e.N) == 0


# -- the canonical basis of S, column by column from the right ----------------


def _solve(a, b, n):
    """The least x >= 0 with a*x = b mod n, for b divisible by gcd(a, n);
    x is unique mod n/gcd(a, n)."""
    g = _int_gcd(a, n)
    n //= g
    return b // g * pow(a // g, -1, n) % n


def _chain(N):
    """The moduli c_k and the pivots h_k of the basis of S, as lists indexed
    by k = 1..m (entry 0 unused); see basis_S."""
    if N < 4:
        raise ValueError("level N must be at least 4")
    m = N // 2
    M = _modulus2(N)
    c = [0] * (m + 1)
    h = [0] * (m + 1)
    c[m] = _int_gcd(M, 12 * m * m)
    h[m] = 12 * M // c[m]
    for k in range(m - 1, 0, -1):
        c[k] = _int_gcd(c[k + 1], 2 * k + 1)
        h[k] = c[k + 1] // c[k]
    return c, h


def basis_S(N):
    """The canonical Z-basis of S at level N: the rows of its Hermite normal
    form, m = floor(N/2) upper-triangular vectors with positive pivots and
    every entry above a pivot reduced into [0, pivot).

    S is the kernel of phi(e) = (sum e(k) mod 12, sum k^2 e(k) mod M), with
    M = N*gcd(N, 2).  The image of the columns k..m is the subgroup
    {(u, v) : v = u*k^2 mod c_k} of Z/12 x Z/M, where c_m = gcd(M, 12 m^2)
    and c_k = gcd(c_(k+1), 2k+1), because e_k - e_(k+1) maps to
    (0, -(2k+1)).  So the pivot of row k is the index step
    h_k = c_(k+1)/c_k, and h_m = 12M/c_m.  Row k is h_k e_k + sum x_j e_j
    over the later columns j with h_j > 1.  With (u, v) the running phi of
    the row, x_j must bring it into the image of the columns j+1..m:
    (2j+1) x_j = v - u (j+1)^2 mod c_(j+1) for j < m, and x_m = -u mod 12
    with m^2 x_m = -v mod M.  Each has a unique solution in [0, h_j), so
    every entry is determined and the rows are the HNF.
    """
    c, h = _chain(N)
    m = N // 2
    M = _modulus2(N)
    tail = [j for j in range(2, m + 1) if h[j] > 1]
    basis = []
    for k in range(1, m + 1):
        row = [0] * m
        row[k - 1] = h[k]
        u, v = h[k], h[k] * k * k
        for j in tail:
            if j <= k:
                continue
            if j < m:
                x = _solve(2 * j + 1, v - u * (j + 1) ** 2, c[j + 1])
            else:
                x = (12 * _solve(12 * m * m, u * m * m - v, M) - u) % h[m]
            row[j - 1] = x
            u, v = u + x, v + x * j * j
        basis.append(ExpVector(N, tuple(row)))
    assert len(basis) == m, "basis lost rank"
    assert all(is_in_S(e) for e in basis)
    return basis


def lattice_index(N):
    """The index [Z^m : S], the product of the pivots h_k of basis_S(N), read
    from the c_k chain without building the rows.  The ledger map phi is
    onto, so this is 12*N*gcd(N, 2)."""
    return prod(_chain(N)[1][1:])


# -- the generator dictionary --------------------------------------------------


def _fold_accumulate(N, pairs):
    """Fold indexed powers prod h_{(n/N,0)}^{c} into [1, m]; returns (sign, vector)."""
    m = N // 2
    vec = [0] * m
    sign = 1
    for n, c in pairs:
        k, s = fold_index(n, N)
        vec[k - 1] += c
        if s < 0 and c % 2:
            sign = -sign
    return sign, ExpVector(N, tuple(vec))


def t_to_h(N):
    """Exponent vector of t = h_{(1/N,0)}^2 h_{(3/N,0)} h_{(2/N,0)}^{-3},
    with indices folded into [1, m]."""
    sign, vec = _fold_accumulate(N, [(1, 2), (2, -3), (3, 1)])
    assert sign == 1
    return vec


def d_to_h(N):
    """Exponent vector of d = (t * h_{(1/N,0)})^12."""
    return (t_to_h(N) + ExpVector.unit(N, 1)).scale(12)


def v_to_h(N):
    """Exponent vector of v = t^(gcd(2,N)*N)."""
    return t_to_h(N).scale(_int_gcd(2, N) * N)


def p_to_h(n, N):
    """Exponent vector of p_n = t^(n^2-1) h_{(n/N,0)} / h_{(1/N,0)}.

    Returns (sign, ExpVector) with all indices folded into [1, m], or None
    when n = 0 mod N (p_n is the zero function there).  With r = n^2 - 1 the
    indexed powers h_1^(2r-1) h_2^(-3r) h_3^r h_n fold in one pass.
    """
    if n < 1:
        raise ValueError("p_n is indexed by n >= 1")
    if n % N == 0:
        return None
    r = n * n - 1
    return _fold_accumulate(N, [(1, 2 * r - 1), (2, -3 * r), (3, r), (n, 1)])


def to_p_expression(e):
    """Convert e in S to the p-basis: alpha = sum1/12, beta = sum2/(N gcd(2,N))."""
    if not is_in_S(e):
        raise NotInS("vector %r fails the S congruences" % (e,))
    return PExpression(e.N, e.sum1 // 12, e.sum2 // _modulus2(e.N), e.e)


def expand_p_expression(p):
    """Expand a PExpression back over the Siegel basis.  With
    p_n = t^(n^2-1) h_{(n/N,0)} / h_{(1/N,0)} and d = (t h_{(1/N,0)})^12, the
    indexed powers fold in one pass and t enters once, to its total power.
    Returns (sign, ExpVector); composing with to_p_expression is the identity
    on S."""
    N = p.N
    m = N // 2
    low, high = N - m - 1, m + 1
    ones = 12 * p.alpha - sum(p.pexp)
    tpow = 12 * p.alpha + p.beta * (low * low - high * high)
    powers = [(k, ek) for k, ek in enumerate(p.pexp, start=1) if ek]
    tpow += sum(ek * (k * k - 1) for k, ek in powers)
    sign, vec = _fold_accumulate(N, [(1, ones), (low, p.beta), (high, -p.beta)] + powers)
    return sign, vec + t_to_h(N).scale(tpow)


def decompose_series(fstar, N):
    """Recover the exponent vector from the reduced form of a Siegel product.

    The reduced form is prod_x (1 - q^(x/N))^m_x with n f_n = sum_j a_j f_{n-j}
    and a_n = -sum_{x | n} x m_x (see siegel).  Read backwards on n <= m, the
    recurrence gives a_n, Moebius inversion gives m_n, and e(k) = m_k (halved
    when 2k = N, where h_{(1/2,0)} has (1 - q^(1/2))^2).  Rebuilding the
    product of e on the whole tracked window certifies it; a series that is
    not such a product surfaces as NotAUnitProduct.
    """
    if fstar.denomN != N:
        raise ValueError("series must live on the q^(1/%d) grid" % N)
    m = N // 2
    if fstar.precN < m + 1:
        raise InsufficientPrecision(
            "need precision at least %d, have %d" % (m + 1, fstar.precN)
        )
    if fstar.is_zero or fstar.ord != 0 or fstar.coeff(0) != 1:
        raise NotAUnitProduct("series is not reduced (constant term 1)")
    if not fstar.is_integral():
        raise NotAUnitProduct("series has a non-integral coefficient")
    f = fstar.coeffs
    a = [0] * (m + 1)
    mult = [0] * (m + 1)
    for n in range(1, m + 1):
        a[n] = n * f[n] - sum(a[j] * f[n - j] for j in range(1, n))
        mult[n] = -(a[n] + sum(x * mult[x] for x in range(1, n) if n % x == 0)) // n
    if N % 2 == 0:
        mult[m] //= 2
    # a floored division above (m_n not integral, or odd at q^(1/2)) yields a
    # vector whose product differs from fstar below q^((m+1)/N)
    e = ExpVector(N, tuple(mult[1:]))
    if product_series(e, fstar.precN).fstar != fstar:
        raise NotAUnitProduct("series is not the product of an integral exponent vector")
    return e
