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
pivots multiply to [Z^m : S] = 12M.  The rows are sparse: besides its pivot,
row k has entries only in the tail columns j > k with h_j > 1, and there are
at most two of those (m itself, and m-1 for even N, where c_(m-1) =
gcd(c_m, N-1) = 1; for odd N, c_m divides 3).  Each tail column's congruence
inverse is computed once per level.  A row costs its nonzeros plus one dense
tuple: no zero is read, and S-membership is checked on the stored nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as _int_gcd
from operator import index, mul
from typing import Tuple

from .qseries import ZeroSeries
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
    "fold_p",
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
    """Integer exponents over the Siegel basis indexed k = 1..floor(N/2).
    Entries are read through operator.index, so a float, Fraction or string
    raises ValueError instead of being truncated."""

    N: int
    e: Tuple[int, ...]

    def __post_init__(self):
        if self.N < 4:
            raise ValueError("level N must be at least 4")
        try:
            e = tuple(map(index, self.e))
        except TypeError:
            for x in self.e:
                try:
                    index(x)
                except TypeError:
                    raise ValueError("exponent %r is not an integer" % (x,)) from None
            raise
        if len(e) != self.N // 2:
            raise ValueError(
                "expected %d exponents at level %d, got %d"
                % (self.N // 2, self.N, len(e))
            )
        object.__setattr__(self, "e", e)

    @classmethod
    def _sparse(cls, N, entries):
        """ExpVector(N, e), e zero but for the given (k, x) entries, validating only those."""
        if N < 4:
            raise ValueError("level N must be at least 4")
        e = [0] * (N // 2)
        for k, x in entries:
            if not 1 <= k <= len(e):
                raise ValueError("basis index %d outside [1, %d]" % (k, len(e)))
            try:
                e[k - 1] = index(x)
            except TypeError:
                raise ValueError("exponent %r is not an integer" % (x,)) from None
        vec = object.__new__(cls)
        object.__setattr__(vec, "N", N)
        object.__setattr__(vec, "e", tuple(e))
        return vec

    @classmethod
    def zero(cls, N):
        return cls(N, (0,) * (N // 2))

    @classmethod
    def unit(cls, N, k):
        return cls._sparse(N, [(k, 1)])

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

    def scale(self, c):
        return ExpVector(self.N, tuple(c * a for a in self.e))

    def to_obj(self):
        return {"N": self.N, "e": list(self.e)}


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


def _modulus2(N):
    return N * _int_gcd(N, 2)


def is_in_S(e):
    """Both congruences: sum e(k) = 0 mod 12, sum k^2 e(k) = 0 mod N*gcd(N,2)."""
    return e.sum1 % 12 == 0 and e.sum2 % _modulus2(e.N) == 0


# -- the canonical basis of S, column by column from the right ----------------


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
    over the tail columns j > k with h_j > 1.  With (u, v) the running phi of
    the row, x_j must bring it into the image of the columns j+1..m:
    (2j+1) x_j = v - u (j+1)^2 mod c_(j+1) for j < m, and x_m = -u mod 12
    with m^2 x_m = -v mod M.  Each has a unique solution in [0, h_j), so
    every entry is determined and the rows are the HNF.

    The rows are sparse: a pivot and at most two tail entries (h_m >= 12,
    so m is always a tail column).  Each tail column's congruence, with the
    inverse of its reduced coefficient, is set up once per level.  A row is
    built from its nonzeros alone into one dense tuple, and its membership in
    S is checked on the stored nonzeros; every other entry is 0 by design.
    """
    c, h = _chain(N)
    m = N // 2
    M = _modulus2(N)
    # a*x = b mod n for x_j has the solutions x = (b/g) * inv mod n/g,
    # g = gcd(a, n), inv the inverse of a/g mod n/g
    tail = []
    for j in range(2, m + 1):
        if h[j] > 1:
            a, n = (2 * j + 1, c[j + 1]) if j < m else (12 * m * m, M)
            g = _int_gcd(a, n)
            tail.append((j, j * j, (j + 1) ** 2, g, n // g, pow(a // g, -1, n // g)))
    basis = []
    for k in range(1, m + 1):
        u = h[k]
        v = u * k * k
        entries = [(k, u)]
        for j, jj, j1, g, n, inv in tail:
            if j <= k:
                continue
            if j < m:
                x = (v - u * j1) // g * inv % n
            else:
                x = (12 * ((u * jj - v) // g * inv % n) - u) % h[m]
            entries.append((j, x))
            u, v = u + x, v + x * jj
        vec = ExpVector._sparse(N, entries)
        s1 = s2 = 0
        for j, _ in entries:
            x = vec.e[j - 1]
            s1, s2 = s1 + x, s2 + j * j * x
        assert s1 % 12 == 0 and s2 % M == 0, "row %d of basis_S(%d) not in S" % (k, N)
        basis.append(vec)
    assert len(basis) == m, "basis lost rank"
    return basis


def lattice_index(N):
    """The index [Z^m : S], the product of the pivots h_k of basis_S(N).  The
    ledger map phi is onto Z/12 x Z/M (e_1 maps to (1, 1) and t to (0, -1)),
    so this is 12*M = 12*N*gcd(N, 2)."""
    if N < 4:
        raise ValueError("level N must be at least 4")
    return 12 * _modulus2(N)


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
    """Exponent vector of p_n = t^(n^2-1) h_{(n/N,0)} / h_{(1/N,0)}, the
    fold_p of p_n alone: (sign, ExpVector) with all indices folded into
    [1, m], or None when n = 0 mod N (p_n is the zero function there)."""
    vanishes, sign, vec = fold_p(N, [(n, 1)])
    return None if vanishes else (sign, vec)


def fold_p(N, pairs, alpha=0):
    """Fold d^alpha prod p_k^r over the (k, r) pairs, k >= 1, to
    (vanishes, sign, vec): the Siegel exponent vector and sign of the
    product, and whether a factor p_k with k = 0 mod N (the zero function)
    occurs, which leaves vec and sign those of the other factors.  A
    negative power of such a factor raises ZeroSeries.

    With p_k = t^(k^2-1) h_{(k/N,0)} / h_{(1/N,0)} and d = (t h_{(1/N,0)})^12,
    the indexed powers fold in one pass and t = h_1^2 h_2^(-3) h_3 enters
    once, to its total power.
    """
    tpow = ones = 12 * alpha
    vanishes = False
    powers = []
    for k, r in pairs:
        if k < 1:
            raise ValueError("p_n is indexed by n >= 1")
        if k % N:
            tpow += r * (k * k - 1)
            ones -= r
            powers.append((k, r))
        elif r < 0:
            raise ZeroSeries("p_%d is the zero series at level %d" % (k, N))
        elif r:
            vanishes = True
    sign, vec = _fold_accumulate(N, [(1, 2 * tpow + ones), (2, -3 * tpow), (3, tpow)] + powers)
    return vanishes, sign, vec


def to_p_expression(e):
    """Convert e in S to the p-basis: alpha = sum1/12, beta = sum2/(N gcd(2,N))."""
    (alpha, r1), (beta, r2) = map(divmod, e.ledger, (12, _modulus2(e.N)))
    if r1 or r2:
        raise NotInS("vector %r fails the S congruences" % (e,))
    return PExpression(e.N, alpha, beta, e.e)


def expand_p_expression(p):
    """Expand a PExpression back over the Siegel basis: the fold_p of its
    p-powers and (p_{N-m-1} / p_{m+1})^beta, with d^alpha.  Returns
    (sign, ExpVector); composing with to_p_expression is the identity on S."""
    m = p.N // 2
    pairs = [(k, ek) for k, ek in enumerate(p.pexp, start=1) if ek]
    pairs += [(p.N - m - 1, p.beta), (m + 1, -p.beta)]
    _, sign, vec = fold_p(p.N, pairs, p.alpha)
    return sign, vec


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
        a[n] = n * f[n] - sum(map(mul, a[1:n], f[n - 1:0:-1]))
        mult[n] = -(a[n] + sum(x * mult[x] for x in range(1, n // 2 + 1) if n % x == 0)) // n
    if N % 2 == 0:
        mult[m] //= 2
    # a floored division above (m_n not integral, or odd at q^(1/2)) yields a
    # vector whose product differs from fstar below q^((m+1)/N)
    e = ExpVector(N, tuple(mult[1:]))
    if product_series(e, fstar.precN).fstar != fstar:
        raise NotAUnitProduct("series is not the product of an integral exponent vector")
    return e
