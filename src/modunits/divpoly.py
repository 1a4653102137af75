"""Division polynomials specialised to the Tate normal form.

P_n is the n-division polynomial of the curve
Y^2 + (1-C)XY - BY = X^3 - BX^2 evaluated at the marked point (0, 0); it lies
in Z[B, C] and satisfies the standard division-polynomial recurrence.  P_n is
built top-down: the recurrence for index 2l or 2l+1 needs only P_{l-2}..P_{l+2},
so a memoised recursion from n keeps about five indices per halving: 20 for
P_45 and 25 for P_60, P_0..P_4 included, against 46 and 61 for a fill
through every index up to n.

F_n is P_n with every factor shared with the discriminant D or with an earlier
P_d removed; for n >= 4 it is the defining polynomial of the order-n locus
X1(n) in the (B, C)-plane.  P_n factors along the divisors of n,

    P_n = +-B^(a_n) * prod F_d   (d | n, d >= 4),

each F_d once and no factor of D = B^3 * quartic, so F_n is computed by exact
division: shift out the lowest power of B, divide once by each F_d for the
proper divisors 4 <= d < n, and normalise.  The same walk gives the
factorisation of P_n and its sign (factor_P_over_F), with no trial division.
FactorizationIncomplete is raised when that structure fails, i.e. when a
division is inexact, the quartic of D still divides F_n, or the walk does not
end at +-F_n.

F_n serves the `poly` command; `verify` derives F_N(b, c) = 0 from the
p-checks and the factorisation above, without building F_N.
"""

from __future__ import annotations

from .bivar_poly import (
    B,
    C,
    ONE,
    ZERO,
    NotDivisible,
    RatPoly,
    div_exact,
)

__all__ = ["DivPolyCache", "FactorizationIncomplete", "DISCRIMINANT", "D_COFACTOR", "P_BASE"]


class FactorizationIncomplete(ArithmeticError):
    """P_n does not factor as +-B^(a_n) times the F_d of its divisors d >= 4."""


# D = B^3 * (C^4 - 8BC^2 - 3C^3 + 16B^2 - 20BC + 3C^2 + B - C); verify checks
# D(b, c) = d through the quartic cofactor, as D_COFACTOR(b, c) = d / b^3
D_COFACTOR = (
    C ** 4 - 8 * B * C ** 2 - 3 * C ** 3 + 16 * B ** 2 - 20 * B * C
    + 3 * C ** 2 + B - C
)
DISCRIMINANT = B ** 3 * D_COFACTOR

# P_0..P_4, the base cases of the recurrence; verify's checks of n <= 4 read
# their one term from here
P_BASE = (ZERO, ONE, -B, -(B ** 3), C * B ** 5)


class DivPolyCache:
    """Memoised P_n / F_n computation.

    The cache is the only mutable state and is not locked; no instance is
    shared at module level, and each `poly` call builds its own.  ``max_n``
    guards against accidental huge requests (deg P_n grows quadratically);
    pass a larger value to override.
    """

    def __init__(self, max_n=200):
        self.max_n = max_n
        self._P = dict(enumerate(P_BASE))
        self._F = {3: B}

    def P(self, n):
        """P_n, for any integer n (P_{-n} = -P_n)."""
        if abs(n) > self.max_n:
            raise ValueError(
                "n=%d exceeds the guard max_n=%d; construct "
                "DivPolyCache(max_n=...) to override" % (n, self.max_n)
            )
        if n < 0:
            return -self.P(-n)
        return self._build(n)

    def _build(self, n):
        """P_n for 0 <= n, memoised; the indices below n that the recurrence
        reaches are built first, without the guard."""
        p = self._P.get(n)
        if p is None:
            p = self._P[n] = self._compute(n)
        return p

    def _compute(self, n):
        # n >= 5, so l >= 2 and every index l-2..l+2 lies in [0, n)
        P = self._build
        if n % 2:
            l = (n - 1) // 2
            return P(l + 2) * P(l) ** 3 - P(l + 1) ** 3 * P(l - 1)
        l = n // 2
        num = P(l) * (P(l + 2) * P(l - 1) ** 2 - P(l - 2) * P(l + 1) ** 2)
        # division by P_2 = -B is exact for every even index
        return div_exact(num, P(2))

    def F(self, n):
        """F_n: the defining polynomial for n >= 3 (F_2 = B^4/D as a RatPoly,
        built in lowest terms as B/quartic).

        For n >= 4, P_n = +-B^a * prod F_d over the divisors d >= 4 of n, so
        F_n is P_n with its lowest power of B shifted out, divided exactly by
        F_d for each proper divisor 4 <= d < n, and made primitive with a
        positive leading coefficient.  Raises FactorizationIncomplete if a
        division fails or if the result is still divisible by the quartic
        factor of D.

        Serves the poly command (and factor_P_over_F); verify builds no F_n.
        """
        if n < 2:
            raise ValueError("F_n is defined for n >= 2")
        if n == 2:
            # B^4 / D = B / quartic, already in lowest terms
            return RatPoly(B, D_COFACTOR)
        if n not in self._F:
            res = self._walk(n)[1]
            # no B check is needed: after the shift some term is free of B,
            # and an exact quotient of such a polynomial has a B-free term too
            try:
                div_exact(res, D_COFACTOR)
            except NotDivisible:
                self._F[n] = res.primitive_positive()
            else:
                raise FactorizationIncomplete("F_%d is divisible by the quartic of D" % n)
        return self._F[n]

    def _walk(self, n):
        """(a_n, cofactor): a_n the lowest power of B in P_n, and the cofactor
        P_n with B^(a_n) shifted out and divided exactly by F_d for each
        proper divisor 4 <= d < n of n.  Raises FactorizationIncomplete when a
        division is inexact."""
        p = self.P(n)
        a = min(i for i, _ in p.terms)
        res = div_exact(p, B ** a)
        for d in range(4, n // 2 + 1):
            if n % d == 0:
                try:
                    res = div_exact(res, self.F(d))
                except NotDivisible:
                    raise FactorizationIncomplete(
                        "P_%d is not divisible by F_%d" % (n, d)
                    ) from None
        return a, res

    def factor_P_over_F(self, n):
        """Write P_n = sign * B^(a_n) * prod F_d over the divisors d >= 4 of n.

        Returns (sign, exponents) with exponents {3: a_n} (F_3 = B, a_n the
        lowest power of B in P_n) and {d: 1} for each divisor d >= 4 of n.
        The sign is read off the walk that F takes (_walk, redone on every
        call): the cofactor must be +-F_n (+-1 for n < 4).  Raises
        FactorizationIncomplete otherwise.
        """
        if n < 2:
            raise ValueError("factorisation is defined for n >= 2")
        a, res = self._walk(n)
        exps = {3: a}
        exps.update((d, 1) for d in range(4, n + 1) if n % d == 0)
        rest = self.F(n) if n >= 4 else ONE
        if res == rest:
            return 1, exps
        if res == -rest:
            return -1, exps
        raise FactorizationIncomplete("P_%d is not +-B^%d times its F_d" % (n, a))

