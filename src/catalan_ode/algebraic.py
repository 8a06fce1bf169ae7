"""Exact elements of Q(C), C = 1 + t C^2 the Catalan generating function.

The conic s^2 = 1 - 4t is rational with parameter C: t = (C-1)/C^2,
s = (2-C)/C and d/dt = C^3/(2-C) d/dC.  So every element the paper's two
ODE families produce is p(C) C^k / (d (2-C)^m), stored as the record
(p, k, m, d): p an integer polynomial in C (lowest degree first, no
trailing zeros), k and m integers and d >= 1.  A power s^e is the record
((1,), -e, -e).  The ring has no arithmetic of its own: it builds the
derivatives D^k C, in closed form, one pass over p each, whose numerators
the thm1/thm3 checks compare as integer polynomials, and it reads a
failure's exact t-valuation and Taylor coefficients.

The constructor strips the factors C of p into k, the factors 2 - C of p
into m (synthetic division by the root C = 2, while p(2) = 0) and the
integer gcd of d and p.  That form, p(0) != 0, p(2) != 0 and
gcd(d, content p) = 1, is unique, so the zero test is `not p` and equality
is structural; no polynomial gcd is needed.
"""
from __future__ import annotations

from itertools import accumulate
from math import gcd

from .series import Series, _mul, _trim, catalan_series, half_power_coeffs


def _div_two_minus_c(p) -> list[int] | None:
    """p / (2 - C) if the division is exact, else None: one synthetic
    division by the root C = 2, whose last carry is the remainder p(2)."""
    quot, carry = [], 0
    for c in reversed(p):
        carry = c + 2 * carry
        quot.append(-carry)
    return None if carry else quot[-2::-1]


class AlgebraicElement:
    """p(C) C^k / (d (2-C)^m), read-only, in one canonical record."""

    __slots__ = ("p", "k", "m", "d")

    def __init__(self, p=(), k: int = 0, m: int = 0, d: int = 1):
        if d < 1:
            raise ValueError("need d >= 1")
        p = _trim(list(p))
        if not p:
            k, m, d = 0, 0, 1
        while p and not p[0]:
            p, k = p[1:], k + 1
        while p and (q := _div_two_minus_c(p)) is not None:
            p, m = q, m - 1
        g = gcd(d, *p)
        if g > 1:
            p, d = [c // g for c in p], d // g
        self.p, self.k, self.m, self.d = tuple(p), k, m, d

    def is_zero(self) -> bool:
        return not self.p

    def _key(self):
        return self.p, self.k, self.m, self.d

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraicElement) and self._key() == other._key()

    def valuation(self) -> int:
        """The index of the first nonzero Taylor coefficient of a nonzero
        element: the multiplicity of the root C = 1 of p, since C - 1 = t C^2
        and C, 2 - C are units at t = 0."""
        if self.is_zero():
            raise ValueError("zero has no valuation")
        p, v = self.p, 0
        while not sum(p):
            # p = (C - 1) q with q_i = -(p_0 + ... + p_i)
            p, v = [-c for c in accumulate(p[:-1])], v + 1
        return v

    def derivative(self) -> "AlgebraicElement":
        # D = C^3/(2-C) d/dC gives C^(k+2) (2-C)^(-m-2) q / d with
        # q = p' C (2-C) + k p (2-C) + m p C, so in one pass
        # q_j = (2j + 2k) p_j + (m - k - j + 1) p_(j-1).
        k, m, p = self.k, self.m, self.p
        q = [2 * (j + k) * a + (m - k - j + 1) * b
             for j, (a, b) in enumerate(zip(p + (0,), (0,) + p))]
        return AlgebraicElement(q, k + 2, m + 2, self.d)

    def to_series(self, order: int) -> Series:
        """Taylor coefficients 0..order of the element: p at the Catalan
        series by Horner, one truncated product and a constant added per
        step, times C^(k-m) with 1/C = 1 - tC, times (2-C)^(-m) C^m = s^(-m)."""
        if not order:  # C, 1/C and s are 1 at t = 0
            return Series([sum(self.p)], self.d)
        n = order + 1
        cat = list(catalan_series(order).num)
        num = [0]
        for c in reversed(self.p):
            num = _mul(num, cat, n)
            num[0] += c
        e = self.k - self.m
        step = cat if e >= 0 else [1] + [-c for c in cat[: n - 1]]
        for _ in range(abs(e)):
            num = _mul(num, step, n)
        if self.m:
            num = _mul(num, half_power_coeffs(-self.m, order), n)
        return Series(num + [0] * (n - len(num)), self.d)

    def __repr__(self):
        return f"AlgebraicElement(p={list(self.p)}, k={self.k}, m={self.m}, d={self.d})"
