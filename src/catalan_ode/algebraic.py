"""Exact arithmetic in Q(C), C = 1 + t C^2 the Catalan generating function.

The conic s^2 = 1 - 4t is rational with parameter C: t = (C-1)/C^2,
s = (2-C)/C and d/dt = C^3/(2-C) d/dC.  So every element the paper's two
ODE families produce is p(C) C^k / (d (2-C)^m), stored as the record
(p, k, m, d): p an integer polynomial in C (lowest degree first, no
trailing zeros), k and m integers and d >= 1.  A power s^e is the record
((1,), -e, -e), so multiplying by it shifts k and m and touches no
coefficient.

Every operation ends by stripping the factors C of p into k, the factors
2 - C of p into m (synthetic division by the root C = 2, while p(2) = 0)
and the integer gcd of d and p.  That form, p(0) != 0, p(2) != 0 and
gcd(d, content p) = 1, is unique, so the zero test is `not p` and equality
is structural; no polynomial gcd is needed.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm

from .series import Series, _add, _mul, _trim, catalan_series, half_power_coeffs


def _two_minus_c_power(j: int) -> list[int]:
    """The coefficients of (2-C)^j in C."""
    return [comb(j, i) * 2 ** (j - i) * (-1) ** i for i in range(j + 1)]


def _div_two_minus_c(p) -> list[int] | None:
    """p / (2 - C) if the division is exact, else None: synthetic division by
    the root C = 2, whose remainder is p(2)."""
    quot, carry = [], 0
    for c in reversed(p):
        carry = c + 2 * carry
        quot.append(-carry)
    return None if carry else quot[-2::-1]


class AlgebraicElement:
    """p(C) C^k / (d (2-C)^m); the field where every identity of the two ODE
    families can be checked exactly."""

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

    @staticmethod
    def from_rational(c) -> "AlgebraicElement":
        c = Fraction(c)
        return AlgebraicElement((c.numerator,), 0, 0, c.denominator)

    @staticmethod
    def catalan() -> "AlgebraicElement":
        """C itself."""
        return AlgebraicElement((1,), 1)

    @staticmethod
    def half_power(e: int) -> "AlgebraicElement":
        """s^e = (2-C)^e C^(-e), the record ((1,), -e, -e)."""
        return AlgebraicElement((1,), -e, -e)

    def is_zero(self) -> bool:
        return not self.p

    def _key(self):
        return self.p, self.k, self.m, self.d

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraicElement) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _lift(self, k: int, m: int, d: int) -> list[int]:
        """p over C^k / (d (2-C)^m), for k <= self.k, m >= self.m and d a
        multiple of self.d."""
        f = [0] * (self.k - k) + [d // self.d * c for c in _two_minus_c_power(m - self.m)]
        return _mul(self.p, f)

    def __add__(self, other: "AlgebraicElement") -> "AlgebraicElement":
        k, m, d = min(self.k, other.k), max(self.m, other.m), lcm(self.d, other.d)
        return AlgebraicElement(_add(self._lift(k, m, d), other._lift(k, m, d)), k, m, d)

    def __neg__(self) -> "AlgebraicElement":
        return self * -1

    def __sub__(self, other: "AlgebraicElement") -> "AlgebraicElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            n = other.numerator
            return AlgebraicElement([n * c for c in self.p], self.k, self.m,
                                    self.d * other.denominator)
        return AlgebraicElement(_mul(self.p, other.p), self.k + other.k,
                                self.m + other.m, self.d * other.d)

    __rmul__ = __mul__

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
        # D = C^3/(2-C) d/dC gives
        # C^(k+2) (2-C)^(-m-2) [p' C (2-C) + k p (2-C) + m p C] / d.
        k, m = self.k, self.m
        dp = [i * c for i, c in enumerate(self.p)][1:]
        return AlgebraicElement(_add(_mul(dp, (0, 2, -1)), _mul(self.p, (2 * k, m - k))),
                                k + 2, m + 2, self.d)

    def to_series(self, order: int) -> Series:
        """Taylor coefficients 0..order of the element: p evaluated at the
        Catalan series, times C^(k-m) with 1/C = 1 - tC, times
        (2-C)^(-m) C^m = s^(-m)."""
        n = order + 1
        cat = list(catalan_series(order).num)
        num = []
        for c in reversed(self.p):
            num = _add(_mul(num, cat, n), [c])
        e = self.k - self.m
        step = cat if e >= 0 else [1] + [-c for c in cat[: n - 1]]
        for _ in range(abs(e)):
            num = _mul(num, step, n)
        if self.m:
            num = _mul(num, half_power_coeffs(-self.m, order), n)
        return Series(num + [0] * (n - len(num)), self.d)

    def __repr__(self):
        return f"AlgebraicElement(p={list(self.p)}, k={self.k}, m={self.m}, d={self.d})"
