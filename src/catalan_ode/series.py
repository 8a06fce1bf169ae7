"""Truncated formal power series over exact rationals.

A :class:`Series` stores coefficients 0..K together with the truncation
order K.  Arithmetic between two series is only meaningful up to the common
order, so every binary operation truncates to min(K1, K2) and records that
on the result; differentiation shrinks the order by one.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from .exact import RationalLike, binomial_general


class Series:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    @staticmethod
    def constant(value: RationalLike, order: int) -> "Series":
        return Series((Fraction(value),) + (Fraction(0),) * order)

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Series") -> "Series":
        k = min(self.order, other.order)
        return Series(a + b for a, b in zip(self.coeffs[: k + 1], other.coeffs[: k + 1]))

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __neg__(self) -> "Series":
        return Series(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return Series(c * other for c in self.coeffs)
        k = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (k + 1)
        for i, ai in enumerate(a[: k + 1]):
            if not ai:
                continue
            for j in range(k + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return Series(out)

    __rmul__ = __mul__

    def __pow__(self, r: int) -> "Series":
        if r < 0:
            raise ValueError("negative powers are not defined on the series ring")
        out = Series.constant(1, self.order)
        for _ in range(r):
            out = out * self
        return out

    def derivative(self) -> "Series":
        if self.order == 0:
            raise ValueError("cannot differentiate order-0 series")
        return Series((n + 1) * c for n, c in enumerate(self.coeffs[1:]))

    def __repr__(self):
        return f"Series({list(self.coeffs)!r})"


def first_mismatch(a: Series, b: Series):
    """First index where two series disagree on their common range, or None."""
    k = min(a.order, b.order)
    for n in range(k + 1):
        if a.coeffs[n] != b.coeffs[n]:
            return n, a.coeffs[n], b.coeffs[n]
    return None


def catalan_series(order: int) -> Series:
    """Sum of C_n t^n to the given truncation order, each C_n from the
    closed binomial form."""
    return Series(Fraction(comb(2 * n, n), n + 1) for n in range(order + 1))


def binomial_power_series(alpha: RationalLike, order: int) -> Series:
    """(1-4t)^alpha as a truncated series: coefficient of t^m is
    (alpha choose m) * (-4)^m."""
    return Series(binomial_general(alpha, m) * (-4) ** m for m in range(order + 1))


def sqrt_one_plus_series(order: int) -> Series:
    """sqrt(1+y) as a series in y: coefficient of y^n is
    binom(2n,n) * (-1)^(n-1) / (4^n (2n-1)); the n=0 term is 1."""
    def term(n: int) -> Fraction:
        sign = 1 if n % 2 else -1
        return Fraction(comb(2 * n, n) * sign, 4**n * (2 * n - 1))

    return Series(term(n) for n in range(order + 1))

