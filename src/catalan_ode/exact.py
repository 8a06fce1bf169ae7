"""Exact scalar arithmetic: big rationals and factorial-type products.

Scalars are :class:`fractions.Fraction`, which already keeps values in
canonical form (reduced, positive denominator, 0/1 for zero).  Series and
ring elements do not use it internally: they hold integer coefficient lists
over one integer denominator (see `series` and `algebraic`).
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

Rational = Fraction

RationalLike = Fraction | int


def rat_make(num: int, den: int) -> Fraction:
    """Canonical rational num/den; raises on a zero denominator."""
    if den == 0:
        raise ZeroDivisionError("division by zero")
    return Fraction(num, den)


def falling_factorial(x: RationalLike, n: int) -> Fraction:
    """(x)_n = x(x-1)...(x-n+1), with (x)_0 = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = Fraction(1)
    for k in range(n):
        out *= Fraction(x) - k
    return out


def shifted_factorial(x: RationalLike, alpha: RationalLike, n: int) -> Fraction:
    """(x; alpha)_n = x(x-alpha)...(x-(n-1)alpha), with (x; alpha)_0 = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = Fraction(1)
    for k in range(n):
        out *= Fraction(x) - k * Fraction(alpha)
    return out


def double_factorial_odd(k: int) -> int:
    """k!! for odd k >= -1.

    The value (-1)!! = 1 is the extension forced by the boundary rows of the
    coefficient tables; anything below -1, or any even argument, is an error
    rather than a silent 1.
    """
    if k % 2 == 0 or k < -1:
        raise ValueError("double factorial out of domain")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def binomial_general(alpha: RationalLike, m: int) -> Fraction:
    """Generalized binomial coefficient (alpha choose m) = (alpha)_m / m!."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return falling_factorial(alpha, m) / factorial(m)
