"""Exact scalar helpers: the odd double factorial and the generalized
binomial coefficient.

Scalars are :class:`fractions.Fraction`, which already keeps values in
canonical form (reduced, positive denominator, 0/1 for zero).  Series, ring
elements and the numeric identities do not use it internally: they work on
integers over one integer denominator (see `series`, `algebraic` and
`identities`).  `binomial_general` is the plain rational reference that
the tests compare those integer paths against; the eq58 check carries the
same coefficients by their ratio instead, in O(K).
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

RationalLike = Fraction | int


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
    """Generalized binomial coefficient (alpha choose m) =
    alpha(alpha-1)...(alpha-m+1) / m!."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out = Fraction(1)
    for k in range(m):
        out *= Fraction(alpha) - k
    return out / factorial(m)
