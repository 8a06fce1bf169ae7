"""Catalan and higher-order Catalan numbers by independent routes: C_n by
closed form and convolution recurrence, C_n^(r) by its closed form (the
tests compare it with powers of the Catalan series)."""
from __future__ import annotations

from decimal import Decimal, getcontext
from math import comb

# 40 significant digits; plenty for the asymptotic-ratio sanity check.
PI_40 = Decimal("3.141592653589793238462643383279502884197")


def catalan_closed(n: int) -> int:
    """C_n = binom(2n, n)/(n+1); the division is always exact."""
    if n < 0:
        raise ValueError("n must be >= 0")
    num = comb(2 * n, n)
    q, r = divmod(num, n + 1)
    if r:
        raise ArithmeticError("Catalan divisibility violated")
    return q


def catalan_recurrence(nmax: int) -> list[int]:
    """C_0..C_nmax from the self-convolution recurrence
    C_n = sum_{m<n} C_m C_{n-1-m}."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    cs = [1]
    for n in range(1, nmax + 1):
        cs.append(sum(cs[m] * cs[n - 1 - m] for m in range(n)))
    return cs


def higher_catalan(r: int, n: int) -> int:
    """C_n^(r): coefficient of t^n in the r-th power of the Catalan
    generating function, by the closed form r/(2n+r) binom(2n+r, n); the
    division is always exact."""
    if r < 1:
        raise ValueError("order r must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    q, rem = divmod(r * comb(2 * n + r, n), 2 * n + r)
    if rem:
        raise ArithmeticError("higher-order Catalan divisibility violated")
    return q


def catalan_asymptotic_ratio(n: int) -> Decimal:
    """C_n * n^(3/2) * sqrt(pi) / 4^n in high-precision decimal; tends to 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = getcontext().copy()
    ctx.prec = 40
    sqrt_n = ctx.sqrt(Decimal(n))
    n_three_halves = ctx.multiply(ctx.multiply(sqrt_n, sqrt_n), sqrt_n)
    sqrt_pi = ctx.sqrt(PI_40)
    num = ctx.multiply(ctx.multiply(Decimal(catalan_closed(n)), n_three_halves), sqrt_pi)
    return ctx.divide(num, Decimal(4**n))
