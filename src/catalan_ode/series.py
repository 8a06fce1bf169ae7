"""Integer coefficient lists and the rational series read off them.

`_trim`, `_mul` and `_square` are the one polynomial kernel of the
package: lists of Python ints, lowest degree first.  The ring in
`algebraic` uses them for its numerators, and every series product or
derivative is taken on integer lists.
`half_power_coeffs` gives the integer coefficients of every power of
s = sqrt(1-4t) that the package uses.

A :class:`Series` stores integer numerators c_0..c_K over one positive
denominator d, in lowest terms (gcd(d, c_0, ..., c_K) = 1), so equality is
structural.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _mul(p, q, n: int | None = None) -> list[int]:
    """Product of two coefficient lists, truncated to n terms if n is given."""
    size = len(p) + len(q) - 1 if p and q else 0
    if n is not None:
        size = min(size, n)
    out = [0] * size
    for i, x in enumerate(p[:size]):
        if x:
            for j, y in enumerate(q[: size - i]):
                out[i + j] += x * y
    return out


def _square(p, n: int | None = None) -> list[int]:
    """`_mul(p, p, n)` with about half its products: coefficient k sums
    p_i p_(k-i) once over i < k - i and doubles that, then adds the middle
    square p_(k/2)^2 for even k."""
    size = 2 * len(p) - 1 if p else 0
    if n is not None:
        size = min(size, n)
    out = []
    for k in range(size):
        lo, mid = max(0, k - len(p) + 1), (k + 1) // 2
        c = 2 * sum([x * y for x, y in zip(p[lo:mid], p[k - lo:k - mid:-1])])
        out.append(c if k % 2 else c + p[k // 2] ** 2)
    return out


class Series:
    """Read-only coefficients num[0..K] / den of a power series truncated at
    order K, with no arithmetic of its own.  The constructor accepts any
    rationals and brings them to that form."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs, den: int = 1):
        num = list(coeffs)
        if not num:
            raise ValueError("a series needs at least the constant coefficient")
        if den < 1:
            raise ValueError("the denominator must be positive")
        if not {int}.issuperset(map(type, num)):
            fs = [Fraction(c) for c in num]
            scale = lcm(*(f.denominator for f in fs))
            num = [f.numerator * (scale // f.denominator) for f in fs]
            den *= scale
        if den > 1 and (g := gcd(den, *num)) > 1:
            num, den = [c // g for c in num], den // g
        self.num, self.den = tuple(num), den

    @property
    def order(self) -> int:
        return len(self.num) - 1

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return Fraction(self.num[n], self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and (self.num, self.den) == (other.num, other.den)

    def __repr__(self):
        return f"Series({[Fraction(c, self.den) for c in self.num]!r})"


def first_mismatch(a: Series, b: Series):
    """First index where two series disagree on their common range, or None."""
    k = min(a.order, b.order)
    for n in range(k + 1):
        if a.num[n] * b.den != b.num[n] * a.den:
            return n, a.coeff(n), b.coeff(n)
    return None


def half_power_coeffs(e: int, order: int) -> list[int]:
    """[t^m] s^e for m = 0..order, s = sqrt(1-4t): the integers
    c_m = binom(e/2, m) (-4)^m, from c_0 = 1 and the exact ratio
    c_{m+1} = c_m 2(2m - e)/(m + 1); a step that leaves a remainder raises
    ArithmeticError.  For e = 2k >= 0 the list is zero past index k."""
    cs = [1]
    for m in range(order):
        c, r = divmod(cs[-1] * 2 * (2 * m - e), m + 1)
        if r:
            raise ArithmeticError("half-power ratio step not integral")
        cs.append(c)
    return cs


def catalan_series(order: int) -> Series:
    """Sum of C_n t^n to the given truncation order, read off s = 1 - 2tC
    as C_n = -[t^(n+1)] s / 2."""
    return Series([-c // 2 for c in half_power_coeffs(1, order + 1)[1:]])


def sqrt_one_plus_series(order: int) -> Series:
    """sqrt(1+y) as a series in y: the coefficient of y^n is
    binom(1/2, n) = (-1)^n [t^n] s / 4^n, built over the one denominator 4^K."""
    return Series([c * (-1) ** n * 4 ** (order - n)
                   for n, c in enumerate(half_power_coeffs(1, order))], 4**order)
