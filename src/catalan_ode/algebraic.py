"""Exact arithmetic in the ring Z[1/d, 1/t, 1/(1-4t)][s] with s^2 = 1 - 4t.

An element is one canonical record (P, Q, d, a, b) standing for
(P + Q*s) / (d * t^a * u^b), where u = 1 - 4t, P and Q are integer
polynomials (lowest degree first, no trailing zeros), d >= 1 and a, b >= 0.
These are the only denominators the paper's two ODE families produce: the
Catalan generating function is (1 - s)/(2t), 1/s = s/u, and d/dt adds one
factor each of t and u.

Every operation ends by stripping common factors of t (while a > 0), of u
(while b > 0; exact division, integral by Gauss's lemma) and the integer gcd
of d and the contents of P and Q.  That form is unique, so the zero test is
P == Q == 0 and equality is structural; no polynomial gcd is needed.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .series import Series, _add, _mul, _trim, half_power_coeffs


def _div_u(p) -> list[int] | None:
    """p / (1 - 4t) if the division is exact, else None."""
    quot, carry = [], 0
    for c in p[:-1]:
        carry = c + 4 * carry
        quot.append(carry)
    return quot if not p or p[-1] == -4 * carry else None


class AlgebraicElement:
    """(P + Q*s) / (d * t^a * (1-4t)^b) with s^2 = 1 - 4t; the ring where every
    identity of the two ODE families can be checked exactly."""

    __slots__ = ("P", "Q", "d", "a", "b")

    def __init__(self, P=(), Q=(), d: int = 1, a: int = 0, b: int = 0):
        if d < 1 or a < 0 or b < 0:
            raise ValueError("need d >= 1 and a, b >= 0")
        P, Q = _trim(list(P)), _trim(list(Q))
        if not P and not Q:
            d, a, b = 1, 0, 0
        while a and not (P and P[0]) and not (Q and Q[0]):
            P, Q, a = P[1:], Q[1:], a - 1
        while b and (p := _div_u(P)) is not None and (q := _div_u(Q)) is not None:
            P, Q, b = p, q, b - 1
        g = gcd(d, *P, *Q)
        if g > 1:
            P, Q, d = [c // g for c in P], [c // g for c in Q], d // g
        self.P, self.Q, self.d, self.a, self.b = tuple(P), tuple(Q), d, a, b

    @staticmethod
    def from_rational(c) -> "AlgebraicElement":
        c = Fraction(c)
        return AlgebraicElement((c.numerator,), (), c.denominator)

    @staticmethod
    def catalan() -> "AlgebraicElement":
        """The Catalan generating function 2/(1+s), in normal form (1-s)/(2t)."""
        return AlgebraicElement((1,), (-1,), 2, 1)

    @staticmethod
    def half_power(e: int) -> "AlgebraicElement":
        """s^e = (1-4t)^q s^r with q, r = divmod(e, 2): (1-4t)^q in the
        numerator for q >= 0 and in the denominator for q < 0, times s (in Q)
        when r = 1."""
        q, r = divmod(e, 2)
        num, b = half_power_coeffs(2 * max(q, 0), max(q, 0)), max(-q, 0)
        return AlgebraicElement((), num, 1, 0, b) if r else AlgebraicElement(num, (), 1, 0, b)

    def is_zero(self) -> bool:
        return not self.P and not self.Q

    def _key(self):
        return self.P, self.Q, self.d, self.a, self.b

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraicElement) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _lift(self, d: int, a: int, b: int):
        """P and Q over the larger denominator d * t^a * u^b."""
        if (d, a, b) == (self.d, self.a, self.b):
            return self.P, self.Q
        j = b - self.b
        f = [0] * (a - self.a) + [d // self.d * c for c in half_power_coeffs(2 * j, j)]
        return _mul(self.P, f), _mul(self.Q, f)

    def __add__(self, other: "AlgebraicElement") -> "AlgebraicElement":
        d, a, b = lcm(self.d, other.d), max(self.a, other.a), max(self.b, other.b)
        (p1, q1), (p2, q2) = self._lift(d, a, b), other._lift(d, a, b)
        return AlgebraicElement(_add(p1, p2), _add(q1, q2), d, a, b)

    def __neg__(self) -> "AlgebraicElement":
        return self * -1

    def __sub__(self, other: "AlgebraicElement") -> "AlgebraicElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            # a rational scales P and Q; __init__ restores the normal form
            n = other.numerator
            return AlgebraicElement([n * c for c in self.P], [n * c for c in self.Q],
                                    self.d * other.denominator, self.a, self.b)
        p1, q1, p2, q2 = self.P, self.Q, other.P, other.Q
        return AlgebraicElement(
            _add(_mul(p1, p2), _mul(_mul(q1, q2), (1, -4))),
            _add(_mul(p1, q2), _mul(q1, p2)),
            self.d * other.d, self.a + other.a, self.b + other.b,
        )

    __rmul__ = __mul__

    def valuation_bound(self) -> int:
        """An upper bound on the index of the first nonzero Taylor coefficient
        of a nonzero element: i - a, where t^i is the lowest power in the norm
        (P + Qs)(P - Qs) = P^2 - Q^2 (1-4t), since P - Qs has valuation >= 0."""
        if self.is_zero():
            raise ValueError("zero has no valuation")
        norm = _add(_mul(self.P, self.P), [-c for c in _mul(_mul(self.Q, self.Q), (1, -4))])
        return next(k for k, c in enumerate(norm) if c) - self.a

    def derivative(self) -> "AlgebraicElement":
        # Over d t^(a+1) u^(b+1), with s' = -2s/u and
        # (t^a u^b)' t u / (t^a u^b) = a u - 4 b t:
        #   P' t u - P (a u - 4bt)   and   Q' t u - 2Qt - Q (a u - 4bt).
        a, b = self.a, self.b
        tu = (0, 1, -4)
        dP = [i * c for i, c in enumerate(self.P)][1:]
        dQ = [i * c for i, c in enumerate(self.Q)][1:]
        return AlgebraicElement(
            _add(_mul(dP, tu), _mul(self.P, (-a, 4 * (a + b)))),
            _add(_mul(dQ, tu), _mul(self.Q, (-a, 4 * (a + b) - 2))),
            self.d, a + 1, b + 1,
        )

    def to_series(self, order: int) -> Series:
        """Taylor coefficients 0..order of the element.

        Raises if the element (as a Laurent expansion at t=0) has a pole;
        P and Q*s may each have one as long as they cancel.
        """
        n = order + self.a + 1
        num = list(self.P[:n])
        if self.Q:
            num = _add(num, _mul(self.Q, half_power_coeffs(1, n - 1), n))
        if self.b:
            num = _mul(num, half_power_coeffs(-2 * self.b, n - 1), n)
        num += [0] * (n - len(num))
        if any(num[: self.a]):
            raise ValueError("element not regular at origin")
        return Series(num[self.a:], self.d)

    def __repr__(self):
        return (f"AlgebraicElement(P={list(self.P)}, Q={list(self.Q)}, "
                f"d={self.d}, a={self.a}, b={self.b})")
