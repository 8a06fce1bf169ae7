from fractions import Fraction
from functools import cache, reduce
from itertools import zip_longest
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catalan_ode.algebraic import AlgebraicElement, _div_two_minus_c
from catalan_ode.identities import _derivative
from catalan_ode.series import (
    Series,
    _mul,
    first_mismatch,
    half_power_coeffs,
)

E = AlgebraicElement
TWO = E((2,))
C = E((1,), 1)
T = E((-1, 1), -2)  # t = (C-1)/C^2
TWO_MINUS_C = E((2, -1))


def _s(e: int) -> AlgebraicElement:
    """s^e = (2-C)^e C^(-e), the record ((1,), -e, -e)."""
    return E((1,), -e, -e)


S = _s(1)
U = _s(2)  # 1 - 4t = (2-C)^2/C^2

small_coeffs = st.lists(st.integers(-4, 4), max_size=3)
small_elem = st.builds(E, small_coeffs, st.integers(-2, 2), st.integers(-2, 2),
                       st.integers(1, 6))
nonzero_elem = small_elem.filter(lambda x: not x.is_zero())


@cache
def _generator():
    """C, the generator of sympy's field Q(C), the oracle of this file: the
    ring has no arithmetic, so sums and products are taken there."""
    sympy = pytest.importorskip("sympy")
    return sympy.field("C", sympy.QQ)[1]


def _value(x: AlgebraicElement):
    """The record x = p(C) C^k / (d (2-C)^m) as an element of sympy's Q(C)."""
    c = _generator()
    return sum((a * c**i for i, a in enumerate(x.p)), 0 * c) * c**x.k / (x.d * (2 - c) ** x.m)


def _record(f) -> AlgebraicElement:
    """The element f of sympy's Q(C), whose denominator is a rational q times
    C^a (2-C)^b, built by the constructor from the record
    (d P / q, -a, b, d), with d the least integer that makes d P / q integral."""
    num, den = f.numer, f.denom
    x = den.ring.gens[0]
    a = b = 0
    while not den.rem(x):
        den, a = den.quo(x), a + 1
    while not den.rem(2 - x):
        den, b = den.quo(2 - x), b + 1
    assert den.is_ground
    q = Fraction(int(den.LC.numerator), int(den.LC.denominator))
    coeffs = [Fraction(int(r.numerator), int(r.denominator)) / q for r in reversed(num.to_dense())]
    d = lcm(*(r.denominator for r in coeffs))
    return E([int(r * d) for r in coeffs], -a, b, d)


def _is_canonical(x: AlgebraicElement) -> bool:
    """p(0) != 0, p(2) != 0 and gcd(d, content p) = 1, or x = 0 as ((), 0, 0, 1)."""
    if x.is_zero():
        return (x.k, x.m, x.d) == (0, 0, 1)
    return bool(x.p[0]) and sum(c * 2**i for i, c in enumerate(x.p)) != 0 and gcd(x.d, *x.p) == 1


# Units of the ring as (unit, inverse) pairs: C, 2-C, s, 2, 1-4t, 1+s = 2/C,
# s^-3, -1, each paired with its inverse written out, and the same pairs
# swapped.
UNIT_FACTORS = [
    (C, E((1,), -1)),
    (TWO_MINUS_C, E((1,), 0, 1)),
    (S, _s(-1)),
    (TWO, E((1,), 0, 0, 2)),
    (U, _s(-2)),
    (E((2,), -1), E((1,), 1, 0, 2)),
    (_s(-3), _s(3)),
    (E((-1,)), E((-1,))),
]
UNIT_FACTORS += [(g, f) for f, g in UNIT_FACTORS]
# a product of unit factors and the product of their inverses, taken in sympy
unit_pair = st.lists(st.sampled_from(UNIT_FACTORS), min_size=1, max_size=4).map(
    lambda fs: tuple(_record(prod(_value(f[i]) for f in fs)) for i in (0, 1))
)


def _long_division(num, den):
    """(quotient, remainder) of two coefficient lists, lowest degree first,
    by schoolbook long division over the rationals, from the top."""
    num = [Fraction(c) for c in num]
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in reversed(range(len(quot))):
        quot[i] = num[i + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            num[i + j] -= quot[i] * d
    return quot, num[: len(den) - 1]


class TestNumerators:
    """The integer polynomial p of p(C) C^k / (d (2-C)^m)."""

    def test_trailing_zeros_stripped(self):
        x = E([1, 2, 0, 0])
        assert x.p == (1, 2)
        assert E([0, 0]).is_zero()

    def test_divmod_exact(self):
        # (2-C)(3 + C^2) over (2-C): one factor 2-C divides out
        x = E(_mul((2, -1), (3, 0, 1)), 0, 1)
        assert (x.p, x.m) == ((3, 0, 1), 0)
        # with no denominator the factor 2-C goes into m as m = -1
        x = E(_mul((2, -1), (3, 0, 1)))
        assert (x.p, x.m) == ((3, 0, 1), -1)
        # (2-C)^3 over (2-C)^2 leaves the one factor in m
        x = E(_mul(_mul((2, -1), (2, -1)), (2, -1)), 0, 2)
        assert (x.p, x.m) == ((1,), -1)
        # 2 + C is not a multiple of 2 - C, so the denominator stays
        assert E([2, 1], 0, 1).m == 1
        assert (TWO_MINUS_C.p, TWO_MINUS_C.m) == ((1,), -1)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=8).filter(
        lambda p: p[-1] and sum(c * 2**i for i, c in enumerate(p))), st.integers(0, 3))
    def test_division_by_two_minus_c(self, p, j):
        """p (2-C)^j, with p(2) != 0, divides by 2 - C exactly iff j >= 1, with
        the quotient of a reference long division, p (2-C)^(j-1)."""
        q = reduce(_mul, [(2, -1)] * j, p)
        quot, rem = _long_division(q, (2, -1))
        got = _div_two_minus_c(q)
        assert (got is None) == (j == 0) == (rem != [0])
        if j:
            assert got == quot == reduce(_mul, [(2, -1)] * (j - 1), p)

    @given(nonzero_elem)
    def test_canonical_numerator(self, x):
        """p(0) != 0, p(2) != 0 and gcd(d, content p) = 1."""
        assert x.p[0] != 0
        assert sum(c * 2**i for i, c in enumerate(x.p)) != 0
        assert gcd(x.d, *x.p) == 1

    def test_gcd_common_factor(self):
        x = E([6, 12], 0, 0, 30)
        assert (x.p, x.d) == ((1, 2), 5)

    def test_gcd_coprime_is_one(self):
        x = E([2, 4], 0, 0, 5)
        assert (x.p, x.d) == ((2, 4), 5)

    @given(small_elem, st.integers(1, 6))
    def test_gcd_divides_both(self, x, k):
        assert gcd(x.d, *x.p) == 1
        scaled = E([k * c for c in x.p], x.k, x.m, k * x.d)
        assert scaled == x


class TestNormalForm:
    """The canonical record (p, k, m, d)."""

    def test_canonical_form(self):
        # 2C(2-C) / (4 C^3 (2-C)) reduces to 1/(2 C^2)
        x = E([0, 4, -2], -3, 1, 4)
        assert (x.p, x.k, x.m, x.d) == ((1,), -2, 0, 2)
        assert x == E([1], -2, 0, 2)

    def test_zero_canonical(self):
        x = E([0], 3, 2, 7)
        assert (x.p, x.k, x.m, x.d) == ((), 0, 0, 1)
        assert x == E((0,), 0, 0, 1) == E()

    def test_quotient_rule(self):
        # d/dt (t / (1-4t)) = 1/(1-4t)^2
        x = _record(_value(T) / _value(U))
        assert x == E((-1, 1), 0, 2)
        assert x.derivative() == _s(-4)


class TestAlgebraicElement:
    def test_defining_relation(self):
        """s^2 = 1 - 4t: (2-C)^2 over C^2 is the record of s^2, whose value
        is 1 - 4t."""
        assert E(_mul((2, -1), (2, -1)), -2) == U
        assert _value(U) == _value(S) ** 2 == 1 - 4 * _value(T)

    def test_catalan_times_one_plus_s(self):
        assert _value(C) * (1 + _value(S)) == _value(TWO)
        assert _record(1 + _value(S)) == E((2,), -1)

    def test_s_times_catalan(self):
        assert _record(_value(S) * _value(C)) == TWO_MINUS_C == E((1,), 0, -1)

    @given(small_elem, unit_pair)
    @settings(max_examples=40)
    def test_canonical_form(self, x, pair):
        """x times a unit and then its inverse, taken in sympy, comes back
        as the record of x; x times the unit alone is a canonical record of
        that value."""
        y, y_inv = pair
        assert _value(y) * _value(y_inv) == 1
        assert _record(_value(x) * _value(y) * _value(y_inv)) == x
        xy = _record(_value(x) * _value(y))
        assert _is_canonical(xy) and _value(xy) == _value(x) * _value(y)

    def test_derivative_of_t_squared(self):
        assert _record(_value(T) ** 2).derivative() == _record(2 * _value(T))

    def test_derivative_of_s(self):
        # -2/s = -2C/(2-C)
        assert S.derivative() == E((-2,), 1, 1)

    def test_derivative_of_catalan(self):
        assert C.derivative() == _record(_value(C) ** 2 / _value(S)) == E((1,), 3, 1)
        # equivalent rational-function form (2C - C^2)/(1-4t)
        assert C.derivative() == _record((2 * _value(C) - _value(C) ** 2) / _value(U))

    def test_catalan_quadratic(self):
        # t C^2 is the record of t shifted by C^2, and equals C - 1
        assert E(T.p, T.k + 2, T.m, T.d) == E((-1, 1))
        assert _record(_value(T) * _value(C) ** 2 - _value(C) + 1).is_zero()

    def test_half_power_even(self):
        assert _record(_value(U) ** 2) == _s(4)
        assert _record(_value(U) * _value(S)) == _s(3)

    @given(st.integers(-40, 40))
    def test_half_power_is_a_record_shift(self, e):
        """s^e, taken in sympy, is the record ((1,), -e, -e)."""
        x = _record(_value(S) ** e)
        assert (x.p, x.k, x.m, x.d) == ((1,), -e, -e, 1)

    def test_half_power_negative(self):
        assert _s(-1) == E((1,), 1, 1)
        assert _record(_value(_s(-1)) ** 3) == _s(-3)
        for e in range(-9, 10):
            assert _value(_s(e)) * _value(_s(-e)) == 1

    def test_is_zero(self):
        assert E((0, 0), 3, 2, 7).is_zero()
        assert _record(_value(S) - _value(S)).is_zero()
        assert not _record(1 + _value(S)).is_zero() and not S.is_zero()

    def test_eq35_inverse_ode_row(self):
        """2 C^3 = -2 C' + (1-4t) C'', on the ring's derivatives."""
        d1 = C.derivative()
        assert _value(E((2,), 3)) == -2 * _value(d1) + _value(U) * _value(d1.derivative())

    @given(small_elem, small_elem, small_elem)
    @settings(max_examples=40)
    def test_ring_axioms(self, x, y, z):
        """Sums and products of records, taken in sympy, come back through
        the constructor as canonical records of the same value, one record
        per value whatever the order of the operands."""
        vx, vy, vz = map(_value, (x, y, z))
        for f in (vx + vy, vx * vy, (vx + vy) * vz, vx - vx):
            r = _record(f)
            assert _is_canonical(r) and _value(r) == f
        assert _record(vx + vy) == _record(vy + vx)
        assert _record((vx * vy) * vz) == _record(vx * (vy * vz))
        assert _record(vx) == x

    @given(small_elem, st.sampled_from([0, 1, -1, 3, -3, 2**70 + 1]))
    @settings(max_examples=40)
    def test_int_scaling_is_the_ring_product(self, x, c):
        """Scaling p by an int gives the element times c."""
        assert E([c * a for a in x.p], x.k, x.m, x.d) == _record(c * _value(x))

    @given(small_elem, small_elem, st.integers(1, 6))
    @settings(max_examples=40)
    def test_equality_is_the_zero_test(self, x, y, k):
        """With one canonical record per element, == is the zero test of the
        difference in Q(C), for an unrelated y and for x written over
        k C^-1 (2-C)."""
        same = E(_mul(x.p, (0, 2 * k, -k)), x.k - 1, x.m + 1, k * x.d)
        assert x == same
        for z in (y, same):
            assert (x == z) is (_value(x) - _value(z) == 0)

    @given(small_elem, small_coeffs)
    @settings(max_examples=40)
    def test_sum_over_a_shared_denominator(self, x, p):
        """Numerators over a shared k, m and d add: the record of their sum
        is the sum of the elements."""
        y = E(p, x.k, x.m, x.d)
        assume((y.k, y.m, y.d) == (x.k, x.m, x.d))
        total = [a + b for a, b in zip_longest(x.p, y.p, fillvalue=0)]
        assert E(total, x.k, x.m, x.d) == _record(_value(x) + _value(y))

    @given(small_elem, small_elem)
    @settings(max_examples=40)
    def test_leibniz(self, x, y):
        vx, vy = _value(x), _value(y)
        product = _record(vx * vy).derivative()
        assert _value(product) == _value(x.derivative()) * vy + vx * _value(y.derivative())

    @given(small_elem, small_elem, small_elem)
    @settings(max_examples=40)
    def test_distributivity(self, x, y, z):
        """The derivative distributes over sums: D(x + y - 3z) = Dx + Dy - 3Dz."""
        total = _record(_value(x) + _value(y) - 3 * _value(z))
        assert _value(total.derivative()) == (_value(x.derivative()) + _value(y.derivative())
                                              - 3 * _value(z.derivative()))

    @given(st.lists(st.integers(-50, 50), max_size=8), st.integers(-6, 6),
           st.integers(-6, 6), st.integers(1, 12))
    @settings(max_examples=100)
    def test_one_pass_derivative(self, p, k, m, d):
        """The one-pass derivative is D = C^3/(2-C) d/dC, taken in sympy."""
        x = E(p, k, m, d)
        c = _generator()
        assert _value(x.derivative()) == c**3 / (2 - c) * _value(x).diff(c)

    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-4, 4), small_elem),
                    min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_combination_is_the_sum_of_products(self, terms):
        """sum_j c_j s^(e_j) x_j, taken in sympy as one record, has the
        Taylor coefficients of the series sum of the terms'."""
        got = _record(sum((c * _value(_s(e)) * _value(x) for c, e, x in terms),
                          0 * _generator()))
        series = [Fraction(0)] * 7
        for c, e, x in terms:
            sx = x.to_series(6)
            for n, v in enumerate(_mul(half_power_coeffs(e, 6), sx.num, 7)):
                series[n] += Fraction(c * v, sx.den)
        assert first_mismatch(got.to_series(6), Series(series)) is None

    @given(nonzero_elem, st.integers(0, 3))
    @settings(max_examples=40)
    def test_valuation_is_exact(self, x, j):
        """Coefficients 0..v-1 of a nonzero element vanish and coefficient v
        does not, also for x times t^j, whose valuation is v + j."""
        v = x.valuation()
        x = _record(_value(x) * _value(T) ** j)
        assert x.valuation() == v + j
        sx = x.to_series(v + j)
        assert not any(sx.num[:v + j]) and sx.num[v + j]

    def test_valuation_of_zero(self):
        with pytest.raises(ValueError, match="no valuation"):
            E().valuation()


def _evaluate(x: AlgebraicElement, r: Fraction) -> Fraction:
    """x at the point t = (1 - r^2)/4 where sqrt(1-4t) = r, so that
    C = 2/(1 + r)."""
    c = 2 / (1 + r)
    return sum((a * c**i for i, a in enumerate(x.p)), Fraction(0)) * c**x.k / (
        x.d * (2 - c) ** x.m)


@pytest.mark.parametrize("r", [Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)])
def test_catalan_derivatives_match_sympy(r):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    closed = 2 / (1 + sympy.sqrt(1 - 4 * t))
    t0 = (1 - r * r) / 4
    x = C
    for n in range(1, 7):
        x = x.derivative()
        expected = sympy.diff(closed, t, n).subs(t, sympy.Rational(t0.numerator, t0.denominator))
        assert expected.is_Rational
        assert _evaluate(x, r) == Fraction(int(expected.p), int(expected.q))


class TestToSeries:
    def test_catalan_expansion(self):
        assert C.to_series(3) == Series([1, 1, 2, 5])

    def test_s_expansion(self):
        assert S.to_series(2) == Series(half_power_coeffs(1, 2))
        for e in range(-9, 10):
            assert _s(e).to_series(12) == Series(half_power_coeffs(e, 12)), e

    def test_geometric_expansion(self):
        assert _s(-2).to_series(2) == Series([1, 4, 16])

    def test_denominator_d(self):
        # (1 + s)/3 = 2/(3C) = (2 - 2t - 2t^2 - ...)/3
        x = E((2,), -1, 0, 3)
        assert x == _record((1 + _value(S)) / 3)
        assert x.to_series(2) == Series([Fraction(2, 3), Fraction(-2, 3), Fraction(-2, 3)])

    @given(small_elem)
    @settings(max_examples=25)
    def test_order_zero_is_the_constant_term(self, x):
        """to_series(0), p(1) / d since C, 1/C and s are 1 at t = 0, is the
        constant term of a longer expansion."""
        assert x.to_series(0) == Series([x.to_series(6).coeff(0)])

    @given(small_elem, small_elem)
    @settings(max_examples=25)
    def test_bridge_is_multiplicative(self, x, y):
        k = 10
        sx, sy = x.to_series(k), y.to_series(k)
        product = Series(_mul(sx.num, sy.num, k + 1), sx.den * sy.den)
        assert first_mismatch(_record(_value(x) * _value(y)).to_series(k), product) is None

    @given(small_elem)
    @settings(max_examples=25)
    def test_bridge_commutes_with_derivative(self, x):
        k = 10
        sx, dx = x.to_series(k), x.derivative().to_series(k - 1)
        assert first_mismatch(Series(_derivative(sx.num), sx.den), dx) is None
