from fractions import Fraction
from functools import reduce
from math import gcd
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catalan_ode.algebraic import AlgebraicElement
from catalan_ode.series import (
    Series,
    _add,
    _mul,
    catalan_series,
    first_mismatch,
    half_power_coeffs,
)

E = AlgebraicElement
ONE = E.from_rational(1)
TWO = E.from_rational(2)
S = E.half_power(1)
T = E((0, 1))
U = E((1, -4))  # 1 - 4t

small_coeffs = st.lists(st.integers(-4, 4), max_size=3)
small_elem = st.builds(E, small_coeffs, small_coeffs,
                       st.integers(1, 6), st.integers(0, 2), st.integers(0, 2))
nonzero_elem = small_elem.filter(lambda x: not x.is_zero())

# Units of the ring as (unit, inverse) pairs: s, t, 2, 1-4t, 1+s, 1-s, s^-3,
# -1, each paired with its inverse written out, and the same pairs swapped.
UNIT_FACTORS = [
    (S, E.half_power(-1)),
    (T, E((1,), (), 1, 1)),
    (TWO, E.from_rational(Fraction(1, 2))),
    (U, E.half_power(-2)),
    (ONE + S, E.catalan() * Fraction(1, 2)),
    (ONE - S, E((1,), (1,), 4, 1)),
    (E.half_power(-3), E.half_power(3)),
    (-ONE, -ONE),
]
UNIT_FACTORS += [(g, f) for f, g in UNIT_FACTORS]
# a product of unit factors and the product of their inverses
unit_pair = st.lists(st.sampled_from(UNIT_FACTORS), min_size=1, max_size=4).map(
    lambda fs: (reduce(mul, (f for f, _ in fs)), reduce(mul, (g for _, g in fs)))
)


class TestNumerators:
    """The integer numerator polynomials P and Q of (P + Q s)/(d t^a u^b)."""

    def test_trailing_zeros_stripped(self):
        x = E([1, 2, 0, 0], [0, 0])
        assert x.P == (1, 2) and x.Q == ()
        assert E([0, 0]).is_zero()

    def test_divmod_exact(self):
        # (1-4t)(2 + 3t^2) and (1-4t) over (1-4t): one factor u divides out
        x = E([2, -8, 3, -12], [1, -4], 1, 0, 1)
        assert (x.P, x.Q, x.b) == ((2, 0, 3), (1,), 0)
        # 1 + 4t is not a multiple of 1 - 4t, so the denominator stays
        assert E([1, 4], (), 1, 0, 1).b == 1

    def test_gcd_common_factor(self):
        x = E([6, 12], [18], 30)
        assert (x.P, x.Q, x.d) == ((1, 2), (3,), 5)

    def test_gcd_coprime_is_one(self):
        x = E([2, 4], [6], 5)
        assert (x.P, x.Q, x.d) == ((2, 4), (6,), 5)

    @given(small_elem, st.integers(1, 6))
    def test_gcd_divides_both(self, x, k):
        assert gcd(x.d, *x.P, *x.Q) == 1
        scaled = E([k * c for c in x.P], [k * c for c in x.Q], k * x.d, x.a, x.b)
        assert scaled == x


class TestNormalForm:
    """The canonical record of elements with Q = 0, the rational functions
    P/(d t^a u^b)."""

    def test_canonical_form(self):
        # 2t(1-4t) / (4 t^2 (1-4t)) reduces to 1/(2t)
        x = E([0, 2, -8], (), 4, 2, 1)
        assert (x.P, x.Q, x.d, x.a, x.b) == ((1,), (), 2, 1, 0)
        assert x == E([1], (), 2, 1)

    def test_zero_canonical(self):
        x = E([0], [], 7, 3, 2)
        assert (x.P, x.Q, x.d, x.a, x.b) == ((), (), 1, 0, 0)
        assert x == E.from_rational(0)

    def test_quotient_rule(self):
        # d/dt (t / (1-4t)) = 1/(1-4t)^2
        x = E([0, 1], (), 1, 0, 1)
        assert x.derivative() == E([1], (), 1, 0, 2)


class TestAlgebraicElement:
    def test_defining_relation(self):
        assert S * S == U

    def test_catalan_times_one_plus_s(self):
        assert E.catalan() * (ONE + S) == TWO

    def test_s_times_catalan(self):
        c = E.catalan()
        assert S * c == TWO - c

    @given(small_elem, unit_pair)
    @settings(max_examples=40)
    def test_canonical_form(self, x, pair):
        y, y_inv = pair
        assert y * y_inv == ONE
        z = x * y * y_inv
        assert z == x and hash(z) == hash(x)
        w = x + y - y
        assert w == x and hash(w) == hash(x)

    def test_derivative_of_t_squared(self):
        assert E([0, 0, 1]).derivative() == E([0, 2])

    def test_derivative_of_s(self):
        assert S.derivative() == E((), (-2,), 1, 0, 1)

    def test_derivative_of_catalan(self):
        c = E.catalan()
        assert c.derivative() == E.half_power(-1) * c * c
        # equivalent rational-function form (2C - C^2)/(1-4t)
        assert c.derivative() == E.half_power(-2) * (TWO * c - c * c)

    def test_catalan_quadratic(self):
        c = E.catalan()
        assert (T * c * c - c + ONE).is_zero()

    def test_half_power_even(self):
        assert E.half_power(2) == U
        assert E.half_power(3) == U * S

    def test_half_power_negative(self):
        assert E.half_power(-1) == E((), (1,), 1, 0, 1)
        inv = E.half_power(-1)
        assert E.half_power(-3) == inv * inv * inv
        for e in range(-9, 10):
            assert E.half_power(e) * E.half_power(-e) == ONE

    def test_is_zero(self):
        assert (S - S).is_zero()
        assert not (ONE + S).is_zero()

    def test_eq35_inverse_ode_row(self):
        c = E.catalan()
        lhs = 2 * c * c * c
        rhs = -2 * c.derivative() + U * c.derivative().derivative()
        assert (lhs - rhs).is_zero()

    @given(small_elem, small_elem, small_elem)
    @settings(max_examples=40)
    def test_ring_axioms(self, x, y, z):
        assert x + y == y + x and x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x + E() == x and x * ONE == x
        assert (x - x).is_zero()

    @given(small_elem, st.sampled_from([0, 1, -1, 3, -3, 2**70 + 1]))
    @settings(max_examples=40)
    def test_int_scaling_is_the_ring_product(self, x, c):
        """Scaling P and Q by an int gives the product with the ring's c."""
        assert x * c == x * E.from_rational(c) == c * x

    @given(small_elem, small_elem, st.integers(1, 6))
    @settings(max_examples=40)
    def test_equality_is_the_zero_test(self, x, y, k):
        """With one canonical record per element, == is the zero test of the
        difference, for an unrelated y and for x written over k t (1-4t)."""
        f = (0, k, -4 * k)
        same = E(_mul(x.P, f), _mul(x.Q, f), k * x.d, x.a + 1, x.b + 1)
        assert x == same
        for z in (y, same):
            assert (x == z) is (x - z).is_zero()

    @given(small_elem, small_coeffs, small_coeffs)
    @settings(max_examples=40)
    def test_sum_over_a_shared_denominator(self, x, p, q):
        """Operands that already share d, a and b add their numerators."""
        y = E(p, q, x.d, x.a, x.b)
        assume((y.d, y.a, y.b) == (x.d, x.a, x.b))
        assert x + y == E(_add(x.P, y.P), _add(x.Q, y.Q), x.d, x.a, x.b)

    @given(small_elem, small_elem)
    @settings(max_examples=40)
    def test_leibniz(self, x, y):
        assert ((x * y).derivative() - (x.derivative() * y + x * y.derivative())).is_zero()

    @given(small_elem, small_elem, small_elem)
    @settings(max_examples=40)
    def test_distributivity(self, x, y, z):
        assert (x * (y + z) - (x * y + x * z)).is_zero()

    @given(nonzero_elem)
    @settings(max_examples=40)
    def test_valuation_bound(self, x):
        k = x.valuation_bound()
        try:
            sx = x.to_series(max(k, 0))
        except ValueError:
            return  # only regular elements bridge
        assert any(sx.coeffs[: k + 1])


def _evaluate(x: AlgebraicElement, t: Fraction, s: Fraction) -> Fraction:
    """x at a point t where sqrt(1-4t) = s is rational."""
    def poly(p):
        return sum((c * t**i for i, c in enumerate(p)), Fraction(0))

    return (poly(x.P) + poly(x.Q) * s) / (x.d * t**x.a * (s * s) ** x.b)


@pytest.mark.parametrize("r", [Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)])
def test_catalan_derivatives_match_sympy(r):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    closed = 2 / (1 + sympy.sqrt(1 - 4 * t))
    t0 = (1 - r * r) / 4
    x = E.catalan()
    for n in range(1, 7):
        x = x.derivative()
        expected = sympy.diff(closed, t, n).subs(t, sympy.Rational(t0.numerator, t0.denominator))
        assert expected.is_Rational
        assert _evaluate(x, t0, r) == Fraction(int(expected.p), int(expected.q))


class TestToSeries:
    def test_catalan_expansion(self):
        assert E.catalan().to_series(3) == Series([1, 1, 2, 5])

    def test_s_expansion(self):
        assert S.to_series(2) == Series(half_power_coeffs(1, 2))

    def test_geometric_expansion(self):
        assert E.half_power(-2).to_series(2) == Series([1, 4, 16])

    def test_denominator_d(self):
        # (1 + s)/3 = (2 - 2t - 2t^2 - ...)/3
        assert E([1], [1], 3).to_series(2) == Series([Fraction(2, 3), Fraction(-2, 3),
                                                      Fraction(-2, 3)])

    def test_pole_detected(self):
        x = E([1], (), 1, 1)  # 1/t
        with pytest.raises(ValueError, match="not regular at origin"):
            x.to_series(4)

    def test_cancelling_poles_are_fine(self):
        # (1 - s)/(2t) has a pole in each part that cancels in the sum
        assert E.catalan().to_series(6) == catalan_series(6)

    @given(small_elem, small_elem)
    @settings(max_examples=25)
    def test_bridge_is_multiplicative(self, x, y):
        k = 10
        try:
            sx, sy = x.to_series(k), y.to_series(k)
        except ValueError:
            return  # only regular elements bridge
        assert first_mismatch((x * y).to_series(k), sx * sy) is None

    @given(small_elem)
    @settings(max_examples=25)
    def test_bridge_commutes_with_derivative(self, x):
        k = 10
        try:
            sx = x.to_series(k)
            dx = x.derivative().to_series(k - 1)
        except ValueError:
            return
        assert first_mismatch(sx.derivative(), dx) is None
