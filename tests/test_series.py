import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catalan_ode.catalan import catalan_closed
from catalan_ode.exact import binomial_general
from catalan_ode.series import (
    Series,
    _mul,
    _square,
    catalan_series,
    first_mismatch,
    half_power_coeffs,
    sqrt_one_plus_series,
)

# every n/d with d <= 6 and |n/d| <= 5, the support of
# st.fractions(min_value=-5, max_value=5, max_denominator=6), generated
# about three times faster
small_rationals = st.integers(1, 6).flatmap(
    lambda d: st.integers(-5 * d, 5 * d).map(lambda n: Fraction(n, d))
)
series16 = st.lists(small_rationals, min_size=17, max_size=17).map(Series)


def test_add_basic():
    assert Series([1, 1]) + Series([1, -1]) == Series([2, 0])


def test_add_identity():
    a = Series([3, Fraction(1, 2), -4])
    assert a + Series([0, 0, 0]) == a


def test_catalan_minus_itself():
    c = catalan_series(8)
    assert c + (-c) == Series([0] * 9)


def test_mul_basic():
    assert Series([1, 1]) * Series([1, 1]) == Series([1, 2])
    a = Series([1, 1, 0])
    assert a * a == Series([1, 2, 1])


def test_mul_truncates_to_common_order():
    a = Series([1, 1, 1, 1])
    b = Series([1, 1])
    assert (a * b).order == 1


def test_catalan_times_one_plus_sqrt_is_two():
    k = 64
    one_plus_sqrt = Series([1] + [0] * k) + Series(half_power_coeffs(1, k))
    assert catalan_series(k) * one_plus_sqrt == Series([2] + [0] * k)


def test_catalan_square_shifts_sequence():
    c = catalan_series(5)
    sq = c * c
    assert list(sq.coeffs) == [1, 2, 5, 14, 42, 132]


def test_catalan_first_power():
    assert list(catalan_series(4).coeffs) == [1, 1, 2, 5, 14]


def test_catalan_cube_coefficient():
    c = catalan_series(2)
    assert (c * c * c).coeff(2) == 9


def test_derivative_basic():
    assert Series([1, 3, 1]).derivative() == Series([3, 2])


def test_derivative_of_catalan():
    assert catalan_series(3).derivative() == Series([1, 4, 15])


def test_derivative_order_zero_errors():
    with pytest.raises(ValueError, match="order-0"):
        Series([1]).derivative()


def test_nfold_derivative_coefficients():
    # coefficient of t^n in the N-th derivative is C_{n+N} (n+N)_N
    k, big_n = 12, 3
    d = catalan_series(k)
    for _ in range(big_n):
        d = d.derivative()
    for n in range(d.order + 1):
        falling = 1
        for j in range(big_n):
            falling *= n + big_n - j
        assert d.coeff(n) == catalan_closed(n + big_n) * falling


# (1-4t)^alpha for alpha = e/2 is s^e, s = sqrt(1-4t)
def test_binomial_power_alpha_one():
    assert half_power_coeffs(2, 2) == [1, -4, 0]


def test_binomial_power_geometric():
    assert half_power_coeffs(-2, 3) == [1, 4, 16, 64]


def test_binomial_power_half():
    s = Series(half_power_coeffs(1, 4))
    assert s.num == (1, -2, -2, -4, -10)
    assert s * s == Series([1, -4, 0, 0, 0])


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-5, 2),
                                   -3])
def test_binomial_power_inverse_pairs(alpha):
    k = 24
    e = int(2 * alpha)
    assert _mul(half_power_coeffs(e, k), half_power_coeffs(-e, k), k + 1) == [1] + [0] * k


@pytest.mark.parametrize("e", range(-9, 10))
def test_half_power_coeffs_match_binomial(e):
    """[t^m] s^e = binom(e/2, m) (-4)^m, zero past t^(e/2) for even e >= 0."""
    k = 30
    cs = half_power_coeffs(e, k)
    assert all(type(c) is int for c in cs)
    assert cs == [binomial_general(Fraction(e, 2), m) * (-4) ** m for m in range(k + 1)]


def test_catalan_satisfies_quadratic():
    k = 40
    c = catalan_series(k)
    t = Series([0, 1] + [0] * (k - 1))
    assert Series([1] + [0] * k) + t * c * c == c


def test_sqrt_times_catalan():
    k = 32
    c = catalan_series(k)
    s = Series(half_power_coeffs(1, k))
    assert s * c == Series([2] + [0] * k) - c


def test_sqrt_one_plus_terms():
    s = sqrt_one_plus_series(4)
    assert s.coeff(0) == 1
    assert s.coeff(2) == Fraction(-1, 8)


def test_sqrt_one_plus_matches_binomial_series():
    k = 64
    s = sqrt_one_plus_series(k)
    for n in range(k + 1):
        assert s.coeff(n) == binomial_general(Fraction(1, 2), n)


def test_catalan_coefficients_match_closed_form():
    c = catalan_series(100)
    for n in range(101):
        assert c.coeff(n) == catalan_closed(n)


def test_ratio_check_survives_optimize_flag():
    # A ratio step patched off by one leaves a remainder; the explicit
    # check must raise with and without python -O, where an assert would
    # vanish and the list would be silently floor-divided.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import catalan_ode.series as ser\n"
        "ser.divmod = lambda a, b: divmod(a + 1, b)\n"
        "try:\n"
        "    ser.catalan_series(4)\n"
        "except ArithmeticError:\n"
        "    print('raised')\n"
        "else:\n"
        "    print('returned')\n"
    )
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", code],
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "raised"


def test_first_mismatch():
    assert first_mismatch(Series([1, 2]), Series([1, 2, 9])) is None
    assert first_mismatch(Series([1, 2, 3]), Series([1, 5, 3])) == (1, 2, 5)


@given(series16, series16, series16)
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(series16, series16)
def test_leibniz(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def naive_mul(a, b):
    """Reference product: the truncated Cauchy convolution over Fractions."""
    k = min(len(a), len(b)) - 1
    return [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0)) for n in range(k + 1)]


fraction_lists = st.lists(small_rationals, min_size=1, max_size=12)


@given(fraction_lists, fraction_lists)
def test_kernel_matches_fraction_arithmetic(a, b):
    sa, sb = Series(a), Series(b)
    k = min(len(a), len(b))
    assert list((sa * sb).coeffs) == naive_mul(a, b)
    assert list((sa + sb).coeffs) == [x + y for x, y in zip(a[:k], b[:k])]
    if len(a) > 1:
        assert list(sa.derivative().coeffs) == [n * c for n, c in enumerate(a) if n]


@given(fraction_lists)
def test_canonical_form(a):
    s = Series(a)
    den = lcm(*(c.denominator for c in a))
    numerators = Series([int(c * den) for c in a])
    zero = Series([0] * len(a))
    for t in (Series(numerators.num, den), numerators * Fraction(1, den) + zero):
        assert s == t and hash(s) == hash(t)
    assert s.den == den
    for n, c in enumerate(a):
        got = s.coeff(n)
        assert type(got) is Fraction and got == c
        assert gcd(got.numerator, got.denominator) == 1


@given(st.lists(st.integers(-2**70, 2**70), max_size=30), st.none() | st.integers(0, 70))
def test_square_is_the_product_with_itself(p, n):
    assert _square(p, n) == _mul(p, p, n)
