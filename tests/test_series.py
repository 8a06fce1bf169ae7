import random
import subprocess
import sys
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catalan_ode.catalan import catalan_closed
from catalan_ode.exact import binomial_general
from catalan_ode.identities import _derivative
from catalan_ode.series import (
    Series,
    _mul,
    _square,
    _trim,
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
int_lists16 = st.lists(st.integers(-30, 30), min_size=17, max_size=17)


def _add(p, q) -> list[int]:
    """The sum of two coefficient lists, trailing zeros stripped."""
    return _trim([x + y for x, y in zip_longest(p, q, fillvalue=0)])


def test_mul_basic():
    assert _mul([1, 1], [1, 1], 2) == [1, 2]
    a = [1, 1, 0]
    assert _mul(a, a, 3) == [1, 2, 1]


def test_mul_truncates_to_common_order():
    a, b = [1, 1, 1, 1], [1, 1]
    assert _mul(a, b, min(len(a), len(b))) == [1, 2]
    assert _mul(a, b) == [1, 2, 2, 2, 1]


def test_catalan_times_one_plus_sqrt_is_two():
    k = 64
    one_plus_sqrt = _add([1], half_power_coeffs(1, k))
    assert _mul(catalan_series(k).num, one_plus_sqrt, k + 1) == [2] + [0] * k


def test_catalan_square_shifts_sequence():
    assert _square(catalan_series(5).num, 6) == [1, 2, 5, 14, 42, 132]


def test_catalan_first_power():
    c = catalan_series(4)
    assert (c.num, c.den) == ((1, 1, 2, 5, 14), 1)


def test_catalan_cube_coefficient():
    c = catalan_series(2).num
    assert _mul(_square(c, 3), c, 3)[2] == 9


def test_derivative_basic():
    assert _derivative((1, 3, 1)) == (3, 2)


def test_derivative_of_catalan():
    assert _derivative(catalan_series(3).num) == (1, 4, 15)


def test_nfold_derivative_coefficients():
    # coefficient of t^n in the N-th derivative is C_{n+N} (n+N)_N
    k, big_n = 12, 3
    d = catalan_series(k).num
    for _ in range(big_n):
        d = _derivative(d)
    for n in range(len(d)):
        falling = 1
        for j in range(big_n):
            falling *= n + big_n - j
        assert d[n] == catalan_closed(n + big_n) * falling


# (1-4t)^alpha for alpha = e/2 is s^e, s = sqrt(1-4t)
def test_binomial_power_alpha_one():
    assert half_power_coeffs(2, 2) == [1, -4, 0]


def test_binomial_power_geometric():
    assert half_power_coeffs(-2, 3) == [1, 4, 16, 64]


def test_binomial_power_half():
    s = half_power_coeffs(1, 4)
    assert s == [1, -2, -2, -4, -10]
    assert _square(s, 5) == [1, -4, 0, 0, 0]


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
    c = list(catalan_series(k).num)
    # C = 1 + t C^2, t C^2 a shift of the square
    assert _add([1], [0, *_square(c, k)]) == c


def test_sqrt_times_catalan():
    k = 32
    c = catalan_series(k).num
    assert _mul(half_power_coeffs(1, k), c, k + 1) == _add([2], [-x for x in c])


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


@given(int_lists16, int_lists16, int_lists16)
def test_ring_axioms(a, b, c):
    k = 17
    assert _mul(a, b, k) == _mul(b, a, k)
    assert _mul(_mul(a, b, k), c, k) == _mul(a, _mul(b, c, k), k)
    assert _trim(_mul(a, _add(b, c), k)) == _add(_mul(a, b, k), _mul(a, c, k))


@given(int_lists16, int_lists16)
def test_leibniz(a, b):
    k = 16
    assert _trim(list(_derivative(_mul(a, b, k + 1)))) == _add(
        _mul(_derivative(a), b, k), _mul(a, _derivative(b), k))


def naive_mul(a, b):
    """Reference product: the truncated Cauchy convolution over Fractions."""
    k = min(len(a), len(b)) - 1
    return [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0)) for n in range(k + 1)]


fraction_lists = st.lists(small_rationals, min_size=1, max_size=12)


@given(fraction_lists, fraction_lists)
def test_kernel_matches_fraction_arithmetic(a, b):
    """The kernel on the integer numerators of two rational series, over
    the product of their denominators, is the Cauchy product of the
    rationals; `_derivative` over the one denominator is d/dt."""
    sa, sb = Series(a), Series(b)
    k = min(len(a), len(b))
    den = sa.den * sb.den
    assert [Fraction(c, den) for c in _mul(sa.num, sb.num, k)] == naive_mul(a, b)
    if len(a) > 1:
        assert [Fraction(c, sa.den) for c in _derivative(sa.num)] == [
            n * c for n, c in enumerate(a) if n]


@given(fraction_lists)
def test_canonical_form(a):
    s = Series(a)
    den = lcm(*(c.denominator for c in a))
    assert s == Series([int(c * den) for c in a], den)
    assert s.den == den
    for n, c in enumerate(a):
        got = s.coeff(n)
        assert type(got) is Fraction and got == c
        assert gcd(got.numerator, got.denominator) == 1


@given(st.lists(st.integers(-2**70, 2**70), max_size=30), st.none() | st.integers(0, 70))
def test_square_is_the_product_with_itself(p, n):
    assert _square(p, n) == _mul(p, p, n)


@pytest.mark.parametrize("e", range(-5, 6))
def test_half_power_coeffs_match_sympy(e):
    """An outside oracle: [t^m] s^e = binom(e/2, m) (-4)^m in sympy's
    rationals, for m <= 60."""
    sympy = pytest.importorskip("sympy")
    half = sympy.Rational(e, 2)
    assert half_power_coeffs(e, 60) == [sympy.binomial(half, m) * (-4) ** m for m in range(61)]


def test_kernel_matches_sympy_products():
    """An outside oracle: `_mul(p, q, n)` and `_square(p, n)` are the
    truncated products of `sympy.Poly`, on seeded random integer lists."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20)
    for _ in range(200):
        p, q = ([rng.randint(-2**40, 2**40) * rng.randint(0, 1) for _ in range(rng.randint(1, 25))]
                for _ in range(2))
        n = rng.choice([None, rng.randint(0, 50)])
        for got, (a, b) in ((_mul(p, q, n), (p, q)), (_square(p, n), (p, p))):
            size = len(a) + len(b) - 1 if n is None else min(len(a) + len(b) - 1, n)
            product = sympy.Poly(a[::-1], x) * sympy.Poly(b[::-1], x)
            assert got == [product.nth(i) for i in range(size)]
