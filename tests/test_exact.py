from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catalan_ode.exact import binomial_general, double_factorial_odd


class TestDoubleFactorial:
    def test_five(self):
        assert double_factorial_odd(5) == 15

    def test_minus_one_convention(self):
        assert double_factorial_odd(-1) == 1

    def test_nine(self):
        assert double_factorial_odd(9) == 945

    @pytest.mark.parametrize("k", [4, 0, -3, -7])
    def test_out_of_domain(self, k):
        with pytest.raises(ValueError, match="out of domain"):
            double_factorial_odd(k)

    def test_cross_identity_with_factorial(self):
        for n in range(0, 21):
            assert double_factorial_odd(2 * n - 1) * 2**n * factorial(n) == factorial(2 * n)


class TestBinomialGeneral:
    def test_half_two(self):
        assert binomial_general(Fraction(1, 2), 2) == Fraction(-1, 8)

    def test_m_zero(self):
        assert binomial_general(Fraction(-17, 5), 0) == 1

    def test_minus_half_one(self):
        assert binomial_general(Fraction(-1, 2), 1) == Fraction(-1, 2)

    @given(st.integers(0, 20), st.integers(0, 20))
    def test_matches_integer_binomial(self, m, extra):
        from math import comb

        k = m + extra
        assert binomial_general(k, m) == comb(k, m)


@given(
    st.fractions(max_denominator=10**9),
    st.fractions(max_denominator=10**9).filter(lambda f: f != 0),
)
def test_rational_arithmetic_exact(a, c):
    assert (a + c) - c == a
    assert (a * c) / c == a
