import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from catalan_ode.catalan import (
    catalan_asymptotic_ratio,
    catalan_closed,
    catalan_recurrence,
    higher_catalan,
)
from catalan_ode.identities import series_table
from catalan_ode.series import _mul, catalan_series, half_power_coeffs

FIRST_THIRTEEN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def test_closed_form_values():
    assert [catalan_closed(n) for n in range(13)] == FIRST_THIRTEEN
    assert catalan_closed(5) == 42
    assert catalan_closed(12) == 208012


def test_recurrence_values():
    assert catalan_recurrence(4) == [1, 1, 2, 5, 14]


def test_recurrence_c3_by_hand():
    assert catalan_recurrence(3)[3] == 1 * 2 + 1 * 1 + 2 * 1


def test_three_routes_agree():
    seq = catalan_recurrence(200)
    gen = catalan_series(200)
    for n in range(201):
        assert seq[n] == catalan_closed(n) == gen.coeff(n)


def test_higher_order_one_is_catalan():
    for n in range(30):
        assert higher_catalan(1, n) == catalan_closed(n)


def test_higher_order_two_shifts():
    assert higher_catalan(2, 3) == 14
    for n in range(101):
        assert higher_catalan(2, n) == catalan_closed(n + 1)


def test_higher_order_three():
    assert higher_catalan(3, 2) == 9


def test_higher_order_constant_term():
    for r in range(1, 11):
        assert higher_catalan(r, 0) == 1


def test_higher_order_matches_series_powers():
    # the series_table of N = 4 at order 16 holds F_(r-1) = s^(r-1) C^r to
    # order 17 - r, s = sqrt(1-4t), for r = 1..5 (F_0 = C is E_0), so
    # s^(1-r) F_(r-1) is C^1..C^5 at order 12
    fcols, ecols = series_table(4, 16)
    rows = [[col[-1] for col in ecols]] + [[col[i] for col in fcols[:13]] for i in range(4)]
    for r, row in enumerate(rows, 1):
        power = _mul(half_power_coeffs(1 - r, 12), row[:13], 13)
        for n in range(13):
            assert higher_catalan(r, n) == power[n]


def test_higher_order_rejects_bad_order():
    with pytest.raises(ValueError):
        higher_catalan(0, 3)


def test_asymptotic_ratio_at_1000():
    r = catalan_asymptotic_ratio(1000)
    assert Decimal("0.99") < r < Decimal("1.01")


def test_asymptotic_ratio_at_10():
    r = catalan_asymptotic_ratio(10)
    assert Decimal("0.8") < r < Decimal("1.0")


def test_asymptotic_ratio_monotone_toward_one():
    assert catalan_asymptotic_ratio(100) < catalan_asymptotic_ratio(1000) < 1


def test_divisibility_check_survives_optimize_flag():
    # Under python -O an assert would vanish and a wrong binomial would be
    # silently floor-divided; the explicit check must still raise.
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import math\n"
        "import catalan_ode.catalan as cat\n"
        "cat.comb = lambda n, k: math.comb(n, k) + 1\n"
        "try:\n"
        "    cat.catalan_closed(2)\n"
        "except ArithmeticError:\n"
        "    print('raised')\n"
        "else:\n"
        "    print('returned')\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "raised"
