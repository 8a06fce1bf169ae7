import json
from math import factorial

import pytest

from catalan_ode.coefficients import (
    CoeffTable,
    a_closed_form,
    a_table_recurrence,
    b_closed_form,
    b_table_recurrence,
    s_number,
)
from catalan_ode.exact import double_factorial_odd


class TestAFamily:
    def test_first_rows(self):
        t = a_table_recurrence(3)
        assert t.row(1) == (1,)
        assert t.row(2) == (2, 2)
        assert t.row(3) == (12, 12, 6)

    def test_boundary_columns(self):
        t = a_table_recurrence(12)
        for n in range(1, 13):
            assert t.entry(1, n) == 2 ** (n - 1) * double_factorial_odd(2 * n - 3)
            assert t.entry(n, n) == factorial(n)

    def test_all_positive(self):
        t = a_table_recurrence(12)
        assert all(e > 0 for row in t.rows for e in row)

    def test_closed_form_edges(self):
        assert a_closed_form(1, 1) == 1
        assert a_closed_form(2, 3) == 12
        for n in range(1, 11):
            assert a_closed_form(n, n) == factorial(n)

    def test_closed_form_matches_recurrence(self):
        t = a_table_recurrence(12)
        for n in range(1, 13):
            for i in range(1, n + 1):
                assert a_closed_form(i, n) == t.entry(i, n)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            a_closed_form(0, 3)
        with pytest.raises(IndexError):
            a_closed_form(4, 3)
        with pytest.raises(IndexError):
            a_table_recurrence(3).entry(4, 3)


class TestSNumbers:
    def test_triangular(self):
        assert s_number(4, 1) == 10

    def test_depth_two(self):
        assert s_number(1, 2) == 3
        assert s_number(2, 2) == 15

    def test_positive(self):
        assert all(s_number(n, j) > 0 for n in range(1, 10) for j in range(1, 5))

    def test_domain(self):
        with pytest.raises(ValueError):
            s_number(0, 1)


class TestBFamily:
    def test_first_rows(self):
        t = b_table_recurrence(4)
        assert t.row(1) == (1,)
        assert t.row(2) == (1, -2)
        assert t.row(3) == (1, -6)
        assert t.row(4) == (1, -12, 12)

    def test_b0_always_one(self):
        t = b_table_recurrence(16)
        assert all(row[0] == 1 for row in t.rows)

    def test_sign_alternation(self):
        t = b_table_recurrence(16)
        for row in t.rows:
            for i, e in enumerate(row[1:], start=1):
                assert e * (-1) ** i > 0

    def test_closed_form_examples(self):
        assert b_closed_form(0, 7) == 1
        assert b_closed_form(1, 3) == -6
        assert b_closed_form(2, 4) == 12
        assert b_closed_form(2, 4) == (-2) ** 2 * s_number(1, 2)

    def test_closed_form_matches_recurrence(self):
        t = b_table_recurrence(16)
        for n in range(1, 17):
            for i in range(n // 2 + 1):
                assert b_closed_form(i, n) == t.entry(i, n)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            b_closed_form(3, 4)
        with pytest.raises(IndexError):
            b_table_recurrence(4).entry(3, 4)


class TestJsonExport:
    def test_schema(self):
        t = a_table_recurrence(3)
        doc = json.loads(t.to_json())
        assert doc == {
            "family": "a",
            "rows": [
                {"N": 1, "entries": ["1"]},
                {"N": 2, "entries": ["2", "2"]},
                {"N": 3, "entries": ["12", "12", "6"]},
            ],
        }

    def test_big_entries_stay_exact(self):
        t = a_table_recurrence(40)
        doc = json.loads(t.to_json())
        assert int(doc["rows"][39]["entries"][0]) == t.entry(1, 40)


class TestRowWidth:
    """Row n holds n entries in family a and n//2 + 1 in family b; a table
    with a row of any other width is never built, so neither mode of
    thm1/thm3, thm2/thm4 nor eq57 reads an entry past the row, or misses
    one, and `entry` returns no extra value."""

    @pytest.mark.parametrize("n", [1, 6, 7, 8])
    @pytest.mark.parametrize("change", ["extra", "missing"])
    @pytest.mark.parametrize("family", ["a", "b"])
    def test_wrong_width_raises(self, family, change, n):
        table = a_table_recurrence(8) if family == "a" else b_table_recurrence(8)
        rows = [list(r) for r in table.rows]
        if change == "extra":
            rows[n - 1].append(5)
        else:
            rows[n - 1].pop()
        width = n if family == "a" else n // 2 + 1
        got = width + 1 if change == "extra" else width - 1
        with pytest.raises(ValueError, match=f"row {n} of family {family} has {got} entries, "
                                             f"not {width}"):
            CoeffTable(family, tuple(map(tuple, rows)))

    def test_true_widths_build(self):
        for family, table in (("a", a_table_recurrence(40)), ("b", b_table_recurrence(40))):
            assert CoeffTable(family, table.rows) == table
        assert CoeffTable("a", ()).max_n == 0
