"""The two integer coefficient families of the forward and inverse ODE
hierarchies, each computed by recurrence and by closed form.

Family a: row N holds a_1(N)..a_N(N), the weights expressing the N-th
derivative of the Catalan generating function in powers of it.

Family b: row N holds b_0(N)..b_{floor(N/2)}(N), the weights expressing
N! C^{N+1} back in terms of derivatives.  The closed form runs through the
nested weighted sums S_{N,j}.
"""
from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache
from math import factorial, prod

from .exact import double_factorial_odd


class CoeffTable(namedtuple("CoeffTable", "family rows")):
    """Rows 1..max_n of family "a" or "b"; rows[N-1] is row N, a tuple of
    ints, a_1(N)..a_N(N) or b_0(N)..b_(N//2)(N).  A row of any other width
    raises ValueError.  Immutable and hashable, equal iff family and rows
    are."""

    __slots__ = ()

    def __new__(cls, family: str, rows):
        for n, row in enumerate(rows, 1):
            width = n if family == "a" else n // 2 + 1
            if len(row) != width:
                raise ValueError(f"row {n} of family {family} has {len(row)} entries, not {width}")
        return super().__new__(cls, family, rows)

    @property
    def max_n(self) -> int:
        return len(self.rows)

    def row(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= self.max_n:
            raise IndexError(f"row {n} outside table (1..{self.max_n})")
        return self.rows[n - 1]

    def entry(self, i: int, n: int) -> int:
        row = self.row(n)
        idx = i - 1 if self.family == "a" else i
        if not 0 <= idx < len(row):
            raise IndexError(f"index {i} outside row {n} of family {self.family}")
        return row[idx]

    def to_json(self) -> str:
        rows = [{"N": n + 1, "entries": [str(e) for e in row]}
                for n, row in enumerate(self.rows)]
        return json.dumps({"family": self.family, "rows": rows},
                          sort_keys=True, separators=(",", ":"))


def a_table_recurrence(nmax: int) -> CoeffTable:
    """Rows 1..nmax of family a from the three-part recurrence seeded by
    a_1(1) = 1."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    rows = [(1,)]
    for n in range(1, nmax):
        prev = rows[-1]
        row = [2 * (2 * n - 1) * prev[0]]
        for i in range(2, n + 1):
            row.append(i * prev[i - 2] + 2 * (2 * n - i) * prev[i - 1])
        row.append((n + 1) * prev[n - 1])
        rows.append(tuple(row))
    return CoeffTable("a", tuple(rows))


def _sum_terms(i: int, n: int, budget: int, k_rest_sum: int, level: int) -> int:
    """Inner recursion of the a-family closed form: sum over the remaining
    indices k_level..k_1 with the given budget; k_rest_sum is the sum of the
    already-fixed outer indices k_{level+1}..k_{i-1}."""
    if level == 0:
        return double_factorial_odd(2 * n - 2 * k_rest_sum - 2 * i - 1)
    total = 0
    for k in range(budget + 1):
        x = 2 * n - 2 * k_rest_sum - 2 * i - 1 + level
        # the alpha = 2 shifted factorial x(x-2)...(x-2(k-1))
        factor = prod(range(x, x - 2 * k, -2))
        total += factor * _sum_terms(i, n, budget - k, k_rest_sum + k, level - 1)
    return total


def a_closed_form(i: int, n: int) -> int:
    """a_i(N) from the explicit nested multi-sum (i-1 summation indices,
    alpha=2 shifted factorials, trailing odd double factorial)."""
    if not 1 <= i <= n:
        raise IndexError(f"a_{i}({n}) outside the triangle 1 <= i <= N")
    if i == 1:
        return 2 ** (n - 1) * double_factorial_odd(2 * n - 3)
    return 2 ** (n - i) * factorial(i) * _sum_terms(i, n, n - i, 0, i - 1)


@lru_cache(maxsize=None)
def s_number(n: int, j: int) -> int:
    """S_{N,j}: S_{N,1} is the N-th triangular number, and for j >= 2
    S_{N,j} = N S_{N+1,j-1} + (N-1) S_{N,j-1} + ... + 1 * S_{2,j-1}."""
    if n < 1 or j < 1:
        raise ValueError("S numbers need N >= 1 and j >= 1")
    if j == 1:
        return n * (n + 1) // 2
    return sum(k * s_number(k + 1, j - 1) for k in range(1, n + 1))


def b_table_recurrence(nmax: int) -> CoeffTable:
    """Rows 1..nmax of family b: b_0 stays 1 and
    b_i(N+1) = -2(N+2-2i) b_{i-1}(N) + b_i(N), with entries beyond the
    row width read as zero."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    rows = [(1,)]
    for n in range(1, nmax):
        prev = rows[-1]
        row = [1]
        for i in range(1, (n + 1) // 2 + 1):
            b_prev = prev[i] if i < len(prev) else 0
            row.append(-2 * (n + 2 - 2 * i) * prev[i - 1] + b_prev)
        rows.append(tuple(row))
    return CoeffTable("b", tuple(rows))


def b_closed_form(i: int, n: int) -> int:
    """b_i(N): 1 for i = 0, otherwise (-2)^i S_{N+1-2i, i}."""
    if n < 1 or not 0 <= i <= n // 2:
        raise IndexError(f"b_{i}({n}) outside the triangle 0 <= i <= floor(N/2)")
    if i == 0:
        return 1
    return (-2) ** i * s_number(n + 1 - 2 * i, i)
