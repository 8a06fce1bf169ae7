"""Executable verifiers for the two ODE hierarchies and the companion
identities: the derivative/power expansions in both directions, the
Kronecker-delta inverse relation between the two coefficient families,
the square-root expansion, two convergent numeric sums, and the
convolution recurrences.

Every check is integer or rational arithmetic end to end.  thm2 and thm4
are integer equations between the t^n coefficients of both sides of thm1
and thm3 (`number_table`); eq57 is an integer sum, and so are the eq64/eq66
convolutions (`conv_table`), which carry a denominator only where an input
is wrong.  The eq59/eq62 sums are read through the ratio of consecutive
terms, in two ways that meet one pass band per sum (`_eq59_band`,
`_eq62_band`): an integer enclosure of the partial sum (`_enclose`), which
decides a pass, and the exact partial sum by binary splitting
(`_binary_split`), which decides the rest and gives a failure its witness.
A passing check builds a `Fraction` only where that exact fallback runs.
The only inexact steps are the typed-in constants: ln 2 to 36 digits and
sqrt(2) to 40, which the sums are compared with up to a slack of 1e-25,
and the 40-digit `Decimal` asymptotic ratio, compared with the band
(0.99, 1.01) in `Decimal`s.

thm1 and thm3 are read through the algebra of C, in both mechanisms
(truncated series, or exact ring elements), with s = sqrt(1-4t):

* on series, s^(2N) times thm1 and s^N times thm3 are integer linear
  relations between two families that do not depend on the a/b row,
  F_i = s^i C^(i+1) = (2-C)^i C and E_k = s^(2k) D^k C:

      E_N = sum_i a_i(N) F_i,    N! F_N = sum_i b_i(N) E_(N-i);

  `series_table` builds both with no product, once the Catalan series is
  checked against C_n = binom(2n, n)/(n+1): t (2-C)^2 = (1-4t)(C-1), from
  C = 1 + t C^2, gives F_(i+2) = (1-4t)(F_i - F_(i+1))/t, and
  E_(k+1) = (1-4t) E_k' + 4k E_k.  A row is checked one coefficient t^j
  at a time, as one integer against the dot product of the row with the
  table's column j (`_compare_scaled`), so a failing row stops at its
  first differing coefficient;
* in the ring, every D^k C, k >= 1, is the record
  p_k C^(2k+1) / (2-C)^(2k-1) with an integer polynomial p_k of degree
  k - 1, and s C = 2 - C, so over the common record of both sides thm1
  and thm3 are integer polynomial identities in C:

      p_N = sum_i a_i(N) (2-C)^(i-1),    N! (2-C)^(N-1) = sum_i b_i(N) p_(N-i);

  `ring_table` checks every record and holds the columns of the triangle
  of (2-C)^i and of the p_k.  A row is checked as the coefficients of C of
  the left numerator against the dot products of the row with the
  columns (`_compare_in_c`), and needs no canonical form.

Each mechanism reads its own table, which does not depend on the a/b row:
`series_table`, built once per (N, K) per process, and `ring_table`, built
once per N per process from the D^k C, which are built once per process
for every N.  Every step is exact and linear in the a/b row, so the
compared values do not depend on how they were built.  A series failure's
witness is read off the scaled sides, since s^e is a unit with constant
term 1; a ring failure's off the two numerators, whose sums are the sides
at t^0 (`_symbolic_witness`).  A failing report's witness holds exact
decimal strings.
"""
from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, count, zip_longest
from math import comb, factorial, gcd, isqrt, lcm, perm
from operator import mul

from .algebraic import AlgebraicElement
from .catalan import catalan_asymptotic_ratio, catalan_closed, higher_catalan
from .coefficients import CoeffTable, a_table_recurrence, b_table_recurrence
from .series import (
    _mul,
    _square,
    catalan_series,
    first_mismatch,
    half_power_coeffs,
    sqrt_one_plus_series,
)

# Slack for the decimal rounding of the hardcoded constants below.
EPS_CONST = Fraction(1, 10**25)

# sqrt(2) as an exact-rational lower enclosure accurate to 1e-40.
SQRT2_40 = Fraction(isqrt(2 * 10**80), 10**40)

# ln 2 to 36 significant digits.
LN2_36 = Fraction("0.693147180559945309417232121458176568")


class VerificationReport:
    """The outcome of one check.  mode is "series", "symbolic" or "numeric";
    witness, a dict of decimal strings, is set only on failure; cost is the
    run time in seconds, set by the runner and left out of equality."""

    __slots__ = ("identity", "parameters", "mode", "passed", "witness", "cost")

    def __init__(self, identity: str, parameters: dict[str, int], mode: str, passed: bool,
                 witness: dict[str, str] | None = None, cost: float = 0.0):
        self.identity, self.parameters, self.mode = identity, parameters, mode
        self.passed, self.witness, self.cost = passed, witness, cost

    def _key(self):
        return self.identity, self.parameters, self.mode, self.passed, self.witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"VerificationReport({fields})"


def _report(identity, parameters, mode, witness) -> VerificationReport:
    return VerificationReport(identity, parameters, mode, witness is None, witness)


def _exact_str(x) -> str:
    """str of an int or Fraction, through Decimal so that no int -> str
    digit limit applies; any other value by plain str."""
    if isinstance(x, int):
        return str(Decimal(x))
    if isinstance(x, Fraction):
        num = str(Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"
    return str(x)


def _witness(index, lhs, rhs) -> dict[str, str]:
    return {"index": str(index), "lhs": _exact_str(lhs), "rhs": _exact_str(rhs)}


def _symbolic_witness(lnum, rnum, k: int, m: int) -> dict[str, str]:
    # Both sides are integer numerators over C^k / (2-C)^m, which reads 1 at
    # t = 0, where C = 1, so t^0 of each side is the sum of its numerator.
    # Only where those agree are the sides built as ring elements; the
    # valuation of their difference is the first index where they differ.
    if sum(lnum) != sum(rnum):
        return _witness(0, sum(lnum), sum(rnum))
    order = AlgebraicElement([x - y for x, y in zip(lnum, rnum)], k, m).valuation()
    lhs, rhs = (AlgebraicElement(p, k, m).to_series(order) for p in (lnum, rnum))
    return _witness(*first_mismatch(lhs, rhs))


def _parameters(N: int, mode: str, order: int) -> dict[str, int]:
    """The report parameters of a thm1/thm3 check in one mechanism: truncated
    series at order K, or the exact ring."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if mode == "series":
        if order < N + 8:
            raise ValueError("series order must be at least N + 8")
        return {"N": N, "K": order}
    if mode == "symbolic":
        return {"N": N}
    raise ValueError(f"unknown mode {mode!r}")


def _compare_scaled(identity, parameters, e, lhs, row, cols) -> VerificationReport:
    """The series check of s^e L = s^e R, where lhs lists t^0..t^(K-N) of
    the scaled left side L and [t^j] R is the dot product of the a/b row
    with cols[j], compared one j at a time.  s^e is a unit with constant
    term 1, so the two sides first differ where L and R first do, at n,
    where s^e L reads sum_(m <= n) [t^m] s^e lhs_(n-m) and s^e R that value
    plus [t^n] (R - L); these are the witness."""
    for n, (x, col) in enumerate(zip(lhs, cols)):
        y = sum(map(mul, row, col))
        if x != y:
            value = sum(map(mul, half_power_coeffs(e, n), reversed(lhs[: n + 1])))
            return _report(identity, parameters, "series", _witness(n, value, value - x + y))
    return _report(identity, parameters, "series", None)


@lru_cache(maxsize=40)
def series_table(N: int, order: int = 64) -> tuple[tuple, tuple]:
    """The columns of the series families thm1 and thm3 read for every row up
    to N, (F columns, E columns): entry k of F column j is [t^j] F_(k+1), of
    E column j [t^j] E_(N-k), with F_i = s^i C^(i+1) and E_k = s^(2k) D^k C,
    each exact to order K - i or K - k and None past it, where no check of a
    row up to N reads.  Built from the Catalan series to order K with no
    product, each step one pass over the coefficients: F_0 = E_0 = C,
    F_1 = 2C - (C - 1)/t, F_(i+2) = (1-4t)(F_i - F_(i+1))/t and
    E_(k+1) = (1-4t) E_k' + 4k E_k.  The Catalan series is first compared
    with C_n = binom(2n, n)/(n+1), n <= K; a mismatch raises
    ArithmeticError.  Memoised on (N, K), 40 keys per process; a call that
    raises is not cached."""
    _parameters(N, "series", order)
    cat = list(catalan_series(order).num)
    if cat != [catalan_closed(n) for n in range(order + 1)]:
        raise ArithmeticError("the Catalan series fails C_n = binom(2n, n)/(n+1)")
    f = [cat, [2 * x - y for x, y in zip(cat, cat[1:])]]
    for _ in range(N - 1):
        p, q = f[-2], f[-1]
        f.append([x1 - y1 - 4 * (x - y) for x, x1, y, y1 in zip(p, p[1:], q, q[1:])])
    e = [cat]
    for k in range(N):
        # [t^n] of (1-4t) E_k' + 4k E_k is [t^n] E_k' + 4(k - n) [t^n] E_k
        e.append([y + c * x for y, c, x in zip(_derivative(e[-1]), count(4 * k, -4), e[-1])])
    return tuple(zip_longest(*f[1:])), tuple(zip_longest(*reversed(e)))


def _compare_in_c(identity, parameters, record, lhs, row, cols) -> VerificationReport:
    """The ring check of thm1/thm3 as an integer polynomial identity in C
    over the common record C^k / (2-C)^m of both sides, record = (k, m):
    lhs lists the coefficients of the left numerator, and coefficient j of
    the right one is the dot product of the a/b row with cols[j].  The right
    numerator is built whole, since a failure's witness reads all of it."""
    rhs = [sum(map(mul, row, col)) for col in cols]
    witness = None if lhs == rhs else _symbolic_witness(lhs, rhs, *record)
    return _report(identity, parameters, "symbolic", witness)


@lru_cache(maxsize=40)
def ring_table(N: int) -> tuple[tuple, tuple]:
    """The columns of the ring identities thm1 and thm3 read for every row up
    to N, (T columns, P columns), j = 0..N-1: entry i of T column j is
    [C^j] (2-C)^i, i = 0..N-1, and entry k of P column j is [C^j] p_(N-k),
    k = 0..N-1, each zero past the degree, where
    D^k C = p_k C^(2k+1) / (2-C)^(2k-1).  Built from the D^k C of
    `_ring_derivative`, each first checked to be that record, d = 1, with
    p_k of degree k - 1, so that N columns hold every coefficient; any other
    record raises ArithmeticError.  Memoised on N, 40 keys per process; a
    call that raises is not cached."""
    _parameters(N, "symbolic", 0)
    p = []
    for k in range(1, N + 1):
        x = _ring_derivative(k)
        if (x.k, x.m, x.d, len(x.p)) != (2 * k + 1, 2 * k - 1, 1, k):
            raise ArithmeticError(f"D^{k} C is not p C^(2k+1) / (2-C)^(2k-1), p of degree k - 1")
        p.append(x.p)
    t = [[comb(i, j) * 2 ** (i - j) * (-1) ** j for j in range(i + 1)] for i in range(N)]
    return tuple(zip_longest(*t, fillvalue=0)), tuple(zip_longest(*reversed(p), fillvalue=0))


@cache
def _ring_derivative(k: int) -> AlgebraicElement:
    """D^k C, built once per process and shared by every `ring_table`, which
    asks for k = 1, 2, .. in turn, so a call takes at most one step."""
    return _ring_derivative(k - 1).derivative() if k else AlgebraicElement((1,), 1)


def _derivative(num: tuple[int, ...]) -> tuple[int, ...]:
    """d/dt of a truncated coefficient tuple, one order shorter."""
    return tuple([n * c for n, c in enumerate(num)][1:])


def _u_power_times(j: int, num: list[int]) -> list[int]:
    """(1-4t)^j times the truncated coefficient list num, by |j| scans:
    x_n - 4 x_(n-1) for each factor 1-4t, x_n + 4 x_(n-1) for each
    1/(1-4t)."""
    for _ in range(abs(j)):
        num = ([x - 4 * w for x, w in zip(num, (0, *num))] if j > 0
               else list(accumulate(num, lambda w, x: x + 4 * w)))
    return num


def verify_thm1(n_deriv: int, mode: str, order: int = 64,
                a_table: CoeffTable | None = None,
                ode: tuple | None = None) -> VerificationReport:
    """N-th derivative of the Catalan generating function versus the sum of
    a_i(N) s^(i-2N) C^(i+1), s = sqrt(1-4t), in series or symbolic mode.
    On series, s^(2N) times both sides, E_N = sum_i a_i(N) F_i, is compared
    at t^0..t^(K-N), the order of D^N C, one column of the `series_table`
    at a time.  In the ring, over the record C^(2N+1) / (2-C)^(2N-1) of
    D^N C, p_N = sum_i a_i(N) (2-C)^(i-1) is compared one coefficient of C
    at a time, p_N read off the `ring_table` and the right side the a row
    dotted with its columns of the triangle of (2-C)^i.  The table is read
    from `ode`, the `series_table` of this order on series, the `ring_table`
    in the ring."""
    N = n_deriv
    params = _parameters(N, mode, order)
    table = a_table if a_table is not None else a_table_recurrence(N)
    if mode == "symbolic":
        tcols, pcols = ode if ode is not None else ring_table(N)
        at = len(pcols[0]) - N
        lhs = [col[at] for col in pcols[:N]]
        return _compare_in_c("thm1", params, (2 * N + 1, 2 * N - 1), lhs, table.row(N),
                             tcols[:N])
    fcols, ecols = ode if ode is not None else series_table(N, order)
    at = len(ecols[0]) - 1 - N
    lhs = [col[at] for col in ecols[: order - N + 1]]
    return _compare_scaled("thm1", params, -2 * N, lhs, table.row(N), fcols)


def number_table(identity: str, N: int, nmax: int) -> list[list[list[int]]]:
    """Rows 1..N of the number identity thm2 or thm4.  Row M holds, for each
    i of the row, the t^0..t^nmax coefficients of one summand of thm1 or
    thm3, s^e times the closed-form inputs the rows share (`_number_inputs`),

        thm2, i = 1..M:      s^(i-2M)  by  C^(i+1)_m,
        thm4, i = 0..M//2:   s^(M-2i)  by  (m+M-i)!/m! C_{m+M-i}.

    An even e is e/2 scans of `_u_power_times`.  The thm2 summand of odd i is
    s^(i-2M-1) (2 C^i - C^(i+1)), from s C = 2 - C, so every thm2 row is
    (1-4t)^(i//2 - M) times closed-form inputs, and takes no product; the
    thm4 rows of odd M take one truncated product by [t^m] s^e each.  Job
    (n, M) reads sum_i a_i(M) row[i][n] (b_i(M) for thm4), so the a/b table
    stays a job argument; a verifier called alone builds row N only."""
    inputs = _number_inputs(identity, N, nmax)
    return [_number_row(identity, inputs, M) for M in range(1, N + 1)]


def _number_inputs(identity: str, N: int, nmax: int) -> list[list[int]]:
    """The closed-form inputs rows 1..N of `number_table` share, t^0..t^nmax
    each: C^1..C^(N+1) for thm2, (m+j)!/m! C_{m+j} for j = 0..N for thm4."""
    if identity == "thm2":
        return [[higher_catalan(r, m) for m in range(nmax + 1)] for r in range(1, N + 2)]
    return [[perm(m + j, j) * catalan_closed(m + j) for m in range(nmax + 1)]
            for j in range(N + 1)]


def _number_row(identity: str, inputs: list[list[int]], M: int) -> list[list[int]]:
    """Row M of `number_table` from its `_number_inputs`."""
    if identity == "thm2":
        return [_u_power_times(i // 2 - M, [2 * x - y for x, y in zip(inputs[i - 1], inputs[i])]
                               if i % 2 else inputs[i])
                for i in range(1, M + 1)]
    nmax = len(inputs[0]) - 1
    return [_mul(half_power_coeffs(M - 2 * i, nmax), inputs[M - i], nmax + 1) if M % 2
            else _u_power_times(M // 2 - i, inputs[M - i])
            for i in range(M // 2 + 1)]


def verify_thm2(n: int, n_deriv: int, a_table: CoeffTable | None = None,
                row: list[list[int]] | None = None) -> VerificationReport:
    """C_{n+N} recovered from the forward expansion: the t^n coefficient of
    thm1, (n+N)!/n! C_{n+N} = sum_i a_i(N) sum_m c_m C^(i+1)_{n-m}, with
    c_m = 4^m binom((2N-i)/2 + m - 1, m) = [t^m] (1-4t)^(-(2N-i)/2); the
    inner sums are read from `row`, row N of the thm2 `number_table`."""
    N = n_deriv
    if n < 0 or N < 1:
        raise ValueError("need n >= 0 and N >= 1")
    table = a_table if a_table is not None else a_table_recurrence(N)
    if row is None:
        row = _number_row("thm2", _number_inputs("thm2", N, n), N)
    total = sum(a * coeffs[n] for a, coeffs in zip(table.row(N), row))
    target, scale = catalan_closed(n + N), perm(n + N, N)
    witness = None if total == target * scale else _witness(n, Fraction(total, scale), target)
    return _report("thm2", {"n": n, "N": N}, "numeric", witness)


def verify_thm3(n_pow: int, mode: str, order: int = 64,
                b_table: CoeffTable | None = None,
                ode: tuple | None = None) -> VerificationReport:
    """N! C^(N+1) versus the sum of b_i(N) s^(N-2i) C^((N-i)), with
    C^((N-i)) = D^(N-i) C, in series or symbolic mode, on row N of the b
    table read once.  On series, s^N times both sides,
    N! F_N = sum_i b_i(N) E_(N-i), is compared at t^0..t^(K-N), one column
    of `ode`, the `series_table` of this order, at a time.  In the ring,
    over the record C^(N+1) / (2-C)^(N-1) of both sides,
    N! (2-C)^(N-1) = sum_i b_i(N) p_(N-i) is compared one coefficient of C
    at a time, the left side read off the triangle of (2-C)^i of the
    `ring_table`, and the right side the b row dotted with its columns of
    the numerators p_k of D^k C."""
    N = n_pow
    params = _parameters(N, mode, order)
    table = b_table if b_table is not None else b_table_recurrence(N)
    b = table.row(N)
    f = factorial(N)
    if mode == "symbolic":
        tcols, pcols = ode if ode is not None else ring_table(N)
        at = len(pcols[0]) - N
        lhs = [f * col[N - 1] for col in tcols[:N]]
        return _compare_in_c("thm3", params, (N + 1, N - 1), lhs, b,
                             (col[at:] for col in pcols[:N]))
    fcols, ecols = ode if ode is not None else series_table(N, order)
    at = len(ecols[0]) - 1 - N
    lhs = [f * col[N - 1] for col in fcols[: order - N + 1]]
    return _compare_scaled("thm3", params, -N, lhs, b, (col[at:] for col in ecols))


def verify_thm4(k: int, n_pow: int, b_table: CoeffTable | None = None,
                row: list[list[int]] | None = None) -> VerificationReport:
    """C_k^(N+1) recovered from the inverse expansion: the t^k coefficient
    of thm3, N! C^(N+1)_k = sum_i b_i(N) sum_m c_{k-m} (m+N-i)!/m! C_{m+N-i},
    with c_j = binom(N/2 - i, j) (-4)^j = [t^j] (1-4t)^(N/2-i); the inner
    sums are read from `row`, row N of the thm4 `number_table`."""
    N = n_pow
    if k < 0 or N < 1:
        raise ValueError("need k >= 0 and N >= 1")
    table = b_table if b_table is not None else b_table_recurrence(N)
    if row is None:
        row = _number_row("thm4", _number_inputs("thm4", N, k), N)
    total = sum(b * coeffs[k] for b, coeffs in zip(table.row(N), row))
    target, scale = higher_catalan(N + 1, k), factorial(N)
    witness = None if total == target * scale else _witness(k, Fraction(total, scale), target)
    return _report("thm4", {"k": k, "N": N}, "numeric", witness)


def verify_inverse_delta(n_pow: int, a_table: CoeffTable | None = None,
                         b_table: CoeffTable | None = None) -> VerificationReport:
    """The 'inverse' relation between the two families:
    sum_i a_j(N-i) b_i(N) / N! = delta_{j,N} for every j in 1..N, checked
    as the integer equation sum_i a_j(N-i) b_i(N) = N! delta_{j,N}."""
    N = n_pow
    if N < 1:
        raise ValueError("N must be >= 1")
    a_tab = a_table if a_table is not None else a_table_recurrence(N)
    b_tab = b_table if b_table is not None else b_table_recurrence(N)
    # totals[j - 1] = sum_i a_j(N-i) b_i(N), each row read once: row N - i
    # of the a table holds a_1..a_(N-i), so it adds to j <= N - i
    totals = [0] * N
    for i, b in enumerate(b_tab.row(N)):
        for j, a in enumerate(a_tab.row(N - i)):
            totals[j] += a * b
    nfact = factorial(N)
    for j, total in enumerate(totals, 1):
        expected = 1 if j == N else 0
        if total != expected * nfact:
            return _report("eq57", {"N": N}, "numeric",
                           _witness(j, Fraction(total, nfact), expected))
    return _report("eq57", {"N": N}, "numeric", None)


def verify_sqrt_expansion(order: int) -> VerificationReport:
    """Coefficients of sqrt(1+y) against the generalized binomial
    (1/2 choose n), carried by its defining ratio
    (1/2 choose n+1) = (1/2 choose n) (1/2 - n)/(n+1)."""
    expansion = sqrt_one_plus_series(order)
    num, den = expansion.num, expansion.den
    # (1/2 choose n) = p / q, carried unreduced and compared with num[n] / den
    # by cross-multiplication
    p = q = 1
    for n in range(order + 1):
        if num[n] * q != p * den:
            return _report("eq58", {"K": order}, "series",
                           _witness(n, expansion.coeff(n), Fraction(p, q)))
        p, q = p * (1 - 2 * n), q * (2 * n + 2)
    return _report("eq58", {"K": order}, "series", None)


def _binary_split(p, q, lo: int, hi: int) -> tuple[int, int, int]:
    """Exact binary splitting (Haible & Papanikolaou 1998): (P, Q, T) with
    sum_{lo <= n < hi} prod_{lo <= k <= n} p(k)/q(k) = T / Q,
    P = prod p(k) and Q = prod q(k) over [lo, hi); an empty range gives
    (1, 1, 0), and hi < lo raises ValueError.  A range of at most 16 terms
    is one loop, T <- T q(k) + P; a longer one joins its two halves by
    balanced products, O(log(hi - lo)) levels deep.  Since Q is the whole
    product, T = Q sum is the same integer either way."""
    if hi < lo:
        raise ValueError("need lo <= hi")
    if hi - lo <= 16:
        P, Q, T = 1, 1, 0
        for k in range(lo, hi):
            P *= p(k)
            b = q(k)
            T, Q = T * b + P, Q * b
        return P, Q, T
    mid = (lo + hi) // 2
    pl, ql, tl = _binary_split(p, q, lo, mid)
    pr, qr, tr = _binary_split(p, q, mid, hi)
    return pl * pr, ql * qr, qr * tl + pl * tr


# Bits below the point of the fixed-point enclosures of `_enclose`.
W = 128


def _enclose(p, q, lo: int, hi: int) -> tuple[int, int, int, int]:
    """Integers (L, U, a, b) with L / 2^W <= the sum of `_binary_split` over
    the same range <= U / 2^W, and [a, b] / 2^W holding its last term, for
    q(k) > 0.  The current term is carried as the interval [a, b] / 2^W,
    rounded outwards at each ratio, a x // y below and -(-b x // y) above,
    with the ends swapped first where p(k) = x < 0.  Each rounding widens the
    interval by less than one unit of 2^-W, and a and b stay about W bits
    long, so the loop takes no big product."""
    if hi < lo:
        raise ValueError("need lo <= hi")
    a = b = 1 << W
    L = U = 0
    for k in range(lo, hi):
        x, y = p(k), q(k)
        if y <= 0:
            raise ValueError("need q(k) > 0")
        if x < 0:
            a, b = b, a
        a, b = a * x // y, -(-b * x // y)
        L, U = L + a, U + b
    return L, U, a, b


# The eq59 and eq62 terms as (p, q) ratio pairs over c_n = C_n/4^n =
# prod_{1<=k<=n} (2k-1)/(2k+2): term n is prod_{0<=k<=n} p(k)/q(k).  The
# eq59 term c_n (-1)^n / (1-2n) over term n-1 is (3-2n)/(2n+2); the eq62
# term c_n / (4(n+1)) over term n-1 is n(2n-1) / (2(n+1)^2).
EQ59_RATIO = (lambda k: 3 - 2 * k if k else 1, lambda k: 2 * k + 2 if k else 1)
EQ62_RATIO = (lambda k: k * (2 * k - 1) if k else 1, lambda k: 2 * (k + 1) ** 2 if k else 4)

# The pass band of a partial sum of n terms, from its first omitted term
# x / y, y > 0, as (low, high, den) in unreduced integers, with ends low / den
# and high / den.  The ends are affine in x, and den is a multiple of y that
# does not depend on x, so a sum inside the band at both ends of an interval
# of x is inside it at every x in between.


def _eq59_band(n: int, x: int, y: int) -> tuple[int, int, int]:
    """eq59 passes when low / den < partial < high / den: the target
    (4 sqrt(2) - 2)/3 plus or minus the alternating-series bound, the modulus
    (-1)^(n+1) x / y of the first omitted term, and the slack."""
    if n < 2:
        raise ValueError("need at least 2 terms")
    r, e = SQRT2_40, EPS_CONST
    center = (4 * r.numerator - 2 * r.denominator) * e.denominator * y
    slack = 3 * r.denominator * ((x if n % 2 else -x) * e.denominator + e.numerator * y)
    return center - slack, center + slack, 3 * r.denominator * e.denominator * y


def _eq62_tail(n: int, x: int, y: int) -> tuple[int, int, int]:
    """(lo, hi, den) with lo / den and hi / den the ends of
    `eq62_tail_enclosure`, with r_n = 4 (n+1)^2 x / y: lo = x R / (3 y 2^63),
    with R = isqrt(n (n+1) 2^128), and hi = 8 (n+1)^2 (n+2) x / (3 (2n+1)^2 y),
    over one den."""
    root = isqrt((n * (n + 1)) << 128)
    return (x * root * (2 * n + 1) ** 2, x * (n + 1) ** 2 * (n + 2) << 66,
            3 * y * (2 * n + 1) ** 2 << 63)


def _eq62_band(n: int, x: int, y: int) -> tuple[int, int, int]:
    """eq62 passes when low / den <= partial <= high / den, that is when
    (1 - ln 2) - partial lies in the `_eq62_tail` enclosure [lo, hi] of the
    omitted tail, widened by the slack."""
    if n < 1:
        raise ValueError("need at least 1 term")
    lo, hi, d = _eq62_tail(n, x, y)
    g, e = LN2_36, EPS_CONST
    scale = g.denominator * e.denominator
    gap = (g.denominator - g.numerator) * e.denominator * d
    eps = e.numerator * g.denominator * d
    return gap - eps - hi * scale, gap + eps - lo * scale, scale * d


def _split(ratio, band, strict: bool, n: int) -> tuple[int, int, int, int, bool]:
    """(T, Q, x, y, pass flag) for the exact sum T / Q of n terms by
    `_binary_split`, whose P / Q is the last kept term, so that
    x / y = P p(n) / (Q q(n)) is the first omitted one.  The flag says that
    T / Q lies inside `band` at x / y, the open band if strict, else the
    closed one; since Q divides y and so den, T / Q is T (den / Q) / den and
    is compared over den, never reduced."""
    p, q = ratio
    P, Q, T = _binary_split(p, q, 0, n)
    x, y = P * p(n), Q * q(n)
    low, high, den = band(n, x, y)
    t = T * (den // Q)
    return T, Q, x, y, (low < t < high if strict else low <= t <= high)


def sum_eq59(terms: int) -> tuple[Fraction, Fraction, bool]:
    """Partial sum of sum_n C_n (-1)^(n-1) / (4^n (2n-1)), whose value is
    (4 sqrt(2) - 2)/3.  Returns (partial sum, alternating-series bound from
    the first omitted term, pass flag), all three from the exact sum T/Q
    of `_binary_split`, the mechanism `report_eq59` falls back on."""
    t, q, x, y, passed = _split(EQ59_RATIO, _eq59_band, True, terms)
    return Fraction(t, q), abs(Fraction(x, y)), passed


def eq62_tail_enclosure(terms: int) -> tuple[Fraction, Fraction]:
    """Exact bounds lo <= sum_{n >= terms} binom(2n,n) / ((n+1)^2 4^(n+1)) <= hi.

    With r_m = binom(2m,m)/4^m the term at m is r_m / (4(m+1)^2), and
    r_{m+1}/r_m = (2m+1)/(2m+2) makes r_m^2 m increasing and
    r_m^2 (m+1/2) decreasing.  So for m >= N = terms

        r_N sqrt(N/m) <= r_m <= r_N sqrt((N+1/2)/(m+1/2)),

    and integral comparison, sum_{m>=N} (m+1)^(-5/2) >= (2/3)(N+1)^(-3/2)
    and sum_{m>=N} (m+1/2)^(-5/2) <= (N+1/2)^(-5/2) + (2/3)(N+1/2)^(-3/2),
    gives

        lo = r_N sqrt(N/(N+1)) / (6(N+1)),
        hi = 2 r_N (N+2) / (3(2N+1)^2).

    Both are of order terms^(-3/2) and agree to a relative O(1/terms).
    The one square root is taken with `isqrt` and rounded down, at 2^-64
    resolution, so the bounds are rigorous rationals; no floats and no pi
    are involved.  `_eq62_tail` writes them over the term at N itself.
    """
    if terms < 1:
        raise ValueError("need at least 1 term")
    n = terms
    lo, hi, den = _eq62_tail(n, comb(2 * n, n), (n + 1) ** 2 << (2 * n + 2))
    return Fraction(lo, den), Fraction(hi, den)


def sum_eq62(terms: int) -> tuple[Fraction, Fraction, bool]:
    """Partial sum of sum_n binom(2n,n) / ((n+1)^2 4^(n+1)), whose value is
    1 - ln 2.  Returns (partial sum, tail majorant hi, pass flag), from the
    exact sum T/Q of `_binary_split`, the mechanism `report_eq62` falls
    back on.  The flag says that (1 - ln 2) - partial lies in the
    `eq62_tail_enclosure` [lo, hi] of the omitted tail, up to the rounding
    slack of the ln 2 constant; hi is a rigorous upper bound on the
    truncation error."""
    t, q, _, _, passed = _split(EQ62_RATIO, _eq62_band, False, terms)
    return Fraction(t, q), eq62_tail_enclosure(terms)[1], passed


def _report_sum(identity: str, ratio, band, strict: bool, n: int, target) -> VerificationReport:
    """A sum of n terms passes where the `_enclose` enclosure (L, U) / 2^W of
    the partial sum lies strictly inside `band` at both ends of the
    enclosure [a p(n), b p(n)] / (q(n) 2^W) of the first omitted term, so
    inside it at the true term, and the exact sum passes too; any other case
    is decided by `_split`, which gives a failure its witness against
    target()."""
    p, q = ratio
    L, U, a, b = _enclose(p, q, 0, n)
    y = q(n) << W
    low_a, high_a, den = band(n, a * p(n), y)
    low_b, high_b, _ = band(n, b * p(n), y)
    witness = None
    if not max(low_a, low_b) << W < L * den <= U * den < min(high_a, high_b) << W:
        T, Q, _, _, passed = _split(ratio, band, strict, n)
        witness = None if passed else _witness(n, Fraction(T, Q), target())
    return _report(identity, {"terms": n}, "numeric", witness)


def report_eq59(terms: int) -> VerificationReport:
    return _report_sum("eq59", EQ59_RATIO, _eq59_band, True, terms,
                       lambda: (4 * SQRT2_40 - 2) / 3)


def report_eq62(terms: int) -> VerificationReport:
    return _report_sum("eq62", EQ62_RATIO, _eq62_band, False, terms, lambda: 1 - LN2_36)


def _conv_inputs(nmax: int) -> list[int]:
    if nmax < 2:
        raise ValueError("nmax must be >= 2")
    return list(catalan_series(nmax).num)


def _conv_weights(cs: list[int]) -> tuple[int, list[int]]:
    """(L, u) with u_m / L = C_m (m+1)/(2m-1) for every m, so that
    sum_m C_m C_{n-m} (m+1)/(2m-1) over any range of m is the integer sum
    of u_m C_{n-m} over L.  L is the lcm of the weights' reduced
    denominators only: sqrt(1-4t) = 1 - 2t C(t) makes every weight of the
    true Catalan numbers an integer, u = [-1, 2C_0, 2C_1, ..] and L = 1, so
    L > 1 only where an input is wrong."""
    reduced = []
    for m, c in enumerate(cs):
        # lcm is nonnegative, so the m = 0 denominator -1 flips u_0's sign
        g = gcd(c * (m + 1), 2 * m - 1)
        reduced.append((c * (m + 1) // g, (2 * m - 1) // g))
    den = lcm(*(d for _, d in reduced))
    return den, [n * (den // d) for n, d in reduced]


def conv_table(nmax: int) -> tuple[list[int], int, list[int], list[int]]:
    """(cs, L, u, conv) that eq64 and eq66 both read: the inputs C_0..C_nmax,
    their weights u / L from `_conv_weights`, and the convolution
    conv_n = sum_{m=0}^{n} u_m C_{n-m} for n = 0..nmax.

    Where u = [-1, 2 C_0, .., 2 C_(nmax-1)], as on the true inputs, u * C is
    -C + 2t (C * C) exactly, whatever C is, so conv is read off one
    self-square `_square`, half the products of `_mul(u, cs, nmax + 1)`,
    which any other input takes; conv is the same list either way."""
    cs = _conv_inputs(nmax)
    den, u = _conv_weights(cs)
    if u != [-1, *(2 * c for c in cs[:-1])]:
        return cs, den, u, _mul(u, cs, nmax + 1)
    return cs, den, u, [-cs[0], *(2 * x - c for x, c in zip(_square(cs, nmax), cs[1:]))]


def verify_eq64(nmax: int, table: tuple | None = None) -> VerificationReport:
    """C_n - sum_{m=0}^{n} C_m C_{n-m} (m+1)/(2m-1) equals 2 at n=0 and 0 for
    n >= 1 (the m=0 factor is exactly 1/(-1), no special casing); the sum
    is read from `table`, the `conv_table` of nmax."""
    cs, den, _, conv = table if table is not None else conv_table(nmax)
    witness = None
    for n in range(nmax + 1):
        expected = 2 if n == 0 else 0
        if cs[n] * den - conv[n] != expected * den:
            witness = _witness(n, Fraction(cs[n] * den - conv[n], den), expected)
            break
    return _report("eq64", {"nmax": nmax}, "numeric", witness)


def verify_eq66(nmax: int, table: tuple | None = None) -> VerificationReport:
    """C_n = (2n-1)/(3(n-1)) * sum_{m=1}^{n-1} C_m C_{n-m} (m+1)/(2m-1) for
    n >= 2; the sum is the `conv_table` convolution without its m = 0 and
    m = n terms."""
    cs, den, u, conv = table if table is not None else conv_table(nmax)
    witness = None
    for n in range(2, nmax + 1):
        inner = conv[n] - u[0] * cs[n] - u[n] * cs[0]
        if (2 * n - 1) * inner != 3 * (n - 1) * den * cs[n]:
            witness = _witness(n, Fraction((2 * n - 1) * inner, 3 * (n - 1) * den), cs[n])
            break
    return _report("eq66", {"nmax": nmax}, "numeric", witness)


def verify_convolution_recurrences(nmax: int) -> tuple[VerificationReport, VerificationReport]:
    """Both convolution recurrences for the Catalan numbers, (eq64, eq66),
    from one `conv_table`."""
    table = conv_table(nmax)
    return verify_eq64(nmax, table), verify_eq66(nmax, table)


def verify_asymptotic(n: int = 1000) -> VerificationReport:
    """C_n n^(3/2) sqrt(pi) / 4^n must sit inside the band (0.99, 1.01)."""
    ratio = catalan_asymptotic_ratio(n)
    passed = Decimal("0.99") < ratio < Decimal("1.01")
    witness = None if passed else _witness(n, ratio, "(0.99, 1.01)")
    return _report("asymptotic", {"n": n}, "numeric", witness)
