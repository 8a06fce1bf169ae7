import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import accumulate, zip_longest
from math import ceil, comb, factorial, floor, gcd, isqrt, perm, prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalan_ode import identities
from catalan_ode.algebraic import AlgebraicElement
from catalan_ode.catalan import catalan_asymptotic_ratio, catalan_closed, higher_catalan
from catalan_ode.coefficients import (
    CoeffTable,
    a_closed_form,
    a_table_recurrence,
    b_table_recurrence,
)
from catalan_ode.exact import binomial_general
from catalan_ode.identities import (
    EPS_CONST,
    LN2_36,
    SQRT2_40,
    eq62_tail_enclosure,
    report_eq59,
    report_eq62,
    sum_eq59,
    sum_eq62,
    verify_asymptotic,
    verify_convolution_recurrences,
    verify_eq64,
    verify_eq66,
    verify_inverse_delta,
    verify_sqrt_expansion,
    verify_thm1,
    verify_thm2,
    verify_thm3,
    verify_thm4,
)
from catalan_ode.runner import BOUNDS, BUILDERS, JOBS, NUMBER_MAX_N, RunConfig, _jobs, run_suite
from catalan_ode.series import (
    Series,
    _mul,
    catalan_series,
    first_mismatch,
    half_power_coeffs,
    sqrt_one_plus_series,
)


class TestForwardOde:
    @pytest.mark.parametrize("mode", ["series", "symbolic"])
    def test_first_two_rows(self, mode):
        assert verify_thm1(1, mode, 16).passed
        assert verify_thm1(2, mode, 16).passed

    def test_mode_agreement_n5(self):
        assert verify_thm1(5, "series", 24).passed
        assert verify_thm1(5, "symbolic").passed

    def test_series_order_too_small(self):
        with pytest.raises(ValueError):
            verify_thm1(5, "series", 10)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            verify_thm1(2, "telepathy")

    def test_report_shape(self):
        rep = verify_thm1(2, "series", 16)
        assert rep.identity == "thm1"
        assert rep.parameters == {"N": 2, "K": 16}
        assert rep.witness is None


class TestForwardNumbers:
    def test_single_term_case(self):
        assert verify_thm2(0, 1).passed

    def test_two_term_case(self):
        assert verify_thm2(1, 1).passed

    @pytest.mark.parametrize("source", ["recurrence", "closed"])
    def test_envelope(self, source):
        table = None if source == "recurrence" else CoeffTable("a", tuple(
            tuple(a_closed_form(i, n) for i in range(1, n + 1)) for n in range(1, 7)
        ))
        for big_n in range(1, 7):
            for n in range(21):
                assert verify_thm2(n, big_n, a_table=table).passed


class TestInverseOde:
    @pytest.mark.parametrize("mode", ["series", "symbolic"])
    def test_rows_two_and_three(self, mode):
        assert verify_thm3(2, mode, 16).passed
        assert verify_thm3(3, mode, 16).passed

    def test_mode_agreement_n8(self):
        assert verify_thm3(8, "series", 64).passed
        assert verify_thm3(8, "symbolic").passed


class TestInverseNumbers:
    def test_single_term_case(self):
        assert verify_thm4(0, 1).passed

    def test_k1_n2(self):
        assert verify_thm4(1, 2).passed

    def test_envelope(self):
        for big_n in range(1, 7):
            for k in range(21):
                assert verify_thm4(k, big_n).passed


class TestInverseDelta:
    def test_small_cases_by_hand(self):
        # N=1: a_1(1) b_0(1) / 1! = 1
        assert verify_inverse_delta(1).passed
        # N=2: j=1 gives (2*1 + 1*(-2))/2 = 0, j=2 gives 2/2 = 1
        assert verify_inverse_delta(2).passed

    def test_envelope(self):
        for n in range(1, 13):
            assert verify_inverse_delta(n).passed

    @pytest.mark.parametrize(
        "family,row,entry",
        [("a", 6 - k, j) for k in range(4) for j in range(1, 7 - k)]
        + [("b", 6, k) for k in range(4)],
    )
    def test_forced_mismatch(self, family, row, entry):
        """Every a-entry that eq57 reads at N = 6, and b-entries 0..3 of row
        6, shifted by +1, make it fail at the first j where the plain
        rational sums disagree: j = entry for an a-entry, 1 for a b-entry."""
        a_tab, b_tab = a_table_recurrence(6), b_table_recurrence(6)
        if family == "a":
            a_tab = _shifted(a_tab, row, entry)
        else:
            b_tab = _shifted(b_tab, row, entry)
        rep = verify_inverse_delta(6, a_tab, b_tab)
        rows = ((j, sum(Fraction(a_tab.entry(j, 6 - k) * b_tab.entry(k, 6), factorial(6))
                        for k in range(min(6 - j, 3) + 1)), int(j == 6))
                for j in range(1, 7))
        j, lhs, rhs = next(row for row in rows if row[1] != row[2])
        assert j == (entry if family == "a" else 1)
        assert not rep.passed
        assert rep.witness == {"index": str(j), "lhs": str(lhs), "rhs": str(rhs)}


class TestSqrtExpansion:
    def test_order_64(self):
        rep = verify_sqrt_expansion(64)
        assert rep.passed and rep.parameters == {"K": 64}

    @pytest.mark.parametrize("n", [0, 1, 7, 64])
    def test_forced_mismatch(self, n, monkeypatch):
        """Coefficient n of the expansion shifted by +1 fails at index n
        against the rational (1/2 choose n)."""
        series = sqrt_one_plus_series(64)
        coeffs = [series.coeff(j) for j in range(65)]
        coeffs[n] += 1
        monkeypatch.setattr(identities, "sqrt_one_plus_series", lambda order: Series(coeffs))
        rep = verify_sqrt_expansion(64)
        expected = binomial_general(Fraction(1, 2), n)
        assert not rep.passed
        assert rep.witness == {"index": str(n), "lhs": str(expected + 1), "rhs": str(expected)}


    @pytest.mark.parametrize("n,delta", [(0, 1), (1, -1), (7, Fraction(1, 3)),
                                         (40, Fraction(-1, 4**70)), (64, 5)])
    def test_shift_gives_the_fraction_witness(self, n, delta, monkeypatch):
        """Coefficient n of the expansion shifted by delta, also by a shift
        finer than the series' denominator 4^64, reports the witness of the
        reference carried in reduced `Fraction`s, (1/2 choose n)."""
        series = sqrt_one_plus_series(64)
        coeffs = [series.coeff(j) for j in range(65)]
        coeffs[n] += delta
        monkeypatch.setattr(identities, "sqrt_one_plus_series", lambda order: Series(coeffs))
        expected = Fraction(1)
        for j, c in enumerate(coeffs):
            if c != expected:
                break
            expected *= Fraction(1 - 2 * j, 2 * j + 2)
        assert j == n
        rep = verify_sqrt_expansion(64)
        assert not rep.passed
        assert rep.witness == {"index": str(n), "lhs": str(coeffs[n]), "rhs": str(expected)}


class TestSumEq59:
    def test_two_terms(self):
        partial, bound, passed = sum_eq59(2)
        assert partial == Fraction(5, 4)
        target = (4 * SQRT2_40 - 2) / 3
        assert abs(partial - target) < bound + EPS_CONST
        assert passed

    def test_target_digits(self):
        target = (4 * SQRT2_40 - 2) / 3
        assert abs(target - Fraction("1.2189514164974600650")) < Fraction(1, 10**17)

    def test_500_terms_tight(self):
        partial, _, passed = sum_eq59(500)
        assert passed
        target = (4 * SQRT2_40 - 2) / 3
        assert abs(partial - target) < Fraction(1, 10**6)

    def test_partial_sums_bracket_target(self):
        target = (4 * SQRT2_40 - 2) / 3
        signs = set()
        for terms in range(2, 51):
            partial, _, _ = sum_eq59(terms)
            signs.add((partial - target) > 0)
            # consecutive partial sums land on opposite sides
        partials = [sum_eq59(t)[0] for t in range(2, 51)]
        for p, q in zip(partials, partials[1:]):
            assert (p - target) * (q - target) < 0
        assert signs == {True, False}

    def test_too_few_terms(self):
        with pytest.raises(ValueError):
            sum_eq59(1)

    def test_report(self):
        assert report_eq59(500).identity == "eq59"


class TestSumEq62:
    def test_one_term(self):
        partial, _, passed = sum_eq62(1)
        assert partial == Fraction(1, 4)
        assert passed

    def test_target_digits(self):
        from catalan_ode.identities import LN2_36

        target = 1 - LN2_36
        assert abs(target - Fraction("0.3068528194400546905")) < Fraction(1, 10**18)

    def test_2000_terms(self):
        from catalan_ode.identities import LN2_36

        partial, bound, passed = sum_eq62(2000)
        assert passed
        # the tail is Theta(terms^(-3/2))/(4 sqrt(pi)): about 1.05e-6 here
        err = abs(partial - (1 - LN2_36))
        assert Fraction(1, 10**6) < err < Fraction(1, 10**5)
        assert err < bound

    def test_bound_is_valid_majorant(self):
        from catalan_ode.identities import LN2_36

        for terms in (1, 10, 100):
            partial, bound, _ = sum_eq62(terms)
            assert abs(partial - (1 - LN2_36)) < bound + EPS_CONST

    @pytest.mark.parametrize("terms", [1, 2, 5, 10, 100, 500])
    def test_enclosure_contains_tail(self, terms):
        partial, bound, _ = sum_eq62(terms)
        lo, hi = eq62_tail_enclosure(terms)
        assert type(lo) is Fraction and type(hi) is Fraction
        assert bound == hi
        assert lo - EPS_CONST <= (1 - LN2_36) - partial <= hi + EPS_CONST

    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_enclosure_cross_consistency(self, n):
        # tail_N = (S_M - S_N) + tail_M exactly, so the two enclosures of
        # tail_N must overlap; this involves no ln 2 constant at all.
        m = n + 400
        block = sum_eq62(m)[0] - sum_eq62(n)[0]
        lo_n, hi_n = eq62_tail_enclosure(n)
        lo_m, hi_m = eq62_tail_enclosure(m)
        assert lo_n <= block + hi_m
        assert block + lo_m <= hi_n

    def test_negative_control_2000_terms(self):
        partial, bound, _ = sum_eq62(2000)
        assert bound < Fraction(106, 10**8)
        lo, hi = eq62_tail_enclosure(2000)
        # 1e-5 was accepted by the former 1/(4*terms) = 1.25e-4 bound
        for shift in (Fraction(1, 10**8), Fraction(1, 10**5)):
            for shifted in (partial + shift, partial - shift):
                gap = (1 - LN2_36) - shifted
                assert not lo - EPS_CONST <= gap <= hi + EPS_CONST

    def test_enclosure_needs_one_term(self):
        with pytest.raises(ValueError):
            eq62_tail_enclosure(0)

    def test_report(self):
        assert report_eq62(2000).identity == "eq62"


def _term_eq59(n):
    return Fraction(catalan_closed(n) * (1 if n % 2 else -1), 4**n * (2 * n - 1))


def _term_eq62(n):
    return Fraction(comb(2 * n, n), (n + 1) ** 2 * 4 ** (n + 1))


SUMS = {"eq59": (sum_eq59, _term_eq59, 2, 500), "eq62": (sum_eq62, _term_eq62, 1, 2000)}


class TestSumsBySplitting:
    @pytest.mark.parametrize("identity", SUMS)
    def test_matches_plain_fraction_sum(self, identity):
        sum_fn, term, first, _ = SUMS[identity]
        partial = Fraction(0)
        for terms in range(1, 301):
            partial += term(terms - 1)
            if terms >= first and (terms <= 64 or terms == 300):
                assert sum_fn(terms)[0] == partial

    @pytest.mark.parametrize("factor", [0, 2])
    @pytest.mark.parametrize("n", [1, 10])
    @pytest.mark.parametrize("identity", SUMS)
    def test_one_term_omitted_or_doubled(self, identity, n, factor, monkeypatch):
        """Term n scaled by 0 or 2 fails the check, injected into both
        mechanisms that read the terms: the exact split, which `sum_*` and
        the witness read, and the enclosure, which decides a passing
        report.  A change to the last term would be smaller than the eq62
        tail enclosure width, so it is not a control."""
        sum_fn, term, _, terms = SUMS[identity]
        good = sum_fn(terms)[0]
        split, enclose = identities._binary_split, identities._enclose

        def scaled(p, q, lo, hi):
            P, Q, T = split(p, q, lo, hi)
            if (lo, hi) == (0, terms):
                qn = prod(q(k) for k in range(n + 1))
                T += (factor - 1) * prod(p(k) for k in range(n + 1)) * (Q // qn)
            return P, Q, T

        def scaled_enclosure(p, q, lo, hi):
            L, U, a, b = enclose(p, q, lo, hi)
            if (lo, hi) == (0, terms):
                shift = (factor - 1) * term(n) * 2**identities.W
                L, U = L + floor(shift), U + ceil(shift)
            return L, U, a, b

        monkeypatch.setattr(identities, "_binary_split", scaled)
        monkeypatch.setattr(identities, "_enclose", scaled_enclosure)
        partial, _, passed = sum_fn(terms)
        assert partial - good == (factor - 1) * term(n)
        assert not passed
        report = report_eq59 if identity == "eq59" else report_eq62
        rep = report(terms)
        assert not rep.passed
        assert rep.witness["lhs"] == str(partial)

    @pytest.mark.parametrize("identity", SUMS)
    def test_denominator_bits(self, identity, monkeypatch):
        """Each term folded into the ratio of c_n = C_n/4^n leaves the
        top-level split at 2000 terms one denominator Q, of 21,052 bits
        (eq59) and 40,107 (eq62).  Split over binom(2n,n)/4^n with a
        separate product B of the term denominators, B Q had 61,129 and
        63,147 bits."""
        split, bits = identities._binary_split, []

        def spy(p, q, lo, hi):
            P, Q, T = split(p, q, lo, hi)
            if (lo, hi) == (0, 2000):
                bits.append(Q.bit_length())
            return P, Q, T

        monkeypatch.setattr(identities, "_binary_split", spy)
        assert SUMS[identity][0](2000)[2]
        assert len(bits) == 1 and bits[0] <= 45_000

    @pytest.mark.parametrize("identity", SUMS)
    def test_upper_bound(self, identity):
        terms = next(hi for _, _, dest, _, hi in BOUNDS if dest == f"terms_{identity}")
        assert SUMS[identity][0](terms)[2]

    @pytest.mark.parametrize("identity,terms", [("eq59", 10000), ("eq62", 5000), ("eq62", 10000)])
    def test_witness_past_the_int_str_limit(self, identity, terms, monkeypatch):
        """With its constant moved by 1e-3 a sum fails, and the witness
        spells out the whole partial sum, whose denominator has more digits
        than int -> str accepts by default."""
        constant = {"eq59": "SQRT2_40", "eq62": "LN2_36"}[identity]
        moved = getattr(identities, constant) + Fraction(1, 1000)
        monkeypatch.setattr(identities, constant, moved)
        target = (4 * moved - 2) / 3 if identity == "eq59" else 1 - moved
        sum_fn = SUMS[identity][0]
        report = report_eq59 if identity == "eq59" else report_eq62
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            rep = report(terms)
            sys.set_int_max_str_digits(0)
            partial = sum_fn(terms)[0]
            assert len(str(partial.denominator)) > 4300
            assert not rep.passed
            assert rep.witness == {"index": str(terms), "lhs": str(partial), "rhs": str(target)}
        finally:
            sys.set_int_max_str_digits(limit)


# the eq59 and eq62 term ratios, as `_split` and `_enclose` read them
RATIOS = {
    "eq59": (lambda k: 3 - 2 * k if k else 1, lambda k: 2 * k + 2 if k else 1),
    "eq62": (lambda k: k * (2 * k - 1) if k else 1, lambda k: 2 * (k + 1) ** 2 if k else 4),
}


def _split_by_single_terms(p, q, lo, hi):
    """Binary splitting down to one-term leaves, the reference for the
    looped leaves of `_binary_split`."""
    if hi - lo == 1:
        a = p(lo)
        return a, q(lo), a
    mid = (lo + hi) // 2
    pl, ql, tl = _split_by_single_terms(p, q, lo, mid)
    pr, qr, tr = _split_by_single_terms(p, q, mid, hi)
    return pl * pr, ql * qr, qr * tl + pl * tr


class TestBinarySplit:
    @pytest.mark.parametrize("lo", [0, 1, 7])
    @pytest.mark.parametrize("identity", RATIOS)
    def test_matches_single_term_leaves(self, identity, lo):
        """(P, Q, T) is the one-term-leaf split's, integer for integer, for
        every length 1..120, below, at and above the looped leaf size."""
        p, q = RATIOS[identity]
        for length in range(1, 121):
            assert identities._binary_split(p, q, lo, lo + length) == \
                _split_by_single_terms(p, q, lo, lo + length), length

    @pytest.mark.parametrize("lo", [0, 5])
    def test_empty_range(self, lo):
        p, q = RATIOS["eq62"]
        assert identities._binary_split(p, q, lo, lo) == (1, 1, 0)

    @pytest.mark.parametrize("lo,hi", [(5, 3), (1, 0), (40, 0)])
    def test_reversed_range(self, lo, hi):
        p, q = RATIOS["eq59"]
        with pytest.raises(ValueError):
            identities._binary_split(p, q, lo, hi)


# the sizes the enclosure tests run at, besides every size up to 300
ENCLOSURE_TERMS = (500, 2000, 3000, 10000)


def _sizes(identity):
    return [*range(SUMS[identity][2], 301), *ENCLOSURE_TERMS]


def _split_calls(monkeypatch):
    """Spy on `_binary_split`: the list of its (lo, hi) ranges, recursive
    calls included."""
    split, calls = identities._binary_split, []

    def spy(p, q, lo, hi):
        calls.append((lo, hi))
        return split(p, q, lo, hi)

    monkeypatch.setattr(identities, "_binary_split", spy)
    return calls


class TestEnclosure:
    """`_enclose`, the fixed-point enclosure that decides a passing
    eq59/eq62 report, against the exact sum of `_binary_split`."""

    @pytest.mark.parametrize("identity", SUMS)
    def test_contains_the_exact_sum(self, identity):
        ratio = getattr(identities, f"{identity.upper()}_RATIO")
        term = SUMS[identity][1]
        one = 1 << identities.W
        for terms in _sizes(identity):
            L, U, a, b = identities._enclose(*ratio, 0, terms)
            assert Fraction(L, one) <= SUMS[identity][0](terms)[0] <= Fraction(U, one), terms
            assert Fraction(a, one) <= term(terms - 1) <= Fraction(b, one), terms

    @pytest.mark.parametrize("identity", SUMS)
    def test_report_agrees_with_the_exact_flag(self, identity):
        report = report_eq59 if identity == "eq59" else report_eq62
        for terms in _sizes(identity):
            assert report(terms).passed is SUMS[identity][0](terms)[2], terms

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 50)), max_size=40),
           st.integers(0, 8))
    @settings(max_examples=200)
    def test_contains_any_ratio_sum(self, pairs, width):
        """For ratios of either sign, at W from 0 bits up, (L, U) / 2^W
        holds T / Q of the split."""
        p, q = (lambda k: pairs[k][0]), (lambda k: pairs[k][1])
        old = identities.W
        try:
            identities.W = width
            L, U, _, _ = identities._enclose(p, q, 0, len(pairs))
        finally:
            identities.W = old
        _, Q, T = identities._binary_split(p, q, 0, len(pairs))
        assert Fraction(L, 1 << width) <= Fraction(T, Q) <= Fraction(U, 1 << width)

    def test_argument_errors(self):
        p, q = RATIOS["eq59"]
        assert identities._enclose(p, q, 3, 3)[:2] == (0, 0)
        with pytest.raises(ValueError):
            identities._enclose(p, q, 3, 2)
        with pytest.raises(ValueError):
            identities._enclose(p, lambda k: 1 - k, 0, 5)

    @pytest.mark.parametrize("identity", SUMS)
    def test_widths(self, identity):
        """eq62 at 3000 terms and eq59 at 2000 are wider than one unit of
        2^-W, since the ratio's modulus is near 1, but below 2^-100."""
        ratio = getattr(identities, f"{identity.upper()}_RATIO")
        L, U, _, _ = identities._enclose(*ratio, 0, {"eq59": 2000, "eq62": 3000}[identity])
        assert 1 < U - L < 2 ** (identities.W - 100)

    @pytest.mark.parametrize("identity", SUMS)
    def test_passing_report_makes_no_split(self, identity, monkeypatch):
        """A passing report reads its first omitted term off the enclosure,
        so it takes no split and builds neither C_n nor binom(2n, n)."""
        calls = _split_calls(monkeypatch)
        closed = []
        for name in ("catalan_closed", "comb"):
            def spy(*args, name=name, f=getattr(identities, name)):
                closed.append(name)
                return f(*args)
            monkeypatch.setattr(identities, name, spy)
        report = report_eq59 if identity == "eq59" else report_eq62
        for terms in (SUMS[identity][2], 10, SUMS[identity][3], 3000):
            assert report(terms).passed
        assert calls == []
        assert closed == []

    @pytest.mark.parametrize("end", ["low", "high"])
    def test_term_enclosure_read_at_both_ends(self, end, monkeypatch):
        """With ln 2 moved so that the 1-term sum 1/4 lies 2^-200 outside
        one end of the eq62 band, and the enclosure of the last term widened
        by 2^-7 each way, the band holds 1/4 at one end of that interval
        (the larger term for the low end, the smaller for the high end), and
        the report must still fail."""
        lo, hi = eq62_tail_enclosure(1)
        tiny = Fraction(1, 2**200)
        gap = Fraction(1, 4) + (hi + EPS_CONST + tiny if end == "low" else lo - EPS_CONST - tiny)
        monkeypatch.setattr(identities, "LN2_36", 1 - gap)
        enclose = identities._enclose

        def widened(p, q, lo, hi):
            L, U, a, b = enclose(p, q, lo, hi)
            delta = 1 << (identities.W - 7)
            return L, U, a - delta, b + delta

        monkeypatch.setattr(identities, "_enclose", widened)
        assert not sum_eq62(1)[2]
        assert not report_eq62(1).passed

    @pytest.mark.parametrize("shift", [Fraction(1, 1000), Fraction(-1, 1000)])
    @pytest.mark.parametrize("identity,terms", [("eq59", 100), ("eq59", 500),
                                                ("eq62", 100), ("eq62", 2000)])
    def test_failing_report_makes_one_split(self, identity, terms, shift, monkeypatch):
        """With its constant moved by 1e-3 either way, a report takes the
        exact split once, at the top level, for today's witness."""
        constant = {"eq59": "SQRT2_40", "eq62": "LN2_36"}[identity]
        moved = getattr(identities, constant) + shift
        monkeypatch.setattr(identities, constant, moved)
        target = (4 * moved - 2) / 3 if identity == "eq59" else 1 - moved
        calls = _split_calls(monkeypatch)
        report = report_eq59 if identity == "eq59" else report_eq62
        rep = report(terms)
        assert calls.count((0, terms)) == 1
        partial = SUMS[identity][0](terms)[0]
        assert not rep.passed
        assert rep.witness == {"index": str(terms), "lhs": str(partial), "rhs": str(target)}

    @pytest.mark.parametrize("width", [0, 2, 5])
    @pytest.mark.parametrize("identity", SUMS)
    def test_inconclusive_enclosure_falls_back(self, identity, width, monkeypatch):
        """At a few bits the enclosure is too wide to decide, and each
        report, passing or with its constant moved, is the one at W = 128."""
        report = report_eq59 if identity == "eq59" else report_eq62
        constant = {"eq59": "SQRT2_40", "eq62": "LN2_36"}[identity]
        sizes = [*range(SUMS[identity][2], 40), SUMS[identity][3]]
        for shift in (0, Fraction(1, 10**6)):
            monkeypatch.setattr(identities, constant, getattr(identities, constant) + shift)
            expected = [report(terms) for terms in sizes]
            monkeypatch.setattr(identities, "W", width)
            calls = _split_calls(monkeypatch)
            assert [report(terms) for terms in sizes] == expected
            assert calls.count((0, sizes[-1])) == 1
            monkeypatch.undo()


def _fraction_tail(n):
    """`eq62_tail_enclosure` as `Fraction`s over r_n = binom(2n, n) / 4^n."""
    r = Fraction(comb(2 * n, n), 4**n)
    root = Fraction(isqrt((n * (n + 1)) << 128), (n + 1) << 64)
    return r * root / (6 * (n + 1)), 2 * r * (n + 2) / (3 * (2 * n + 1) ** 2)


def _fraction_band(identity, n):
    """The pass band of n terms as `Fraction`s, from C_n and binom(2n, n),
    with the constants read at call time."""
    eps = identities.EPS_CONST
    if identity == "eq59":
        target = (4 * identities.SQRT2_40 - 2) / 3
        slack = Fraction(catalan_closed(n), 4**n * (2 * n - 1)) + eps
        return target - slack, target + slack
    lo, hi = _fraction_tail(n)
    gap = 1 - identities.LN2_36
    return gap - hi - eps, gap - lo + eps


BANDS = {"eq59": identities._eq59_band, "eq62": identities._eq62_band}


class TestPassBands:
    """`_eq59_band`/`_eq62_band`: the pass bands of eq59/eq62 in unreduced
    integers, as functions of the first omitted term x / y."""

    @pytest.mark.parametrize("identity", SUMS)
    def test_fraction_band_at_the_omitted_term(self, identity):
        term = SUMS[identity][1]
        for n in _sizes(identity):
            low, high, den = BANDS[identity](n, term(n).numerator, term(n).denominator)
            assert (Fraction(low, den), Fraction(high, den)) == _fraction_band(identity, n), n
            if identity == "eq62":
                assert eq62_tail_enclosure(n) == _fraction_tail(n), n

    @given(st.integers(2, 10**4), st.integers(-10**40, 10**40), st.integers(1, 10**40))
    @settings(max_examples=100)
    def test_affine_in_the_term(self, n, x, y):
        """Each end is affine in x, which lets a report decide at the two
        ends of an enclosed term, and den is a multiple of y that does not
        depend on x, which lets the exact sum be compared over den."""
        for band in BANDS.values():
            (low0, high0, den0), (low1, high1, den1) = band(n, 0, y), band(n, 1, y)
            low, high, den = band(n, x, y)
            assert den == den0 == den1 and den % y == 0
            assert low - low0 == x * (low1 - low0)
            assert high - high0 == x * (high1 - high0)

    @pytest.mark.parametrize("name", ["SQRT2_40", "LN2_36", "EPS_CONST"])
    def test_constants_read_at_call_time(self, name, monkeypatch):
        """A constant moved after import moves the band with it."""
        before = (BANDS["eq59"](500, 1, 10**6), BANDS["eq62"](2000, 1, 10**6))
        monkeypatch.setattr(identities, name, getattr(identities, name) + Fraction(1, 1000))
        after = (BANDS["eq59"](500, 1, 10**6), BANDS["eq62"](2000, 1, 10**6))
        assert [b != a for b, a in zip(before, after)] == [name != "LN2_36", name != "SQRT2_40"]

    def test_too_few_terms(self):
        with pytest.raises(ValueError, match="at least 2 terms"):
            BANDS["eq59"](1, 1, 1)
        with pytest.raises(ValueError, match="at least 1 term"):
            BANDS["eq62"](0, 1, 1)

    @pytest.mark.parametrize("end", ["low", "high"])
    def test_eq59_band_is_open(self, end, monkeypatch):
        """With sqrt(2) moved so that an end of the band is the 2-term sum
        5/4, whose first omitted term is -1/24, the sum and the report fail."""
        target = Fraction(5, 4) + (1 if end == "low" else -1) * (Fraction(1, 24) + EPS_CONST)
        monkeypatch.setattr(identities, "SQRT2_40", (3 * target + 2) / 4)
        assert _fraction_band("eq59", 2)[end == "high"] == Fraction(5, 4)
        assert sum_eq59(2) == (Fraction(5, 4), Fraction(1, 24), False)
        rep = report_eq59(2)
        assert not rep.passed
        assert rep.witness == {"index": "2", "lhs": "5/4", "rhs": str(target)}

    @pytest.mark.parametrize("end", ["low", "high"])
    def test_eq62_band_is_closed(self, end, monkeypatch):
        """With ln 2 moved so that an end of the band is the 1-term sum 1/4,
        the sum and the report pass."""
        lo, hi = eq62_tail_enclosure(1)
        gap = Fraction(1, 4) + (hi + EPS_CONST if end == "low" else lo - EPS_CONST)
        monkeypatch.setattr(identities, "LN2_36", 1 - gap)
        assert _fraction_band("eq62", 1)[end == "high"] == Fraction(1, 4)
        assert sum_eq62(1)[2]
        assert report_eq62(1).passed


class TestThm2RowScans:
    """thm2 `number_table`s by scans in u = 1 - 4t, and thm4's rows of even
    N, against the truncated products they replace."""

    @staticmethod
    def _dense_row(identity, N, nmax):
        if identity == "thm2":
            return [_mul(half_power_coeffs(i - 2 * N, nmax),
                         [higher_catalan(i + 1, m) for m in range(nmax + 1)], nmax + 1)
                    for i in range(1, N + 1)]
        return [_mul(half_power_coeffs(N - 2 * i, nmax),
                     [factorial(m + N - i) // factorial(m) * catalan_closed(m + N - i)
                      for m in range(nmax + 1)], nmax + 1)
                for i in range(0, N // 2 + 1)]

    @pytest.mark.parametrize("nmax", [0, 1, 20, 40, 200])
    @pytest.mark.parametrize("identity", ["thm2", "thm4"])
    def test_equals_the_dense_product(self, identity, nmax):
        rows = identities.number_table(identity, 12, nmax)
        assert rows == [self._dense_row(identity, N, nmax) for N in range(1, 13)]

    @pytest.mark.parametrize("identity", ["thm2", "thm4"])
    def test_products(self, identity, monkeypatch):
        """thm2 rows take no `_mul`; thm4 rows take one per summand of odd N
        and none for even N."""
        mul, calls = identities._mul, []

        def spy(a, b, n):
            calls.append(n)
            return mul(a, b, n)

        monkeypatch.setattr(identities, "_mul", spy)
        for N in range(1, 13):
            calls.clear()
            identities.number_table(identity, N, 40)
            odd_rows = range(1, N + 1, 2) if identity == "thm4" else ()
            assert calls == [41] * sum(M // 2 + 1 for M in odd_rows), N

    @pytest.mark.parametrize("nmax", [0, 5, 20])
    @pytest.mark.parametrize("identity", ["thm2", "thm4"])
    def test_one_row_is_the_last_table_row(self, identity, nmax):
        """Row N built alone from its inputs, as a verifier called alone
        builds it, is the last row of the `number_table` of N rows."""
        for N in range(1, 7):
            inputs = identities._number_inputs(identity, N, nmax)
            assert identities._number_row(identity, inputs, N) == \
                identities.number_table(identity, N, nmax)[-1], N

    @pytest.mark.parametrize("identity", ["thm2", "thm4"])
    def test_verifier_alone_builds_one_row(self, identity, monkeypatch):
        """verify_thm2/verify_thm4 called alone build row N only: one
        `_u_power_times` per summand of a thm2 row or of an even thm4 row,
        one `_mul` per summand of an odd thm4 row, and nothing for rows
        1..N-1."""
        calls = Counter()
        for name in ("_u_power_times", "_mul"):
            def spy(*args, name=name, build=getattr(identities, name)):
                calls[name] += 1
                return build(*args)

            monkeypatch.setattr(identities, name, spy)
        verify = verify_thm2 if identity == "thm2" else verify_thm4
        for N in range(1, 7):
            calls.clear()
            assert verify(5, N).passed
            if identity == "thm2":
                expected = {"_u_power_times": N}
            else:
                expected = {"_mul" if N % 2 else "_u_power_times": N // 2 + 1}
            assert calls == Counter(expected), N


class TestConvolutionRecurrences:
    def test_small_values_by_hand(self):
        from catalan_ode.catalan import catalan_closed

        cs = [catalan_closed(n) for n in range(3)]
        # n=0: 1 - 1*1/(-1) = 2;  n=1: 1 - (1/(-1) + 2) = 0
        assert cs[0] - Fraction(cs[0] * cs[0], -1) == 2
        assert cs[1] - (Fraction(cs[0] * cs[1], -1) + Fraction(cs[1] * cs[0] * 2, 1)) == 0
        # second recurrence at n=2: (3/3) * C_1 C_1 * 2/1 = 2
        assert Fraction(3, 3) * Fraction(cs[1] * cs[1] * 2, 1) == cs[2]

    def test_envelope(self):
        rep64, rep66 = verify_convolution_recurrences(200)
        assert rep64.passed and rep66.passed
        assert rep64.identity == "eq64" and rep66.identity == "eq66"

    def test_nmax_too_small(self):
        for verify in (verify_convolution_recurrences, verify_eq64, verify_eq66):
            with pytest.raises(ValueError):
                verify(1)

    def test_weights_of_true_catalan_are_integers(self):
        """sqrt(1-4t) = 1 - 2t C(t) makes C_m (m+1)/(2m-1) the integer
        2 C_{m-1} for m >= 1 and -1 at m = 0, so the common denominator is 1."""
        cs = identities._conv_inputs(1000)
        assert cs == [catalan_closed(n) for n in range(1001)]
        den, u = identities._conv_weights(cs)
        assert den == 1 and u[0] == -1
        assert all(u[m] == 2 * cs[m - 1] for m in range(1, 1001))

    @pytest.mark.parametrize("identity", ["eq64", "eq66"])
    def test_upper_bound(self, identity):
        nmax = next(hi for _, _, dest, _, hi in BOUNDS if dest == "conv_max")
        assert getattr(identities, f"verify_{identity}")(nmax).passed


class TestAsymptotic:
    def test_default(self):
        rep = verify_asymptotic()
        assert rep.passed and rep.parameters == {"n": 1000}

    def test_band_failure_reports_witness(self):
        # at n = 10 the ratio is about 0.898, below the band
        rep = verify_asymptotic(10)
        assert not rep.passed
        assert rep.witness == {"index": "10", "lhs": str(catalan_asymptotic_ratio(10)),
                               "rhs": "(0.99, 1.01)"}


def _first_convolution_mismatch(identity, cs):
    """First (n, lhs, rhs) at which the plain rational sums of eq64 / eq66
    over the inputs cs disagree, or None."""
    nmax = len(cs) - 1

    def conv(n, ms):
        return sum(Fraction(cs[m] * cs[n - m] * (m + 1), 2 * m - 1) for m in ms)

    if identity == "eq64":
        rows = ((n, cs[n] - conv(n, range(n + 1)), 2 if n == 0 else 0)
                for n in range(nmax + 1))
    else:
        rows = ((n, Fraction(2 * n - 1, 3 * (n - 1)) * conv(n, range(1, n)), cs[n])
                for n in range(2, nmax + 1))
    return next((row for row in rows if row[1] != row[2]), None)


def _table_entries(forward, inverse, max_n):
    for n in range(1, max_n + 1):
        for i in range(1, n + 1):
            yield forward, n, i
        for i in range(n // 2 + 1):
            yield inverse, n, i


def _shifted(table, n, i, delta=1):
    """`table` with entry i of row n shifted by delta."""
    rows = [list(r) for r in table.rows]
    rows[n - 1][i - (table.family == "a")] += delta
    return CoeffTable(table.family, tuple(map(tuple, rows)))


REJECTIONS = Path(__file__).resolve().parent / "data" / "verify_rejections.json"


def _rejection_cases():
    """(identity, N, K, shifts) of the committed rejection witnesses: every
    entry of rows 1..8 of the a-table (thm1) and the b-table (thm3) shifted
    by +1, -5 and +37 at K = N + 8, and pairs of shifts whose summands
    cancel at t^0, at K = 64, so that the witness lies past t^0."""
    cases = [(identity, n, n + 8, ((i, delta),))
             for identity, n, i in _table_entries("thm1", "thm3", 8)
             for delta in (1, -5, 37)]
    for identity, n, i, j in (("thm1", 2, 1, 2), ("thm1", 5, 1, 5), ("thm1", 8, 3, 8),
                              ("thm3", 2, 0, 1), ("thm3", 3, 0, 1), ("thm3", 5, 0, 2),
                              ("thm3", 8, 1, 4)):
        cases.append((identity, n, 64, _cancelling_pair(identity, n, i, j)))
    return cases


def _cancelling_pair(identity, n, i, j, m=1):
    """Shifts of entries i and j of row n, m times the least pair whose
    summands cancel at t^0, where entry i of the a row reads 1 and entry i
    of the b row (n-i)! C_(n-i)."""
    def weight(i):
        return 1 if identity == "thm1" else factorial(n - i) * catalan_closed(n - i)

    wi, wj = weight(i), weight(j)
    g = gcd(wi, wj)
    return (i, m * wj // g), (j, -m * wi // g)


def _late_rejections():
    """(identity, N, K, table): for thm1 and thm3 at N = 2..16 and each K in
    {N + 8, 64, 200}, the a/b table with a seeded `_cancelling_pair` of row
    N shifted, so that the row fails past t^0, where the mutation benchmark
    never looks."""
    rng = random.Random(20161)
    cases = []
    for identity in ("thm1", "thm3"):
        true = a_table_recurrence(16) if identity == "thm1" else b_table_recurrence(16)
        for n in range(2, 17):
            entries = range(1, n + 1) if identity == "thm1" else range(n // 2 + 1)
            for order in (n + 8, 64, 200):
                i, j = rng.sample(entries, 2)
                m = rng.randint(1, 9) * rng.choice((-1, 1))
                table = true
                for k, delta in _cancelling_pair(identity, n, i, j, m):
                    table = _shifted(table, n, k, delta)
                cases.append((identity, n, order, table))
    return cases


def _late_rejection_reports():
    """[passed, witness] of the series verifier, called alone, on each case of
    `_late_rejections`."""
    verify = {"thm1": verify_thm1, "thm3": verify_thm3}
    return [[rep.passed, rep.witness] for identity, n, order, table in _late_rejections()
            for rep in [verify[identity](n, "series", order, table)]]


def _rejection_reports(identity, n, order, shifts):
    """{mode: [passed, witness]} of the verifier called alone on rows 1..8
    with `shifts` applied to row n."""
    table, verify = ((a_table_recurrence(8), verify_thm1) if identity == "thm1"
                     else (b_table_recurrence(8), verify_thm3))
    for i, delta in shifts:
        table = _shifted(table, n, i, delta)
    return {mode: [rep.passed, rep.witness]
            for mode in ("series", "symbolic")
            for rep in [verify(n, mode, order, table)]}


class TestFailureWitness:
    @pytest.mark.parametrize("identity,n,i", list(_table_entries("thm1", "thm3", 8)))
    def test_forced_mismatch(self, identity, n, i):
        """Every entry of rows 1..8 of the a-table (thm1) and the b-table
        (thm3), shifted by +1, fails in both modes at coefficient 0."""
        if identity == "thm1":
            table, verify = a_table_recurrence(8), verify_thm1
            lhs = factorial(n) * catalan_closed(n)
            gap = 1
        else:
            table, verify = b_table_recurrence(8), verify_thm3
            lhs = factorial(n)
            gap = factorial(n - i) * catalan_closed(n - i)
        bad = _shifted(table, n, i)
        expected = {"index": "0", "lhs": str(lhs), "rhs": str(lhs + gap)}
        for mode in ("series", "symbolic"):
            rep = verify(n, mode, n + 8, bad)
            assert not rep.passed
            assert rep.witness == expected

    def test_rejections_match_golden(self):
        """Every case of `_rejection_cases` fails in both modes with the
        witness committed in tests/data/verify_rejections.json."""
        golden = json.loads(REJECTIONS.read_text())
        cases = [(c["identity"], c["N"], c["K"], tuple(map(tuple, c["shifts"])))
                 for c in golden]
        assert cases == _rejection_cases()
        assert any(c["series"][1]["index"] != "0" for c in golden)
        for case, c in zip(cases, golden):
            reports = _rejection_reports(*case)
            assert reports == {"series": c["series"], "symbolic": c["symbolic"]}, case
            assert not reports["series"][0] and not reports["symbolic"][0], case

    def test_rejections_match_golden_under_optimize_flag(self):
        """python -O strips asserts; the rejections must not rely on them.
        A fresh `python -O` process, with empty table memos, reports every
        case of the golden as committed."""
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join(filter(None, [str(tests.parent / "src"),
                                             os.environ.get("PYTHONPATH")]))
        code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import test_identities as t; "
                "print(json.dumps([sys.flags.optimize, "
                "[t._rejection_reports(*case) for case in t._rejection_cases()]]))")
        out = subprocess.run([sys.executable, "-O", "-c", code, str(tests)], capture_output=True,
                             text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0, out.stderr
        golden = json.loads(REJECTIONS.read_text())
        assert json.loads(out.stdout) == [
            1, [{"series": c["series"], "symbolic": c["symbolic"]} for c in golden]]

    def test_late_rejections_match_the_scans(self):
        """Every case of `_late_rejections` fails past t^0 with the witness
        of the algorithm the series mechanism ran before it read F_i and
        E_k: inverse scans for thm1, Horner with the dense s y for thm3."""
        cases = _late_rejections()
        assert len(cases) == 90
        for case, (passed, witness) in zip(cases, _late_rejection_reports(), strict=True):
            identity, n, order, table = case
            old = (_thm1_series_by_scans if identity == "thm1"
                   else _thm3_series_with_dense_s)(n, order, table,
                                                   _powers_and_derivatives(n, order))
            assert [passed, witness] == [old.passed, old.witness], case
            assert not passed and witness["index"] != "0", case

    def test_late_rejections_under_optimize_flag(self):
        """A fresh `python -O` process reports every case of
        `_late_rejections` as this one does."""
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join(filter(None, [str(tests.parent / "src"),
                                             os.environ.get("PYTHONPATH")]))
        code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import test_identities as t; "
                "print(json.dumps([sys.flags.optimize, t._late_rejection_reports()]))")
        out = subprocess.run([sys.executable, "-O", "-c", code, str(tests)], capture_output=True,
                             text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == [1, _late_rejection_reports()]

    @pytest.mark.parametrize("identity,n,shifts", [
        ("thm1", 3, {1: 1, 2: -1}),
        ("thm1", 5, {1: 1, 2: -1}),
        ("thm1", 8, {1: 1, 2: -1}),
        ("thm3", 2, {0: 1, 1: -4}),
    ])
    def test_late_index_mismatch(self, identity, n, shifts):
        """Two shifted entries whose summands cancel at coefficient 0 fail in
        both modes at coefficient 1, where no factor s^e reads 1 any more;
        lhs and rhs come from closed forms."""

        def s_coeff(e, m):  # [t^m] s^e, s = sqrt(1-4t)
            return binomial_general(Fraction(e, 2), m) * (-4) ** m

        def deriv_coeff(j, m):  # [t^m] D^j C
            return factorial(m + j) // factorial(m) * catalan_closed(m + j)

        if identity == "thm1":
            table, verify = a_table_recurrence(n), verify_thm1
            lhs = deriv_coeff(n, 1)

            def summand(i, m):  # [t^m] s^(i-2N) C^(i+1)
                return sum(s_coeff(i - 2 * n, m - k) * higher_catalan(i + 1, k)
                           for k in range(m + 1))
        else:
            table, verify = b_table_recurrence(n), verify_thm3
            lhs = factorial(n) * higher_catalan(n + 1, 1)

            def summand(i, m):  # [t^m] s^(N-2i) D^(N-i) C
                return sum(s_coeff(n - 2 * i, m - k) * deriv_coeff(n - i, k)
                           for k in range(m + 1))

        for i, delta in shifts.items():
            table = _shifted(table, n, i, delta)
        assert sum(delta * summand(i, 0) for i, delta in shifts.items()) == 0
        rhs = lhs + sum(delta * summand(i, 1) for i, delta in shifts.items())
        expected = {"index": "1", "lhs": str(lhs), "rhs": str(rhs)}
        for mode in ("series", "symbolic"):
            rep = verify(n, mode, n + 8, table)
            assert not rep.passed
            assert rep.witness == expected

    @pytest.mark.parametrize("identity,n,i", list(_table_entries("thm2", "thm4", 6)))
    def test_forced_number_mismatch(self, identity, n, i):
        """Every entry of rows 1..6 of the a-table (thm2, n = 3) and the
        b-table (thm4, k = 3), shifted by +1, fails at index 3 by exactly
        that entry's summand, computed here with rational binomials."""
        if identity == "thm2":
            rep = verify_thm2(3, n, a_table=_shifted(a_table_recurrence(6), n, i))
            rhs = catalan_closed(3 + n)
            lhs = rhs + sum(
                4**m * binomial_general(Fraction(2 * n - i, 2) + m - 1, m)
                * higher_catalan(i + 1, 3 - m)
                for m in range(4)
            ) / Fraction(factorial(3 + n), factorial(3))
        else:
            rep = verify_thm4(3, n, b_table=_shifted(b_table_recurrence(6), n, i))
            rhs = higher_catalan(n + 1, 3)
            lhs = rhs + sum(
                binomial_general(Fraction(n, 2) - i, 3 - m) * (-4) ** (3 - m)
                * Fraction(factorial(m + n - i), factorial(m)) * catalan_closed(m + n - i)
                for m in range(4)
            ) / factorial(n)
        assert not rep.passed
        assert rep.witness == {"index": "3", "lhs": str(lhs), "rhs": str(rhs)}

    @pytest.mark.parametrize(
        "identity,j", [("eq64", j) for j in range(11)] + [("eq66", j) for j in range(1, 11)]
    )
    def test_forced_convolution_mismatch(self, identity, j, monkeypatch):
        """C_j shifted by +1 in the convolution inputs makes eq64 / eq66 at
        nmax 10 fail at the first n where the plain rational sums disagree
        (eq66 never reads C_0)."""
        cs = [catalan_closed(n) for n in range(11)]
        cs[j] += 1
        monkeypatch.setattr(identities, "_conv_inputs", lambda nmax: list(cs))
        rep = getattr(identities, f"verify_{identity}")(10)
        n, lhs, rhs = _first_convolution_mismatch(identity, cs)
        assert not rep.passed
        assert rep.witness == {"index": str(n), "lhs": str(lhs), "rhs": str(rhs)}

    @pytest.mark.parametrize("shift", [1, -3])
    @pytest.mark.parametrize("identity", ["eq64", "eq66"])
    def test_forced_convolution_mismatch_sweep(self, identity, shift, monkeypatch):
        """Every C_j that eq64 / eq66 reads at nmax 60, shifted by +1 or -3,
        fails at the first n where the plain rational sums disagree.  Most
        shifted weights C_j (j+1)/(2j-1) are not integers, so these
        convolutions run over a common denominator L > 1."""
        verify = getattr(identities, f"verify_{identity}")
        dens = set()
        for j in range(identity == "eq66", 61):
            cs = [catalan_closed(n) for n in range(61)]
            cs[j] += shift
            monkeypatch.setattr(identities, "_conv_inputs", lambda nmax, cs=cs: list(cs))
            rep = verify(60)
            n, lhs, rhs = _first_convolution_mismatch(identity, cs)
            assert not rep.passed, j
            assert rep.witness == {"index": str(n), "lhs": str(lhs), "rhs": str(rhs)}, j
            dens.add(identities._conv_weights(cs)[0])
        assert max(dens) > 1

    def test_series_witness_on_forced_mismatch(self):
        bad = CoeffTable("a", ((2,),))  # a_1(1) should be 1
        rep = verify_thm1(1, "series", 16, a_table=bad)
        assert not rep.passed
        assert rep.witness == {"index": "0", "lhs": "1", "rhs": "2"}

    def test_symbolic_witness_on_forced_mismatch(self):
        bad = CoeffTable("a", ((2,),))
        rep = verify_thm1(1, "symbolic", a_table=bad)
        assert not rep.passed
        assert rep.witness == {"index": "0", "lhs": "1", "rhs": "2"}

    def test_symbolic_witness_names_a_late_index(self):
        """Numerators over C^-60 of C, that is C^61, and of C + t^30, where
        t^30 = (C-1)^30 C^-60, differ first at t^30."""
        from catalan_ode.identities import _symbolic_witness

        c = [0] * 61 + [1]
        t30 = [comb(30, i) * (-1) ** (30 - i) for i in range(31)]
        rnum = [x + y for x, y in zip_longest(c, t30, fillvalue=0)]
        witness = _symbolic_witness(c, rnum, -60, 0)
        c30 = catalan_closed(30)
        assert witness == {"index": "30", "lhs": str(c30), "rhs": str(c30 + 1)}

    @pytest.mark.parametrize("identity,shifts,index,valuations", [
        ("thm1", ((3, 1),), "0", 0), ("thm1", ((1, 1), (2, -1)), "1", 1),
        ("thm3", ((1, 1),), "0", 0), ("thm3", ((0, 1), (1, -4)), "1", 1),
    ])
    def test_symbolic_witness_reads_t0_first(self, identity, shifts, index, valuations,
                                             monkeypatch):
        """A ring failure that shows at t^0 builds no lhs - rhs and takes no
        valuation; one whose t^0 terms agree takes one."""
        calls = Counter()
        valuation = AlgebraicElement.valuation

        def spy(self):
            calls["valuation"] += 1
            return valuation(self)

        monkeypatch.setattr(AlgebraicElement, "valuation", spy)
        verify, table = ((verify_thm1, a_table_recurrence(3)) if identity == "thm1"
                         else (verify_thm3, b_table_recurrence(3)))
        N = 3 if identity == "thm1" else 2
        for i, delta in shifts:
            table = _shifted(table, N, i, delta)
        rep = verify(N, "symbolic", N + 8, table)
        assert not rep.passed and rep.witness["index"] == index
        assert calls["valuation"] == valuations

    @pytest.mark.parametrize("identity,entries", [
        ("thm1", (1,)), ("thm1", (20,)), ("thm1", (40,)), ("thm1", (1, 20, 40)),
        ("thm3", (0,)), ("thm3", (10,)), ("thm3", (20,)), ("thm3", (0, 10, 20)),
    ])
    def test_deep_row_witness_parity(self, identity, entries):
        """Entries of row 40 of the a-table (thm1) or the b-table (thm3), each
        shifted by 7, fail in both modes at K = 48 with the same witness."""
        if identity == "thm1":
            bad, verify = a_table_recurrence(40), verify_thm1
        else:
            bad, verify = b_table_recurrence(40), verify_thm3
        for i in entries:
            bad = _shifted(bad, 40, i, 7)
        series, symbolic = (verify(40, mode, 48, bad) for mode in ("series", "symbolic"))
        assert not series.passed and not symbolic.passed
        assert series.witness == symbolic.witness


    @pytest.mark.parametrize("N", [1, 2, 5, 8, 13])
    def test_every_coefficient_of_c_is_compared(self, N):
        """Row N of the a table shifted by delta_i = [x^(i-1)] (2-x)^j, the
        Taylor coefficients of C^j about C = 2, moves the ring's right
        numerator sum_i a_i(N) (2-C)^(i-1) by C^j alone; for every
        j = 0..N-1 the row fails in both modes, with one witness."""
        a = a_table_recurrence(N)
        for j in range(N):
            table = a
            for m in range(j + 1):
                table = _shifted(table, N, m + 1, comb(j, m) * 2 ** (j - m) * (-1) ** m)
            series, symbolic = (verify_thm1(N, mode, N + 8, table) for mode in ("series", "symbolic"))
            assert not series.passed and not symbolic.passed, j
            assert series.witness == symbolic.witness, j


class TestGridTables:
    """The runner builds each grid's table once and hands it to every job:
    one `series_table` and one `ring_table` for thm1 and thm3, one
    `number_table` per thm2/thm4 grid, one `conv_table` for eq64 and eq66."""

    @pytest.mark.parametrize("identity", ["thm1", "thm3"])
    @pytest.mark.parametrize("max_n", [1, 8, 16, 32])
    def test_series_products(self, identity, max_n, monkeypatch):
        """The series grid takes no product of two coefficient lists,
        whatever max-N is: the series_table builds F_i and E_k by one pass
        per step, and each row is checked by dot products of integers with
        the table's columns, the s^e factors of thm1/thm3 moved into F and
        E."""
        products = Counter()
        kernel_mul, kernel_square = identities._mul, identities._square

        def mul_spy(p, q, n=None):
            products["_mul"] += 1
            return kernel_mul(p, q, n)

        def square_spy(p, n=None):
            products["_square"] += 1
            return kernel_square(p, n)

        monkeypatch.setattr(identities, "_mul", mul_spy)
        monkeypatch.setattr(identities, "_square", square_spy)
        reports = run_suite(identity, RunConfig(max_n_deriv=max_n, series_order=max_n + 32))
        assert reports and all(r.passed for r in reports)
        assert not products

    def test_run_suite_builds_each_table_once(self, monkeypatch):
        """Each identity alone builds exactly the tables its row of the job
        table reads, each once, and the whole suite builds their union;
        thm1 and thm3 share one `series_table` and one `ring_table`, eq64
        and eq66 one `conv_table`, and thm1, thm2 and eq57 one a table.  The
        runner looks its builders up in `identities`, where the verifiers
        build their own tables too, so a job without its table shows as one
        more build."""
        calls = Counter()
        for name in BUILDERS.values():
            def spy(*key, name=name, build=getattr(identities, name)):
                calls[(name, *key)] += 1
                return build(*key)

            monkeypatch.setattr(identities, name, spy)
        cfg = RunConfig()
        a, b = ("a_table_recurrence", cfg.max_n_deriv), ("b_table_recurrence", cfg.max_n_deriv)
        ode = [("series_table", cfg.max_n_deriv, cfg.series_order),
               ("ring_table", cfg.max_n_deriv)]
        conv = ("conv_table", cfg.conv_max)

        def number(ident):
            return ("number_table", ident, NUMBER_MAX_N, cfg.max_index)

        expected = {
            "thm1": [a, *ode], "thm2": [a, number("thm2")],
            "thm3": [b, *ode], "thm4": [b, number("thm4")],
            "eq57": [a, b], "eq58": [], "eq59": [], "eq62": [],
            "eq64": [conv], "eq66": [conv], "asymptotic": [],
        }
        assert list(expected) == list(JOBS)
        for identity, builds in expected.items():
            calls.clear()
            assert all(r.passed for r in run_suite(identity, cfg))
            assert calls == Counter(builds), identity
            kinds = {BUILDERS[kind] for kind in JOBS[identity][1]}
            assert kinds == {name for name, *_ in builds}, identity
        calls.clear()
        assert all(r.passed for r in run_suite("all", cfg))
        assert calls == Counter(set().union(*expected.values()))

    def test_number_tables_share_the_powers(self, monkeypatch):
        """The thm2 `number_table` of a grid of N = min(max-N, NUMBER_MAX_N)
        rows takes C^1..C^(N+1) once for all its rows, (N + 1)(max-n + 1)
        `higher_catalan` values; each thm4 job takes one more, its target."""
        calls = 0

        def spy(r, n, build=identities.higher_catalan):
            nonlocal calls
            calls += 1
            return build(r, n)

        monkeypatch.setattr(identities, "higher_catalan", spy)
        deep = RunConfig(max_n_deriv=6, series_order=14, max_index=40, terms_eq59=2000,
                         terms_eq62=3000, conv_max=400)
        for identity, cfg, count in (
                ("all", deep, 7 * 41 + 6 * 41),
                ("all", RunConfig(), 7 * 21 + 6 * 21),
                ("thm2", RunConfig(max_n_deriv=40, max_index=200), 7 * 201)):
            calls = 0
            assert all(r.passed for r in run_suite(identity, cfg))
            assert calls == count, (identity, count)

    @pytest.mark.parametrize("identity", ["thm1", "thm3"])
    def test_run_suite_derivative_count(self, identity, monkeypatch):
        """Each job rebuilt D^1 C .. D^N C from C, 105 derivatives per mode
        at max-N 14; the grid's `series_table` and `ring_table` take one per
        step, 14: on series one `_derivative` pass over the coefficient
        tuple, in the ring `AlgebraicElement.derivative`.  A verifier called
        alone still takes N on series at a new K, none in the ring, whose
        D^k C serve every N, and none on the grid's key."""
        counts = Counter()
        for owner, name, mode in ((identities, "_derivative", "series"),
                                  (AlgebraicElement, "derivative", "symbolic")):
            def spy(x, derivative=getattr(owner, name), mode=mode):
                counts[mode] += 1
                return derivative(x)

            monkeypatch.setattr(owner, name, spy)
        reports = run_suite(identity, RunConfig(max_n_deriv=14, series_order=22))
        assert reports and all(r.passed for r in reports)
        assert counts == {"series": 14, "symbolic": 14}
        verify = getattr(identities, JOBS[identity][0])
        for mode in ("series", "symbolic"):
            counts.clear()
            assert verify(8, mode, 16).passed
            assert counts[mode] == (8 if mode == "series" else 0)
            counts.clear()
            assert verify(14, mode, 22).passed
            assert not counts

    def test_run_suite_makes_one_convolution(self, monkeypatch):
        """eq64 and eq66 each made their own product of length conv-max + 1;
        the runner's `conv_table` makes one for both, and on the true inputs
        none: the convolution is read off one self-square of length conv-max.
        With one C_j shifted it is the one product again."""
        cfg = RunConfig()
        assert cfg.conv_max != cfg.max_index
        lengths, squares = Counter(), Counter()
        mul, square = identities._mul, identities._square

        def mul_spy(p, q, n=None):
            lengths[n] += 1
            return mul(p, q, n)

        def square_spy(p, n=None):
            squares[n] += 1
            return square(p, n)

        monkeypatch.setattr(identities, "_mul", mul_spy)
        monkeypatch.setattr(identities, "_square", square_spy)
        assert all(r.passed for r in run_suite("all", cfg))
        assert lengths[cfg.conv_max + 1] == 0
        assert squares == {cfg.conv_max: 1}
        shifted = identities._conv_inputs(cfg.conv_max)
        shifted[7] += 1
        monkeypatch.setattr(identities, "_conv_inputs", lambda nmax: list(shifted))
        lengths.clear()
        squares.clear()
        failed = {r.identity for r in run_suite("all", cfg) if not r.passed}
        assert failed == {"eq64", "eq66"}
        assert lengths[cfg.conv_max + 1] == 1 and not squares

    @staticmethod
    def _assert_parity(identity, cfg, last_entry):
        """Each job of the grid, which carries the runner's table, reports
        what its verifier called alone reports: on the true a/b table, and
        on one with the row's last entry shifted, where both fail."""
        verify = getattr(identities, JOBS[identity][0])
        jobs = _jobs(identity, cfg)
        assert jobs
        for _, args in jobs:
            *head, table, grid_table = args
            N = head[0] if identity in ("thm1", "thm3") else head[1]
            bad = _shifted(table, N, last_entry(N))
            for tab in (table, bad):
                shared = verify(*head, tab, grid_table)
                assert shared == verify(*head, tab)
                assert shared.passed is (tab is table)

    @pytest.mark.parametrize("identity,last_entry", [
        ("thm1", lambda N: N), ("thm3", lambda N: N // 2),
    ])
    def test_ode_table_parity(self, identity, last_entry):
        self._assert_parity(identity, RunConfig(max_n_deriv=8), last_entry)

    @pytest.mark.parametrize("identity,last_entry", [
        ("thm2", lambda N: N), ("thm4", lambda N: N // 2),
    ])
    def test_number_row_parity(self, identity, last_entry):
        self._assert_parity(identity, RunConfig(max_index=20), last_entry)

    @pytest.mark.parametrize("identity", ["eq64", "eq66"])
    def test_conv_table_parity(self, identity, monkeypatch):
        """The eq64/eq66 job, which carries the runner's `conv_table`,
        reports what its verifier called alone reports: on the true inputs,
        and with one C_j shifted through `_conv_inputs`, where both fail."""
        verify = getattr(identities, JOBS[identity][0])
        cfg = RunConfig(conv_max=60)
        true_cs = identities._conv_inputs(cfg.conv_max)
        for j in (None, 1, 2, 30, 60):
            cs = list(true_cs)
            if j is not None:
                cs[j] += 1
            monkeypatch.setattr(identities, "_conv_inputs", lambda nmax, cs=cs: list(cs))
            [(_, args)] = _jobs(identity, cfg)
            shared = verify(*args)
            assert shared == verify(cfg.conv_max)
            assert shared.passed is (j is None)


class TestAlgebraOfC:
    """thm1/thm3 read through C = 1 + t C^2 and s C = 2 - C."""

    @pytest.mark.parametrize("order", [9, 22, 64])
    def test_series_powers_without_products(self, order):
        """The series_table's rows, one pass over the coefficients per step,
        are F_i = (2-C)^i C, whose t^n coefficient is
        sum_j binom(i, j) 2^(i-j) (-1)^j C_n^(j+1), and
        E_k = (1-4t)^k D^k C, whose t^n coefficient is
        sum_m binom(k, m) (-4)^m (n-m+k)!/(n-m)! C_(n-m+k), each to order
        K - i or K - k: closed forms that share no code with the integer
        kernel."""
        N = min(16, order - 8)
        f_rows, e_rows = _series_rows(identities.series_table(N, order))
        assert len(f_rows) == N and len(e_rows) == N + 1
        for i, entry in enumerate(f_rows, 1):
            assert entry == [sum(comb(i, j) * 2 ** (i - j) * (-1) ** j * higher_catalan(j + 1, n)
                                 for j in range(i + 1))
                             for n in range(order - i + 1)]
        for k, entry in enumerate(e_rows):
            assert entry == [sum(comb(k, m) * (-4) ** m * perm(n - m + k, k)
                                 * catalan_closed(n - m + k) for m in range(min(k, n) + 1))
                             for n in range(order - k + 1)]

    @pytest.mark.parametrize("order,max_ns", [(9, [1]), (22, range(1, 13)),
                                              (64, range(1, 13)), (512, [40])])
    def test_families_are_kernel_products(self, order, max_ns):
        """The series_table of each N holds F_i = s^i C^(i+1) for i = 1..N to
        order K - i and E_k = s^(2k) D^k C for k = 0..N to order K - k, as
        the integer kernel multiplies them: `_mul` of `half_power_coeffs`
        and the closed forms C_n^(i+1) and (n+k)!/n! C_(n+k)."""
        top = max(max_ns)
        f_rows = [_mul(half_power_coeffs(i, order - i),
                       [higher_catalan(i + 1, n) for n in range(order - i + 1)], order - i + 1)
                  for i in range(1, top + 1)]
        e_rows = [_mul(half_power_coeffs(2 * k, order - k),
                       [perm(n + k, k) * catalan_closed(n + k) for n in range(order - k + 1)],
                       order - k + 1)
                  for k in range(top + 1)]
        for N in max_ns:
            assert _series_rows(identities.series_table(N, order)) == (f_rows[:N], e_rows[:N + 1])

    @pytest.mark.parametrize("shift", [False, True])
    def test_row_in_c_is_the_ring_sum(self, shift):
        """The a row in C, its dot products with the `ring_table`'s columns,
        is sum_i a_i(N) (sC)^(i-1) = sum_i a_i(N) (2-C)^(i-1) in sympy's
        Z[C], for rows 1..40, also with the last entry of each row shifted;
        `test_identities_in_sympy_field` relates it to s^(i-2N) C^(i+1)."""
        sympy = pytest.importorskip("sympy")
        _, c = sympy.ring("C", sympy.ZZ)
        a = a_table_recurrence(40)
        tcols, _ = identities.ring_table(40)
        for N in range(1, 41):
            row = (_shifted(a, N, N) if shift else a).row(N)
            in_c = sum((sum(map(mul, row, col)) * c**j for j, col in enumerate(tcols)), 0 * c)
            assert in_c == sum(x * (2 - c) ** (i - 1) for i, x in enumerate(row, 1)), N

    def test_identities_in_sympy_field(self):
        """An outside oracle: in sympy's Q(C), with D f = C^3/(2-C) f', each
        D^k C, k <= 12, is p_k C^(2k+1) / (2-C)^(2k-1) with the p_k of the
        `ring_table`, and for N <= 12 the ring's identities hold,
        p_N = sum_i a_i(N) (2-C)^(i-1) and N! (2-C)^(N-1) = sum_i b_i(N) p_(N-i),
        as do thm1 and thm3 with s = (2-C)/C."""
        sympy = pytest.importorskip("sympy")
        _, c = sympy.field("C", sympy.QQ)
        s = (2 - c) / c
        _, pcols = identities.ring_table(12)
        p = [None] + [sum(col[12 - k] * c**j for j, col in enumerate(pcols)) for k in range(1, 13)]
        derivs = [c]
        for k in range(1, 13):
            derivs.append(c**3 / (2 - c) * derivs[-1].diff(c))
            assert derivs[k] == p[k] * c ** (2 * k + 1) / (2 - c) ** (2 * k - 1), k
        a, b = a_table_recurrence(12), b_table_recurrence(12)
        for N in range(1, 13):
            assert p[N] == sum(x * (2 - c) ** (i - 1) for i, x in enumerate(a.row(N), 1)), N
            assert factorial(N) * (2 - c) ** (N - 1) == sum(
                x * p[N - i] for i, x in enumerate(b.row(N))), N
            assert derivs[N] == sum(x * s ** (i - 2 * N) * c ** (i + 1)
                                    for i, x in enumerate(a.row(N), 1)), N
            assert factorial(N) * c ** (N + 1) == sum(x * s ** (N - 2 * i) * derivs[N - i]
                                                      for i, x in enumerate(b.row(N))), N

    @pytest.mark.parametrize("n", [0, 1, 30, 40])
    def test_guard_rejects_a_wrong_catalan_series(self, n, monkeypatch):
        """One shifted coefficient of the Catalan series, up to t^K, here 40,
        the last one compared, makes the series_table raise, so F and E
        cannot build on a broken kernel; the ring mechanism does not read
        it."""
        true = identities.catalan_series

        def shifted(order):
            num = list(true(order).num)
            num[n] += 1
            return Series(num)

        monkeypatch.setattr(identities, "catalan_series", shifted)
        with pytest.raises(ArithmeticError, match=r"C_n = binom\(2n, n\)/\(n\+1\)"):
            identities.series_table(8, 40)
        with pytest.raises(ArithmeticError):
            verify_thm3(8, "series", 40)
        assert verify_thm3(8, "symbolic", 40).passed


# Wrong records of D^k C, each one field of (p_k, 2k+1, 2k-1, 1) or the
# degree k - 1 of p_k changed, for `TestRingGuard`.
WRONG_RECORDS = {
    "d": lambda x: AlgebraicElement(x.p, x.k, x.m, 2 * gcd(*x.p) + 1),
    "k": lambda x: AlgebraicElement(x.p, x.k + 1, x.m),
    "m": lambda x: AlgebraicElement(x.p, x.k, x.m - 1),
    "degree": lambda x: AlgebraicElement((*x.p, 1), x.k, x.m),
}


def _wrong_ring_derivative(k, wrong):
    """`identities._ring_derivative` with D^k C replaced by `wrong` of it."""
    true = identities._ring_derivative
    return lambda j: wrong(true(j)) if j == k else true(j)


class TestRingGuard:
    """`ring_table` reads the p_k only after checking that each D^k C is the
    record (p_k, 2k+1, 2k-1, 1) with p_k of degree k - 1, which is what lets
    N columns of C hold both ring identities."""

    @pytest.mark.parametrize("k", [1, 5, 8])
    @pytest.mark.parametrize("field", sorted(WRONG_RECORDS))
    def test_wrong_record_raises_and_is_not_cached(self, field, k, monkeypatch):
        """A wrong D^k C, k <= N, makes `ring_table` raise ArithmeticError on
        every call, with nothing cached, and so every lone symbolic call of
        thm1/thm3; the series mechanism does not read it, and the call after
        the mend builds the true table."""
        monkeypatch.setattr(identities, "_ring_derivative",
                            _wrong_ring_derivative(k, WRONG_RECORDS[field]))
        for _ in range(2):
            with pytest.raises(ArithmeticError, match=rf"D\^{k} C is not"):
                identities.ring_table(8)
            for verify in (verify_thm1, verify_thm3):
                with pytest.raises(ArithmeticError):
                    verify(8, "symbolic")
                assert verify(8, "series", 16).passed
        assert identities.ring_table.cache_info().currsize == 0
        if k > 1:  # a table that does not read D^k C builds
            assert identities.ring_table(k - 1) == _uncached_table("symbolic", k - 1, 16)
        monkeypatch.undo()
        assert identities.ring_table(8) == _uncached_table("symbolic", 8, 16)
        assert verify_thm3(8, "symbolic").passed

    def test_wrong_record_raises_under_optimize_flag(self):
        """The guard is a raise, not an assert: a fresh `python -O` process
        with a wrong D^3 C gets ArithmeticError from `ring_table`."""
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join(filter(None, [str(tests.parent / "src"),
                                             os.environ.get("PYTHONPATH")]))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import test_identities as t\n"
                "t.identities._ring_derivative = t._wrong_ring_derivative(3, t.WRONG_RECORDS['m'])\n"
                "try:\n    t.identities.ring_table(8)\nexcept ArithmeticError as e:\n"
                "    print(sys.flags.optimize, e)\n")
        out = subprocess.run([sys.executable, "-O", "-c", code, str(tests)], capture_output=True,
                             text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("1 D^3 C is not")


def _table(mode, N, order):
    """The table the verifiers of `mode` read for rows up to N."""
    return identities.series_table(N, order) if mode == "series" else identities.ring_table(N)


def _uncached_table(mode, N, order):
    """`_table` built afresh: the series one by the unmemoised builder, the
    ring one by N derivative steps from C, the columns of (2-C)^i from
    binomials and those of the numerators p_k off the records of D^k C."""
    if mode == "series":
        return identities.series_table.__wrapped__(N, order)
    derivs = [AlgebraicElement((1,), 1)]
    for _ in range(N):
        derivs.append(derivs[-1].derivative())
    powers = [[comb(i, j) * 2 ** (i - j) * (-1) ** j for j in range(i + 1)] for i in range(N)]
    return (tuple(zip_longest(*powers, fillvalue=0)),
            tuple(zip_longest(*(x.p for x in derivs[:0:-1]), fillvalue=0)))


class TestOdeTableMemo:
    """Each mechanism's table depends only on its own key, (N, K) for
    `series_table` and N for `ring_table`, so it is memoised per process:
    `series_table` boundedly, and each D^k C of the ring once for every N;
    the a/b table under test never is."""

    @pytest.mark.parametrize("identity", ["thm1", "thm3"])
    @pytest.mark.parametrize("mode,first_build", [
        ("series", {"_derivative": 8, "catalan_closed": 17}),
        ("symbolic", {"derivative": 8}),
    ])
    def test_second_lone_call_builds_nothing(self, identity, mode, first_build, monkeypatch):
        """A second lone call with the same key reads the same table entries
        and takes no derivative step and no `catalan_closed` value; the
        first takes N steps, and on series the K + 1 values of the guard."""
        calls = Counter()
        for owner, name in ((identities, "_derivative"), (AlgebraicElement, "derivative"),
                            (identities, "catalan_closed")):
            def spy(*args, build=getattr(owner, name), name=name):
                calls[name] += 1
                return build(*args)

            monkeypatch.setattr(owner, name, spy)
        verify = getattr(identities, JOBS[identity][0])
        assert verify(8, mode, 16).passed
        assert calls == first_build
        table = _table(mode, 8, 16)
        calls.clear()
        assert verify(8, mode, 16).passed
        assert all(x is y for x, y in zip(_table(mode, 8, 16), table, strict=True))
        assert not calls

    @pytest.mark.parametrize("mode", ["series", "symbolic"])
    def test_entries_are_tuples_of_the_uncached_build(self, mode):
        for N in range(1, 9):
            for order in (N + 8, 64):
                table = _table(mode, N, order)
                assert type(table) is tuple and table == _uncached_table(mode, N, order)
                first, second = table
                assert type(first) is tuple and type(second) is tuple
                assert all(type(x) is tuple for x in first + second)
                if mode == "series":
                    # columns t^0..t^(K-1) of F_1..F_N, t^0..t^K of E_N..E_0
                    assert (len(first), len(second)) == (order, order + 1)
                    assert {len(x) for x in first} == {N} and {len(x) for x in second} == {N + 1}
                else:
                    # columns C^0..C^(N-1) of (2-C)^0..(2-C)^(N-1), of p_N..p_1
                    assert (len(first), len(second)) == (N, N)
                    assert {len(x) for x in first + second} == {N}
        if mode == "symbolic":
            assert identities.ring_table.cache_info().misses == 8
            assert identities._ring_derivative.cache_info().misses == 9

    def test_failures_are_not_cached(self, monkeypatch):
        """A guard failure raises on every call, and the call after the
        kernel is mended builds the true table; so does a bad key."""
        true = identities.catalan_series

        def shifted(order):
            num = list(true(order).num)
            num[3] += 1
            return Series(num)

        monkeypatch.setattr(identities, "catalan_series", shifted)
        for _ in range(2):
            with pytest.raises(ArithmeticError):
                identities.series_table(8, 16)
            with pytest.raises(ValueError):
                identities.series_table(8, 15)
        assert identities.series_table.cache_info().currsize == 0
        monkeypatch.undo()
        assert identities.series_table(8, 16) == identities.series_table.__wrapped__(8, 16)
        assert verify_thm3(8, "series", 16).passed

    @pytest.mark.parametrize("identity,entry", [("thm1", 8), ("thm3", 4)])
    @pytest.mark.parametrize("mode", ["series", "symbolic"])
    def test_the_table_under_test_is_not_cached(self, identity, entry, mode):
        """At one key, a shifted row then the true row gives fail then
        pass, and the reverse order pass then fail; the second call builds
        nothing, neither the series table nor the ring table."""
        verify = getattr(identities, JOBS[identity][0])
        true = a_table_recurrence(8) if identity == "thm1" else b_table_recurrence(8)
        bad = _shifted(true, 8, entry, 7)
        memo = identities.series_table if mode == "series" else identities.ring_table
        for first, second in ((bad, true), (true, bad)):
            memo.cache_clear()
            passed = [verify(8, mode, 16, table).passed for table in (first, second)]
            assert passed == [first is true, second is true]
            assert memo.cache_info().misses == 1

    def test_bounded(self):
        """One key more than the bound of 40 leaves the bound, and the least
        recently used key is built again."""
        bound = identities.series_table.cache_info().maxsize
        assert bound == 40
        keys = [(1, order) for order in range(9, 9 + bound + 1)]
        for key in keys:
            identities.series_table(*key)
        info = identities.series_table.cache_info()
        assert (info.currsize, info.misses) == (bound, bound + 1)
        identities.series_table(*keys[-1])
        identities.series_table(*keys[0])
        info = identities.series_table.cache_info()
        assert (info.hits, info.misses) == (1, bound + 2)

    @pytest.mark.parametrize("identity", ["thm1", "thm3"])
    def test_lone_symbolic_calls_share_the_derivatives(self, identity, monkeypatch):
        """Lone symbolic calls N = 1..8 at K = N + 8 take 8 derivative steps
        in all, one per D^k C, where tables keyed by (N, K) took
        1 + 2 + .. + 8 = 36; a lone call at a new K after a suite run takes
        none."""
        steps = 0
        derivative = AlgebraicElement.derivative

        def spy(x):
            nonlocal steps
            steps += 1
            return derivative(x)

        monkeypatch.setattr(AlgebraicElement, "derivative", spy)
        verify = getattr(identities, JOBS[identity][0])
        assert all(verify(N, "symbolic", N + 8).passed for N in range(1, 9))
        assert steps == 8
        identities._ring_derivative.cache_clear()
        assert all(r.passed for r in run_suite("all", RunConfig()))
        steps = 0
        assert verify(RunConfig.max_n_deriv, "symbolic", 40).passed
        assert steps == 0


# The code that thm1/thm3 reach in one mechanism only, as module.function,
# from `TestMechanisms._reached`.
SERIES_ONLY = {
    "catalan.catalan_closed", "identities._compare_scaled", "identities._derivative",
    "identities.series_table", "series.Series.__init__", "series.catalan_series",
    "series.half_power_coeffs",
}
RING_ONLY = {
    "algebraic.AlgebraicElement.__init__", "algebraic.AlgebraicElement.derivative",
    "algebraic._div_two_minus_c", "identities._compare_in_c", "identities._ring_derivative",
    "identities._symbolic_witness", "identities.ring_table", "series._trim",
}
# The code both mechanisms reach, each with the reason it may be shared: no
# mathematics, only the entry points, the a/b row and the report.
SHARED = {
    "identities.verify_thm1": "the one entry point of thm1, which picks the mechanism",
    "identities.verify_thm3": "the one entry point of thm3, which picks the mechanism",
    "identities._parameters": "checks the arguments and names the report parameters",
    "identities._report": "report plumbing",
    "identities._witness": "report plumbing",
    "identities._exact_str": "report plumbing",
    "identities.VerificationReport.__init__": "report plumbing",
    "coefficients.CoeffTable.row": "reads the a/b row under test",
    "coefficients.CoeffTable.max_n": "reads the a/b row under test",
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
class TestMechanisms:
    """The series and the ring mechanism of thm1/thm3 share no code but the
    `SHARED` allowlist: each side's table, right-hand side and comparison
    are built by code the other does not call."""

    @staticmethod
    def _reached(mode, failing=True):
        """Every function of the package that `verify_thm1`/`verify_thm3`
        reach in `mode`, N = 1..9 at K = 64, on the true a/b rows and, if
        `failing`, on rows with a_1 or b_0 shifted; a nested function or
        comprehension is named by the function it is in."""
        package = str(Path(identities.__file__).parent)
        names = set()

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(package):
                function = code.co_qualname.split(".<locals>")[0]
                names.add(f"{Path(code.co_filename).stem}.{function}")

        cases = []
        for verify, true, i in ((verify_thm1, a_table_recurrence(9), 1),
                                (verify_thm3, b_table_recurrence(9), 0)):
            cases += [(verify, true, N, True) for N in range(1, 10)]
            cases += [(verify, _shifted(true, N, i), N, False) for N in range(1, 10) if failing]
        sys.setprofile(profile)
        try:
            passed = [(verify(N, mode, 64, table).passed, expected)
                      for verify, table, N, expected in cases]
        finally:
            sys.setprofile(None)
        assert all(got is expected for got, expected in passed)
        return names

    def test_each_mechanism_uses_only_its_own_code(self):
        series, ring = self._reached("series"), self._reached("symbolic")
        assert series - ring == SERIES_ONLY
        assert ring - series == RING_ONLY
        assert series & ring == set(SHARED)

    def test_series_pass_path_takes_no_scan_or_product(self):
        """A passing series row reads its table's columns only: no scan by
        1 - 4t, no polynomial in C and no kernel product; it reaches all of
        its mechanism's code and the shared code but the witness."""
        reached = self._reached("series", failing=False)
        assert reached == SERIES_ONLY | set(SHARED) - {"identities._witness",
                                                       "identities._exact_str"}
        for name in ("identities._u_power_times", "series._mul"):
            assert name not in reached

    def test_ring_pass_path_takes_no_canonical_form(self):
        """A passing ring row on a built `ring_table` compares integers only:
        it builds no ring element and no series and divides by no 2 - C;
        it reaches its compare loop and the shared code but the witness."""
        for N in range(1, 10):
            identities.ring_table(N)
        reached = self._reached("symbolic", failing=False)
        assert reached == {"identities._compare_in_c"} | set(SHARED) - {
            "identities._witness", "identities._exact_str"}


def _series_rows(ode):
    """(F_1..F_N, E_0..E_N) of a `series_table`, each row a list of its
    coefficients, read back off the table's columns."""
    fcols, ecols = ode
    f_rows, e_rows = ([[x for x in row if x is not None] for row in zip(*cols)]
                      for cols in (fcols, ecols))
    return f_rows, e_rows[::-1]


def _shifted_column(cols, j, k, delta=1):
    """`cols`, columns of a `series_table`, with entry k of column j shifted."""
    col = list(cols[j])
    col[k] += delta
    return (*cols[:j], tuple(col), *cols[j + 1:])


def _powers_and_derivatives(N, order):
    """(C^1..C^(N+1) to order K, D^0 C..D^N C to order K - k) as integer
    tuples, built the way the series mechanism built them before it read
    F_i and E_k: a ladder C^(r+2) = (C^(r+1) - C^r)/t from the Catalan
    series to order K + N, and N derivative passes."""
    ladder = [[1] + [0] * (order + N), list(catalan_series(order + N).num)]
    for _ in range(N):
        ladder.append([x - y for x, y in zip(ladder[-1][1:], ladder[-2][1:])])
    powers = tuple(tuple(p[: order + 1]) for p in ladder[1:])
    derivs = [powers[0]]
    for _ in range(N):
        derivs.append(tuple([n * c for n, c in enumerate(derivs[-1])][1:]))
    return powers, tuple(derivs)


def _thm1_series_by_scans(N, order, table, ode):
    """verify_thm1 in series mode the way it was built before it read F_i
    and E_N, on `ode` from `_powers_and_derivatives`: c = sum_i a_i(N) (2-C)^i
    by Horner in 2 - C, the combination sum_k c_k C^(k+1) of the powers to
    order K - N, and N inverse scans by 1 - 4t, compared with D^N C."""
    powers, derivs = ode
    c = []
    for a in (*reversed(table.row(N)), 0):
        c = [2 * x - w for x, w in zip(c + [0], [0] + c)]
        c[0] += a
    x = [sum(ck * p[n] for ck, p in zip(c, powers)) for n in range(order - N + 1)]
    for _ in range(N):
        x = list(accumulate(x, lambda w, y: y + 4 * w))
    mm = first_mismatch(Series(list(derivs[N])), Series(x))
    witness = mm and {"index": str(mm[0]), "lhs": str(mm[1]), "rhs": str(mm[2])}
    return identities.VerificationReport("thm1", {"N": N, "K": order}, "series",
                                         mm is None, witness)


def _thm3_series_with_dense_s(N, order, table, ode):
    """verify_thm3 in series mode with every step a dense product of two
    coefficient lists, on `ode` from `_powers_and_derivatives`: Horner by
    u = 1-4t, and s y for odd N."""
    powers, derivs = ode
    u = half_power_coeffs(2, order)
    k = len(derivs[N])
    y = [table.entry(0, N) * x for x in derivs[N]]
    for i in range(1, N // 2 + 1):
        y = [w + table.entry(i, N) * x for w, x in zip(_mul(u, y, k), derivs[N - i])]
    if N % 2:
        y = _mul(half_power_coeffs(1, k - 1), y, k)
    mm = first_mismatch(Series([factorial(N) * x for x in powers[N][:k]]), Series(y))
    witness = mm and {"index": str(mm[0]), "lhs": str(mm[1]), "rhs": str(mm[2])}
    return identities.VerificationReport("thm3", {"N": N, "K": order}, "series",
                                         mm is None, witness)


def _cancel_at_zero(table, N, i, j):
    """`table`, a b table, with b_i(N) and b_j(N) shifted by
    `_cancelling_pair`, so that the row fails later than t^0."""
    for k, delta in _cancelling_pair("thm3", N, i, j):
        table = _shifted(table, N, k, delta)
    return table


class TestPassPathKernels:
    """The dense products a passing check no longer takes: s y of odd thm3
    rows on series, and the eq64/eq66 product u * C, read off C * C."""

    def test_thm3_odd_rows_every_entry(self):
        """Every b entry of the odd rows 1..39, shifted by +1 or -5 and in
        cancelling pairs that move the mismatch past t^0, reports at K = 48
        what the dense product s y reported; the true rows pass."""
        b = b_table_recurrence(40)
        ode, old = identities.series_table(40, 48), _powers_and_derivatives(40, 48)
        late = set()
        for N in range(1, 40, 2):
            tables = [b] + [_shifted(b, N, i, d) for i in range(N // 2 + 1) for d in (1, -5)]
            tables += [_cancel_at_zero(b, N, 0, j) for j in range(1, N // 2 + 1)]
            for table in tables:
                rep = verify_thm3(N, "series", 48, table, ode)
                assert rep == _thm3_series_with_dense_s(N, 48, table, old), N
                assert rep.passed is (table is b)
                if not rep.passed:
                    late.add(rep.witness["index"] != "0")
        assert late == {False, True}

    @pytest.mark.parametrize("N,entries", [(39, (0,)), (39, (19,)), (39, (0, 9, 19)),
                                           (25, (12,)), (1, (0,))])
    def test_thm3_odd_rows_at_k200(self, N, entries):
        """Some odd-row entries shifted by 7, and a cancelling pair, report at
        K = 200 what the dense product s y reported."""
        b = b_table_recurrence(40)
        ode, old = identities.series_table(40, 200), _powers_and_derivatives(40, 200)
        bad = b
        for i in entries:
            bad = _shifted(bad, N, i, 7)
        for table in (bad, _cancel_at_zero(b, N, 0, N // 2) if N > 1 else b):
            rep = verify_thm3(N, "series", 200, table, ode)
            assert rep == _thm3_series_with_dense_s(N, 200, table, old)
            assert rep.passed is (table is b)

    def test_thm3_is_the_horner_sum(self):
        """thm3 on series reports what Horner over series with the dense s y
        reported, at K = 48, on the true rows 1..40, with each of their b
        entries shifted by +1 and by -5, and with cancelling pairs that fail
        past t^0; the ring reports the same pass flag and witness."""
        b = b_table_recurrence(40)
        odes = {"series": identities.series_table(40, 48), "symbolic": identities.ring_table(40)}
        old = _powers_and_derivatives(40, 48)
        for N in range(1, 41):
            tables = [b] + [_shifted(b, N, i, d) for i in range(N // 2 + 1) for d in (1, -5)]
            tables += [_cancel_at_zero(b, N, 0, j) for j in range(1, N // 2 + 1)]
            for table in tables:
                series = verify_thm3(N, "series", 48, table, odes["series"])
                symbolic = verify_thm3(N, "symbolic", 48, table, odes["symbolic"])
                assert series == _thm3_series_with_dense_s(N, 48, table, old), N
                assert (symbolic.passed, symbolic.witness) == (series.passed, series.witness), N
                assert series.passed is (table is b)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_last_compared_coefficient(self, N):
        """On series, thm3 compares t^0..t^(K-N), the order of D^N C: on a
        table of order K + 1, N! F_N = N! s^N C^(N+1) shifted at t^(K-N)
        fails there, with the witness of the dense product s y on C^(N+1)
        shifted there, and shifted at t^(K-N+1) passes.  thm1 fails with
        E_N = s^(2N) D^N C shifted at its last compared coefficient t^(K-N)."""
        order = N + 10
        fcols, ecols = identities.series_table(N, order + 1)
        powers, derivs = _powers_and_derivatives(N, order)
        b = b_table_recurrence(N)
        for index, fails in ((order - N, True), (order - N + 1, False)):
            num = list(powers[N])
            num[index] += 1
            old = ((*powers[:N], tuple(num)), derivs)
            rep = verify_thm3(N, "series", order, b, (_shifted_column(fcols, index, N - 1), ecols))
            assert rep == _thm3_series_with_dense_s(N, order, b, old)
            assert rep.passed is not fails
            assert fails is False or rep.witness["index"] == str(index)
        rep = verify_thm1(N, "series", order, a_table_recurrence(N),
                          (fcols, _shifted_column(ecols, order - N, 0)))
        assert not rep.passed and rep.witness["index"] == str(order - N)

    def test_thm3_grid_work(self, monkeypatch):
        """A passing thm1/thm3 grid at max-N 14 builds its ring elements in
        the `ring_table` only, one per D^k C; a row, in either mode, on a
        built table builds no ring element, no `Series` and divides by no
        2 - C."""
        from catalan_ode import algebraic

        built = Counter()
        spies = ((AlgebraicElement, "__init__"), (Series, "__init__"),
                 (algebraic, "_div_two_minus_c"))
        for owner, name in spies:
            def spy(*args, call=getattr(owner, name), key=f"{owner.__name__}.{name}"):
                built[key] += 1
                return call(*args)

            monkeypatch.setattr(owner, name, spy)
        for identity in ("thm1", "thm3"):
            reports = run_suite(identity, RunConfig(max_n_deriv=14, series_order=22))
            assert len(reports) == 28 and all(r.passed for r in reports)
        assert built["AlgebraicElement.__init__"] == 15
        a, b = a_table_recurrence(14), b_table_recurrence(14)
        odes = {"series": identities.series_table(14, 22), "symbolic": identities.ring_table(14)}
        for N in range(1, 15):
            for mode in ("series", "symbolic"):
                built.clear()
                assert verify_thm1(N, mode, 22, a, odes[mode]).passed
                assert verify_thm3(N, mode, 22, b, odes[mode]).passed
                assert not built, (N, mode)

    def test_conv_table_is_the_dense_product(self, monkeypatch):
        """conv_table(60) is `_mul(u, cs, 61)` on the true inputs and with
        each C_j of `test_conv_table_parity` shifted."""
        true_cs = identities._conv_inputs(60)
        for j in (None, 1, 2, 30, 60):
            cs = list(true_cs)
            if j is not None:
                cs[j] += 1
            monkeypatch.setattr(identities, "_conv_inputs", lambda nmax, cs=cs: list(cs))
            got_cs, den, u, conv = identities.conv_table(60)
            assert got_cs == cs and (den, u) == identities._conv_weights(cs)
            assert conv == _mul(u, cs, 61), j

    def test_bounds(self):
        """thm3 at max-N 40, K = 512, where only the bounds reach the odd
        rows' new comparison, and eq64/eq66 at conv-max 1000 pass."""
        reports = run_suite("thm3", RunConfig(max_n_deriv=40, series_order=512))
        assert len(reports) == 80 and all(r.passed for r in reports)
        for identity in ("eq64", "eq66"):
            reports = run_suite(identity, RunConfig(conv_max=1000))
            assert len(reports) == 1 and reports[0].passed
