"""Exact-arithmetic Catalan number library and identity verifier."""

from .algebraic import AlgebraicElement
from .catalan import (
    catalan_asymptotic_ratio,
    catalan_closed,
    catalan_recurrence,
    higher_catalan,
)
from .coefficients import (
    CoeffTable,
    a_closed_form,
    a_table_recurrence,
    b_closed_form,
    b_table_recurrence,
    s_number,
)
from .exact import binomial_general, double_factorial_odd
from .identities import (
    VerificationReport,
    eq62_tail_enclosure,
    sum_eq59,
    sum_eq62,
    verify_asymptotic,
    verify_convolution_recurrences,
    verify_inverse_delta,
    verify_sqrt_expansion,
    verify_thm1,
    verify_thm2,
    verify_thm3,
    verify_thm4,
)
from .runner import RunConfig, emit_report, run_suite
from .series import (
    Series,
    catalan_series,
    first_mismatch,
    half_power_coeffs,
    sqrt_one_plus_series,
)

__all__ = [
    "AlgebraicElement",
    "CoeffTable",
    "RunConfig",
    "Series",
    "VerificationReport",
    "a_closed_form",
    "a_table_recurrence",
    "b_closed_form",
    "b_table_recurrence",
    "binomial_general",
    "catalan_asymptotic_ratio",
    "catalan_closed",
    "catalan_recurrence",
    "catalan_series",
    "double_factorial_odd",
    "emit_report",
    "eq62_tail_enclosure",
    "first_mismatch",
    "half_power_coeffs",
    "higher_catalan",
    "run_suite",
    "s_number",
    "sqrt_one_plus_series",
    "sum_eq59",
    "sum_eq62",
    "verify_asymptotic",
    "verify_convolution_recurrences",
    "verify_inverse_delta",
    "verify_sqrt_expansion",
    "verify_thm1",
    "verify_thm2",
    "verify_thm3",
    "verify_thm4",
]
