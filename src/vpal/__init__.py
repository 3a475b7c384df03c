"""Exact analysis of which repeated digit concatenations of a number keep
their factorization sum unchanged under digit reversal.

The public surface: integer primitives (`numbers`), crucial-prime machinery
(`characteristic`), the canonical indicator combination with its order and
periods (`indicator`), root-of-unity spectra (`spectrum`), a brute-force
oracle with searches (`oracle`), and a CLI (`cli`).
"""

from .errors import BudgetExceeded, InvalidInput, VpalError
from .numbers import (
    DEFAULT_BUDGET,
    Factorization,
    check_eligible,
    concat,
    digit_count,
    divisors,
    factorization_sum,
    factorization_sum_of,
    factorize,
    is_v_palindrome,
    multiplicative_order,
    padic_order,
    repetition_number,
    repetition_order,
    reverse_digits,
)
from .characteristic import (
    CaseLabel,
    ConstraintPair,
    CrucialPrimeRecord,
    SolutionConstraints,
    assemble_constraints,
    balance_weight,
    constraint_table,
    crucial_primes,
    in_divisibility_set,
    solve_characteristic,
    weight_range,
)
from .indicator import (
    INFINITE,
    AnalysisReport,
    IndicatorCombination,
    Infinite,
    analyze,
    evaluate,
    expand_solution,
    fundamental_period,
    order,
    type_of,
)
from .spectrum import (
    PeriodicSamples,
    combination_spectrum,
    gcd_period,
    indicator_spectrum,
    naive_fundamental_period,
    net_coefficients,
    samples_to_spectrum,
    support_period,
)
from .oracle import (
    UNVERIFIED,
    SearchProperty,
    Unverified,
    VerificationRow,
    anomaly_witness,
    brute_force_flag,
    cross_check,
    search_iter,
    verify,
)

__version__ = "0.1.0"
