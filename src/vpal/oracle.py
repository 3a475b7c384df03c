"""Ground truth by brute force, and the checks and searches that read the
indicator pipeline.

brute_force_flag alone stays independent of the pipeline: it shares only
numbers (the integer primitives and the eligibility check), so agreement
between the two is evidence, not tautology.  Direct mode builds the
concatenated integer and its digit reversal and factors both; factorize
memoizes the split of what trial division leaves, so the two, and every
concatenation with the same repetition cofactor, split it once.  Accelerated
mode factors only n and its reversal: the part of the repetition number
coprime to both adds the same to either factorization sum, so only its
primes shared with n or the reversal are read, by their valuations.
verify and cross_check read the pipeline's analyze; search_iter decides each
n from the pipeline's memo and builds a report for each hit.
"""

from __future__ import annotations

import os
from collections import deque, namedtuple
from enum import Enum

from .characteristic import balance_weight, in_divisibility_set
from .errors import BudgetExceeded, InvalidInput
from .indicator import (
    AnalysisReport,
    IndicatorCombination,
    Singleton,
    analyze,
    combination_and_bounds,
    evaluate,
    fundamental_period,
)
from .numbers import (
    DEFAULT_BUDGET,
    Factorization,
    _eligible,
    check_eligible,
    concat,
    digit_count,
    factorization_sum_of,
    factorize,
    is_v_palindrome,
    padic_order,
    reverse_digits,
)


class Unverified(Singleton):
    """Stands where the factoring budget ran out; compares equal to nothing."""

    label = "UNVERIFIED"


UNVERIFIED = Unverified()

Flag = bool | Unverified

#: How many consecutive n one search chunk covers, serially or in a pool worker.
CHUNK_SIZE = 512


def brute_force_flag(
    n: int, k: int, budget: int = DEFAULT_BUDGET, accelerated: bool = False
) -> Flag:
    """Decide the k-fold concatenation of n by explicit construction.

    Direct mode builds the digit string, reverses it as a string, and factors
    both integers.  Both leave the same cofactor of the repetition number
    after trial division, and factorize memoizes its split, so it is split
    once here and for every n below 10^4 of the same width and k; each of the
    two factorizations exceeds the budget exactly when splitting its survivor
    takes more than budget Brent iterations.  Accelerated mode uses that the
    concatenation is n * R and, when 10 does not divide n, its reversal
    is rev(n) * R, with R the repetition number.  Write R = A * B, A holding
    the primes of n and rev(n).  B is coprime to n * A and to rev(n) * A,
    and the factorization sum adds over coprime parts, so the two sums
    differ exactly as those of n * A and rev(n) * A do: only n and rev(n)
    are factored, and A is read from the valuations of R at their primes.
    Returns UNVERIFIED instead of raising when the factoring budget runs out:
    in direct mode on either integer, in accelerated mode on n or its
    reversal.
    """
    check_eligible(n)
    if k < 1:
        raise ValueError("brute_force_flag requires k >= 1")
    try:
        if accelerated:
            left, right = factorize(n, budget), factorize(reverse_digits(n), budget)
            exponents = {p: _repetition_valuation(p, k, digit_count(n)) for p, _ in left.merge(right)}
            shared = Factorization(tuple((p, v) for p, v in exponents.items() if v))
            return factorization_sum_of(left.merge(shared)) == factorization_sum_of(right.merge(shared))
        return is_v_palindrome(concat(n, k), budget)
    except BudgetExceeded:
        return UNVERIFIED


def _repetition_valuation(p: int, k: int, digits: int) -> int:
    """The exponent of the prime p in repetition_number(k, digits).

    The repetition number is (10**(digits*k) - 1) / (10**digits - 1), so its
    exponent is the difference of theirs.  That of 10**(digits*k) - 1 is read
    from its residue modulo p**e, e doubled until that residue is not 0:
    below e the residue has the exponent of the number itself, which is never
    built.  For p = 2 and 5 the exponent is 0: the repetition number is 1
    modulo 10.
    """
    if p in (2, 5):
        return 0
    e = 1
    while (residue := pow(10, digits * k, p**e) - 1) == 0:
        e *= 2
    return padic_order(residue, p) - padic_order(10**digits - 1, p)


class VerificationRow(namedtuple("VerificationRow", "k predicted observed")):
    """One k compared between prediction (a bool) and brute force (a Flag)."""

    __slots__ = ()

    @property
    def agrees(self) -> bool | None:
        """True/False agreement, or None (skipped) when unverified."""
        return None if isinstance(self.observed, Unverified) else self.predicted == self.observed


def verify(
    n: int,
    k_max: int,
    budget: int = DEFAULT_BUDGET,
    accelerated: bool = False,
) -> tuple[VerificationRow, ...]:
    """Compare the indicator prediction with brute force for k = 1..k_max."""
    if k_max < 1:
        raise InvalidInput("k_max must be >= 1")
    comb = analyze(n, budget).combination
    rows = []
    for k in range(1, k_max + 1):
        predicted = evaluate(comb, k) == 1
        rows.append(VerificationRow(k, predicted, brute_force_flag(n, k, budget, accelerated)))
    return tuple(rows)


def cross_check(n: int, k: int) -> bool:
    """Check the constraint encoding against direct p-adic computation.

    For every characteristic solution, the weight tuple computed from the
    repetition number's own valuations must match the solution exactly when
    k lies in the solution's divisibility set.  Returns True when every
    solution's two verdicts agree (including the no-match case).
    """
    report = analyze(n)
    weights = tuple(
        balance_weight(r.p, abs(r.delta), r.mu + _repetition_valuation(r.p, k, report.digits))
        for r in report.records
    )
    for cons in report.constraints:
        direct = weights == cons.solution
        via_sets = in_divisibility_set(cons.required, cons.excluded, k)
        if direct != via_sets:
            return False
    return True


class SearchProperty(Enum):
    """What a scan looks for.  Values double as the CLI tokens."""

    #: fundamental period differs from both 1 and omega_f
    CONJ1_COUNTEREXAMPLE = "conj1"
    #: fundamental period differs from both 1 and omega_b
    OMEGA_B_COUNTEREXAMPLE = "omegab"
    #: some indicator modulus does not divide the largest one
    DIVISIBILITY_ANOMALY = "anomaly"


def anomaly_witness(comb: IndicatorCombination) -> tuple[int, int] | None:
    """The first indicator modulus that fails to divide the largest one,
    paired with that largest modulus."""
    if not comb.terms:
        return None
    largest = comb.terms[-1][0]
    for modulus, _ in comb.terms:
        if largest % modulus != 0:
            return modulus, largest
    return None


def _is_hit(comb: IndicatorCombination, omega_f: int, omega_b: int, prop: SearchProperty) -> bool:
    if prop is SearchProperty.CONJ1_COUNTEREXAMPLE:
        return fundamental_period(comb) not in (1, omega_f)
    if prop is SearchProperty.OMEGA_B_COUNTEREXAMPLE:
        return fundamental_period(comb) not in (1, omega_b)
    return anomaly_witness(comb) is not None


def _scan_chunk(args: tuple[int, int, SearchProperty, int]) -> list[AnalysisReport]:
    # a hit is decided from the pipeline's memo; only a hit's report is built
    start, stop, prop, budget = args
    return [
        analyze(n, budget)
        for n in range(start, stop)
        if _eligible(n) and _is_hit(*combination_and_bounds(n, budget), prop)
    ]


def search_iter(
    range_end: int,
    prop: SearchProperty,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
    range_start: int = 2,
):
    """Scan eligible n in range_start..range_end for the property, yielding
    the AnalysisReport of each hit in increasing n as its chunk completes.

    Each n is decided from its combination, omega_f and omega_b
    (combination_and_bounds); analyze builds the report of a hit only.  Work
    is sharded into contiguous chunks of CHUNK_SIZE n from range_start.  The
    pool gets at most one process per chunk and per CPU; with one, the scan
    runs serially in this process.  The hits are identical whatever the
    worker count, and equal those of a scan from 2 restricted to n >=
    range_start.
    """
    if range_end < 2:
        raise InvalidInput("range_end must be >= 2")
    if not 2 <= range_start <= range_end:
        raise InvalidInput("range_start must be >= 2 and at most range_end")
    # a chunk is made when the scan reaches it: a list of them all would not fit at 10**10
    starts = range(range_start, range_end + 1, CHUNK_SIZE)
    chunks = ((start, min(start + CHUNK_SIZE, range_end + 1), prop, budget) for start in starts)
    workers = min(workers, len(starts), os.cpu_count() or 1)
    if workers <= 1:
        for chunk in chunks:
            yield from _scan_chunk(chunk)
    else:
        # imported here: only pooled scans pay for the process-pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # two chunks per worker in flight: pool.map would submit every chunk first
            pending = deque()
            for chunk in chunks:
                pending.append(pool.submit(_scan_chunk, chunk))
                if len(pending) == 2 * workers:
                    yield from pending.popleft().result()
            while pending:
                yield from pending.popleft().result()
