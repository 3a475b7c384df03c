"""The canonical indicator combination for a number, and everything read off
it: the order (first qualifying repetition count), the fundamental period, and
the two coarser period bounds omega_f and omega_b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Union

from .characteristic import (
    CaseLabel,
    ConstraintPair,
    CrucialPrimeRecord,
    SolutionConstraints,
    _solve,
    assemble_constraints,
    constraint_table,
    crucial_primes,
    in_divisibility_set,
    least_member,
    realizable_weights,
    solve_characteristic,
)
from .numbers import (
    DEFAULT_BUDGET,
    Factorization,
    digit_count,
    factorize,
    repetition_order,
    reverse_digits,
)


class Singleton:
    """Base of a marker class with exactly one instance: calling the class
    returns that instance, and its repr is the class's label."""

    label = ""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._instance = object.__new__(cls)

    def __new__(cls):
        return cls._instance

    def __repr__(self) -> str:
        return self.label


class Infinite(Singleton):
    """Order of a number none of whose repeated concatenations qualifies."""

    label = "INFINITE"

    def __str__(self) -> str:
        return "infinity"


INFINITE = Infinite()

Order = Union[int, Infinite]


@dataclass(frozen=True)
class IndicatorCombination:
    """Integer combination of divisibility indicators in canonical form:
    strictly increasing moduli, every coefficient nonzero.

    terms is a tuple of (modulus, coefficient) pairs; empty means the zero
    function.
    """

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 0
        for modulus, coeff in self.terms:
            if modulus <= last:
                raise ValueError("moduli must be strictly increasing")
            if coeff == 0:
                raise ValueError("coefficients must be nonzero")
            last = modulus

    @classmethod
    def collect(cls, pairs: Iterable[tuple[int, int]]) -> "IndicatorCombination":
        """Canonical form from arbitrary (modulus, coefficient) pairs: like
        terms added, zero coefficients dropped, moduli sorted."""
        acc: dict[int, int] = {}
        for modulus, coeff in pairs:
            acc[modulus] = acc.get(modulus, 0) + coeff
        return cls(tuple(sorted((m, c) for m, c in acc.items() if c != 0)))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (modulus, coeff) in enumerate(self.terms):
            mag = f"I_{modulus}" if abs(coeff) == 1 else f"{abs(coeff)}I_{modulus}"
            if i == 0:
                parts.append(mag if coeff > 0 else f"-{mag}")
            else:
                parts.append(f"+ {mag}" if coeff > 0 else f"- {mag}")
        return " ".join(parts)


def evaluate(comb: IndicatorCombination, x: int) -> int:
    """Value at x: the sum of coefficients whose modulus divides x."""
    return sum(coeff for modulus, coeff in comb.terms if x % modulus == 0)


def expand_solution(constraints: SolutionConstraints | ConstraintPair) -> IndicatorCombination:
    """Indicator of the divisibility set of anything with required and
    excluded moduli: I_lcm * prod(1 - I_b), lcm that of the required ones,
    multiplied out one excluded b at a time, merging terms with equal moduli
    as they appear.  An empty set, where some b divides the lcm, comes out as
    the zero combination, since then I_lcm * (1 - I_b) = 0."""
    terms = {math.lcm(*constraints.required): 1}
    for b in constraints.excluded:
        for modulus, coeff in list(terms.items()):
            merged = math.lcm(modulus, b)
            terms[merged] = terms.get(merged, 0) - coeff
    return IndicatorCombination.collect(terms.items())


def fundamental_period(comb: IndicatorCombination) -> int:
    """lcm of the moduli; 1 for the zero combination."""
    return math.lcm(*(modulus for modulus, _ in comb.terms))


def order(comb: IndicatorCombination) -> Order:
    """Smallest positive argument where the combination is nonzero: its
    smallest modulus, or INFINITE for the zero combination."""
    return comb.terms[0][0] if comb.terms else INFINITE


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the pipeline derives for one number, kept together so the
    intermediate tables stay consistent with the final quantities.

    The characteristic solutions, each crucial prime's constraint table and
    every solution's constraints are read on first use (cached properties):
    functions of records, digits and budget, they are left out of equality
    and of the hash, so reports stay hashable.  The tables come from
    constraint_table's memo, where the pipeline left them if it read them.
    """

    n: int
    reverse: int
    digits: int
    n_factorization: Factorization
    reverse_factorization: Factorization
    records: tuple[CrucialPrimeRecord, ...]
    combination: IndicatorCombination
    order: Order
    omega0: int
    omega_f: int
    omega_b: int
    budget: int = field(compare=False)

    @cached_property
    def solutions(self) -> tuple[tuple[int, ...], ...]:
        """Every characteristic solution, realizable or not, solved on first read."""
        return solve_characteristic(self.records)

    @cached_property
    def tables(self) -> tuple[dict[int, tuple[CaseLabel, ConstraintPair]], ...]:
        """Each crucial prime's constraint table in record order, none without
        solutions, read on first use: memo hits when the pipeline read them."""
        return _tables(self.records, self.digits, self.budget) if self.solutions else ()

    @cached_property
    def constraints(self) -> tuple[SolutionConstraints, ...]:
        """Every solution's constraints, assembled from the report's tables on first read."""
        return tuple(assemble_constraints(s, self.tables) for s in self.solutions)


def analyze(n: int, budget: int = DEFAULT_BUDGET) -> AnalysisReport:
    """Run the whole pipeline for one number.  The report holds the indicator
    combination and everything read off it: c(n) as order, omega0, omega_f
    and omega_b.

    Steps: crucial_primes checks n, factors n and its reversal and picks out
    the crucial primes (the report's two factorizations are then memo hits);
    _pipeline solves the characteristic equation over the realizable weights,
    reads the constraint tables, expands the solutions into the canonical
    combination and computes omega_f and omega_b; order and omega0 are read
    off it.  The report solves the full equation, reads the tables and
    assembles the constraints only when first asked, and the tables come
    from constraint_table's memo, where the pipeline left them if it read
    them; readers index the tables and call least_member on a solution's
    pairs.

    The report itself is built afresh on every call.  The one memo of the
    pipeline is _pipeline's, keyed on the records with every sign flipped when the first
    one is negative (_signature), so n and its reversal, whose records differ
    exactly by that flip, share one run.  The report keeps n's own records.
    """
    records = crucial_primes(n, budget)
    rev = reverse_digits(n)
    d = digit_count(n)
    comb, bound_f, bound_b = _pipeline(_signature(records), d, budget)
    return AnalysisReport(
        n=n,
        reverse=rev,
        digits=d,
        n_factorization=factorize(n, budget),
        reverse_factorization=factorize(rev, budget),
        records=records,
        combination=comb,
        order=order(comb),
        omega0=fundamental_period(comb),
        omega_f=bound_f,
        omega_b=bound_b,
        budget=budget,
    )


def combination_and_bounds(n: int, budget: int = DEFAULT_BUDGET) -> tuple[IndicatorCombination, int, int]:
    """The combination, omega_f and omega_b that analyze(n, budget) reports,
    read from crucial_primes and the _pipeline memo without building the
    report: what a scan needs to decide n."""
    return _pipeline(_signature(crucial_primes(n, budget)), digit_count(n), budget)


def _signature(records: tuple[CrucialPrimeRecord, ...]) -> tuple[CrucialPrimeRecord, ...]:
    """The records with exp_n and exp_reverse swapped on every one when the
    first record's sign is negative.

    Flipping every sign leaves the characteristic equation, and so everything
    _pipeline computes, unchanged; the relative signs stay.
    """
    if records[0].sign > 0:
        return records
    return tuple(CrucialPrimeRecord(r.p, r.exp_reverse, r.exp_n) for r in records)


def _tables(records: tuple[CrucialPrimeRecord, ...], digits: int, budget: int) -> tuple[dict, ...]:
    return tuple(constraint_table(r.p, abs(r.delta), r.mu, digits, budget) for r in records)


@lru_cache(maxsize=1 << 12)
def _pipeline(
    records: tuple[CrucialPrimeRecord, ...], digits: int, budget: int
) -> tuple[IndicatorCombination, int, int]:
    """The combination of the nondegenerate solutions, omega_f and omega_b,
    for crucial primes at a digit width; omega_b is the lcm of the moduli of
    the solutions that have a least member (least_member).

    A solution with a weight that no repetition count realizes is
    degenerate, since that weight indexes the always-false pair, so the
    equation is solved over the realizable weights only.  At 6 and 7 digits
    that leaves out nearly 9 in 10 of all solutions.  A table depends on p,
    |delta| and mu only, which _signature's sign flip keeps, so a report
    reads n's own tables from constraint_table's memo.
    """
    solutions = _solve(records, [realizable_weights(r.p, abs(r.delta), r.mu) for r in records])
    # an unsolvable equation needs no repetition orders
    tables = _tables(records, digits, budget) if solutions else ()
    terms, omega_b = [], 1
    for solution in solutions:
        required, excluded, base = least_member([table[u][1] for table, u in zip(tables, solution)])
        if base is not None:
            terms += expand_solution(ConstraintPair(frozenset(required), frozenset(excluded))).terms
            omega_b = math.lcm(omega_b, base, *excluded)
    omega_f_parts = [repetition_order(r.p, 2, digits, budget) for r in records if r.p not in (2, 5)]
    return IndicatorCombination.collect(terms), math.lcm(*omega_f_parts), omega_b


def type_of(n: int, k: int) -> tuple[int, ...] | None:
    """The weight tuple of the unique solution whose divisibility set contains
    k, or None; uniqueness holds because the sets are pairwise disjoint, and a
    degenerate solution's set is empty."""
    if k < 1:
        raise ValueError("type_of requires k >= 1")
    for cons in analyze(n).constraints:
        if in_divisibility_set(cons.required, cons.excluded, k):
            return cons.solution
    return None
