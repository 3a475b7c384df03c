"""From crucial primes to divisibility constraints.

A prime whose exponent differs between n and its digit reversal contributes a
small set of possible "balance weights" to an integer equation; each solution
of that equation translates, prime by prime, into divisibility conditions on
the repetition count.  This module builds the records, their case and
constraint tables, solves the equation, and finds a solution's divisibility
set and its least member (least_member) from the pairs it indexes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from typing import Iterable

from .numbers import DEFAULT_BUDGET, check_eligible, factorize, repetition_order, reverse_digits


@dataclass(frozen=True)
class CrucialPrimeRecord:
    """A prime whose exponent differs between n and reverse_digits(n)."""

    p: int
    exp_n: int
    exp_reverse: int

    def __post_init__(self):
        if self.exp_n == self.exp_reverse:
            raise ValueError(f"{self.p} has equal exponents on both sides")

    @property
    def delta(self) -> int:
        return self.exp_n - self.exp_reverse

    @property
    def mu(self) -> int:
        return min(self.exp_n, self.exp_reverse)

    @property
    def sign(self) -> int:
        return 1 if self.delta > 0 else -1


def crucial_primes(n: int, budget: int = DEFAULT_BUDGET) -> tuple[CrucialPrimeRecord, ...]:
    """Records for every prime with differing exponents, sorted by prime.

    Checks that n is eligible, then factors n and its reversal.  Nonempty for
    eligible n: a non-palindrome prime-by-prime equal to its reversal would
    be its reversal.
    """
    check_eligible(n)
    fn = factorize(n, budget).as_dict()
    fr = factorize(reverse_digits(n), budget).as_dict()
    records = tuple(
        CrucialPrimeRecord(p, fn.get(p, 0), fr.get(p, 0))
        for p in sorted(set(fn) | set(fr))
        if fn.get(p, 0) != fr.get(p, 0)
    )
    assert records
    return records


def balance_weight(p: int, delta: int, alpha: int) -> int:
    """Contribution of prime p to the factorization-sum balance when the
    smaller of its two exponents is raised to alpha and the gap is delta >= 1.

    Three-step function of alpha: one value at 0, one at 1, one for >= 2.
    """
    if delta < 1:
        raise ValueError("balance_weight requires delta >= 1")
    if delta == 1:
        if p == 2:
            return 2 if alpha <= 1 else 1
        return p if alpha == 0 else 2 if alpha == 1 else 1
    return p + delta if alpha == 0 else 1 + delta if alpha == 1 else delta


@lru_cache(maxsize=1 << 12)
def weight_range(p: int, delta: int) -> tuple[int, ...]:
    """The values balance_weight(p, delta, alpha) takes over alpha in
    {0, 1, >= 2}, ascending.

    Two values exactly when (p, delta) = (2, 1), otherwise three.
    """
    return tuple(sorted({balance_weight(p, delta, alpha) for alpha in (0, 1, 2)}))


class CaseLabel(Enum):
    """The seven mutually exclusive constraint cases for a (p, delta, u, mu)
    quadruple, named by lowercase roman numerals."""

    I = "i"
    II = "ii"
    III = "iii"
    IV = "iv"
    V = "v"
    VI = "vi"
    VII = "vii"

    def __str__(self) -> str:
        return f"[{self.value}]"


#: The interval [lo, hi] of p-adic orders v of the repetition number that each
#: of the cases [i] to [vi] allows (hi None: unbounded); [vii] allows none.
_CASES = dict(zip([(0, 0), (1, 1), (0, 1), (1, None), (2, None), (0, None)], CaseLabel))


@dataclass(frozen=True)
class ConstraintPair:
    """Conditions on the repetition count k: k must be divisible by
    everything in required and by nothing in excluded."""

    required: frozenset[int]
    excluded: frozenset[int]


_EMPTY: frozenset[int] = frozenset()
_VACUOUS = ConstraintPair(_EMPTY, _EMPTY)
_IMPOSSIBLE = ConstraintPair(_EMPTY, frozenset({1}))


def constraint_table(
    p: int, delta: int, mu: int, digits: int, budget: int = DEFAULT_BUDGET
) -> dict[int, tuple[CaseLabel, ConstraintPair]]:
    """Case and constraint pair of every weight u of (p, delta, mu), by
    ascending u: the keys are weight_range(p, delta).

    Repeating n multiplies n and its reversal by the same repetition number,
    so the smaller exponent of p becomes alpha = mu + v, where v is the p-adic
    order of the repetition number.  u is realized when alpha is one of the
    lift exponents in {0, 1, >= 2} that give u: an interval [lo, hi] of v,
    whose bounds pick one of the seven cases ([vii]: no v at all).
    v >= j exactly when repetition_order(p, j, digits) divides k, so the pair
    requires the order for lo >= 1 and excludes the one for hi + 1, at most
    one modulus a side.  A weight that is not in realizable_weights gets the
    always-false pair (nothing required, 1 excluded); for p = 2 and 5 the
    others get the vacuous one.

    The table may compute an order for a weight that no solution uses.  That
    never adds a BudgetExceeded: repetition_order factors the prime p and
    p - 1 once per prime, and analyze needs that order anyway for omega_f.
    """
    return _constraint_table(p, delta, mu, digits, budget)


@lru_cache(maxsize=1 << 12)
def realizable_weights(p: int, delta: int, mu: int) -> tuple[int, ...]:
    """The weights of (p, delta, mu) that some repetition count realizes,
    ascending: balance_weight at alpha = mu + v for every p-adic order v of
    the repetition number, which is 0 for p = 2 and 5 (the repetition number
    is never divisible by them) and any v >= 0 otherwise (v = 2 stands for
    every v >= 2).  Memoized for the solver and the tables."""
    vs = (0,) if p in (2, 5) else (0, 1, 2)
    return tuple(sorted({balance_weight(p, delta, mu + v) for v in vs}))


@lru_cache(maxsize=1 << 12)
def _constraint_table(p: int, delta: int, mu: int, digits: int, budget: int) -> dict:
    # keyed on positional arguments, so every spelling of a call is one entry
    if mu < 0:
        raise ValueError("constraint_table requires mu >= 0")
    lifts: dict[int, list[int]] = {}
    for alpha in (0, 1, 2):  # 2 stands for every alpha >= 2
        lifts.setdefault(balance_weight(p, delta, alpha), []).append(alpha)
    realizable = realizable_weights(p, delta, mu)
    table = {}
    for u, alphas in sorted(lifts.items()):
        lo = max(alphas[0] - mu, 0)
        hi = None if alphas[-1] == 2 else alphas[-1] - mu
        if u not in realizable:
            pair = _IMPOSSIBLE
        elif p in (2, 5):
            pair = _VACUOUS
        else:
            pair = ConstraintPair(
                frozenset({repetition_order(p, lo, digits, budget)}) if lo else _EMPTY,
                _EMPTY if hi is None else frozenset({repetition_order(p, hi + 1, digits, budget)}),
            )
        table[u] = (_CASES.get((lo, hi), CaseLabel.VII), pair)
    return table


def solve_characteristic(
    records: tuple[CrucialPrimeRecord, ...],
) -> tuple[tuple[int, ...], ...]:
    """All weight tuples, one weight per crucial prime in record order, that
    zero out the signed sum, in lexicographic order."""
    if not records:
        raise ValueError("solve_characteristic requires at least one record")
    return _solve(records, [weight_range(r.p, abs(r.delta)) for r in records])


def _solve(
    records: tuple[CrucialPrimeRecord, ...], weights: list[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """The tuples that take each record's weight from its ascending list in
    weights and zero out the signed sum, in lexicographic order.

    Meet in the middle (E. Horowitz and S. Sahni, "Computing partitions with
    applications to the knapsack problem", J. ACM 21, 1974): the at most
    3**ceil(L/2) weight tuples of the last ceil(L/2) of the L primes are
    grouped by signed sum, and each tuple of the first primes takes the group
    that cancels its own sum.  Both halves run in lexicographic order, so
    their concatenations do.
    """
    signed = [w if r.delta > 0 else [-u for u in w] for r, w in zip(records, weights)]
    half = len(records) // 2
    tails: dict[int, list[tuple[int, ...]]] = {}
    for tail, total in zip(product(*weights[half:]), map(sum, product(*signed[half:]))):
        tails.setdefault(total, []).append(tail)
    out: list[tuple[int, ...]] = []
    for head, total in zip(product(*weights[:half]), map(sum, product(*signed[:half]))):
        for tail in tails.get(-total, ()):
            out.append(head + tail)
    return tuple(out)


def least_member(pairs: Iterable[ConstraintPair]) -> tuple[set[int], set[int], int | None]:
    """The unions A and B of the pairs' required and excluded moduli, and the
    least member of S(A, B): lcm(A), or None when some b in B divides lcm(A)."""
    required, excluded = set(), set()
    for pair in pairs:
        required |= pair.required
        excluded |= pair.excluded
    base = math.lcm(*required)
    for b in excluded:
        if base % b == 0:
            return required, excluded, None
    return required, excluded, base


@dataclass(frozen=True)
class SolutionConstraints:
    """A characteristic solution (one weight per crucial prime) with its
    assembled divisibility constraints.

    degenerate means the constraint set is unsatisfiable: some excluded
    modulus already divides the lcm of the required ones (least_member).
    """

    solution: tuple[int, ...]
    required: frozenset[int]
    excluded: frozenset[int]
    degenerate: bool


def assemble_constraints(
    solution: tuple[int, ...], tables: tuple[dict[int, tuple[CaseLabel, ConstraintPair]], ...]
) -> SolutionConstraints:
    """The solution's divisibility set from the pairs its weights index in
    the constraint tables of its crucial primes, one table per weight in
    record order, as frozensets with a degenerate flag."""
    pairs = (table[u][1] for table, u in zip(tables, solution, strict=True))
    required, excluded, base = least_member(pairs)
    return SolutionConstraints(solution, frozenset(required), frozenset(excluded), base is None)


def in_divisibility_set(
    required: frozenset[int] | set[int], excluded: frozenset[int] | set[int], x: int
) -> bool:
    """True when x is divisible by every required modulus and no excluded one."""
    return all(x % a == 0 for a in required) and not any(x % b == 0 for b in excluded)
