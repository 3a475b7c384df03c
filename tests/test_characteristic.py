"""Crucial primes, balance weights, the case classifier, and constraints."""

import math
import random
from itertools import combinations, product

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from vpal import (
    DEFAULT_BUDGET,
    CaseLabel,
    ConstraintPair,
    CrucialPrimeRecord,
    InvalidInput,
    assemble_constraints,
    balance_weight,
    check_eligible,
    constraint_table,
    crucial_primes,
    digit_count,
    in_divisibility_set,
    solve_characteristic,
    weight_range,
)
from vpal.characteristic import _IMPOSSIBLE, _constraint_table, least_member

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def signed_records(primes, deltas, signs):
    return tuple(
        CrucialPrimeRecord(p, d, 0) if s > 0 else CrucialPrimeRecord(p, 0, d)
        for p, d, s in zip(primes, deltas, signs)
    )


def product_filter(records):
    ranges = [weight_range(r.p, abs(r.delta)) for r in records]
    return [tup for tup in product(*ranges) if sum(r.sign * u for r, u in zip(records, tup)) == 0]


class TestEligibility:
    def test_rejects_multiples_of_ten(self):
        with pytest.raises(InvalidInput, match="multiple of 10"):
            check_eligible(560)

    def test_rejects_palindromes(self):
        with pytest.raises(InvalidInput, match="palindrome"):
            check_eligible(121)

    def test_accepts(self):
        check_eligible(126)


class TestCrucialPrimes:
    def test_126(self):
        got = [(r.p, r.exp_n, r.exp_reverse, r.delta, r.mu) for r in crucial_primes(126)]
        assert got == [
            (2, 1, 0, 1, 0),
            (3, 2, 3, -1, 2),
            (7, 1, 0, 1, 0),
            (23, 0, 1, -1, 0),
        ]

    def test_18(self):
        got = [(r.p, r.delta, r.mu) for r in crucial_primes(18)]
        assert got == [(2, 1, 0), (3, -2, 2)]

    def test_13(self):
        got = [(r.p, r.delta, r.mu) for r in crucial_primes(13)]
        assert got == [(13, 1, 0), (31, -1, 0)]

    def test_signs(self):
        for r in crucial_primes(126):
            assert r.sign * abs(r.delta) == r.delta


class TestBalanceWeight:
    def test_spot_values(self):
        assert balance_weight(7, 1, 0) == 7
        assert balance_weight(2, 1, 1) == 2
        assert balance_weight(5, 3, 4) == 3
        assert balance_weight(3, 2, 1) == 3

    def test_ranges(self):
        assert weight_range(2, 1) == (1, 2)
        assert weight_range(7, 1) == (1, 2, 7)
        assert weight_range(3, 1) == (1, 2, 3)
        assert weight_range(2, 2) == (2, 3, 4)

    def test_range_size(self):
        for p in (2, 3, 5, 7, 11, 13):
            for delta in range(1, 5):
                expected = 2 if (p, delta) == (2, 1) else 3
                assert len(weight_range(p, delta)) == expected

    def test_weight_is_sum_difference(self):
        # the weight is the change in the factorization-sum contribution of p
        # when the exponent pair (alpha, alpha + delta) replaces (alpha, alpha)
        def contribution(p, e):
            return 0 if e == 0 else p if e == 1 else p + e

        for p in (2, 3, 5, 7, 11):
            for delta in range(1, 5):
                for alpha in range(6):
                    assert balance_weight(p, delta, alpha) == contribution(
                        p, alpha + delta
                    ) - contribution(p, alpha)


def _preimage_by_scan(p, delta, u):
    """Independent preimage oracle: scan lift exponents directly."""
    hits = {alpha for alpha in range(8) if balance_weight(p, delta, alpha) == u}
    if hits == {0}:
        return "zero"
    if hits == {1}:
        return "one"
    if hits == {0, 1}:
        return "zero_or_one"
    assert hits == set(range(2, 8))
    return "two_or_more"


def case_of(p, delta, u, mu, digits=1):
    return constraint_table(p, delta, mu, digits)[u][0]


class TestClassifier:
    def test_spot_values(self):
        assert case_of(2, 1, 1, 0) is CaseLabel.V
        assert case_of(3, 1, 1, 2) is CaseLabel.VI
        assert case_of(2, 1, 2, 0) is CaseLabel.III

    def test_case_table_126(self):
        # rows p = 2, 3, 7, 23 against the seven solutions of 126
        records = crucial_primes(126)
        solutions = solve_characteristic(records)
        table = [
            [str(case_of(r.p, abs(r.delta), sol[i], r.mu, 3)) for sol in solutions]
            for i, r in enumerate(records)
        ]
        assert table == [
            ["[v]", "[v]", "[v]", "[iii]", "[iii]", "[iii]", "[iii]"],
            ["[vi]", "[vi]", "[vii]", "[vi]", "[vii]", "[vii]", "[vii]"],
            ["[v]", "[ii]", "[ii]", "[v]", "[v]", "[ii]", "[ii]"],
            ["[v]", "[ii]", "[v]", "[ii]", "[v]", "[ii]", "[v]"],
        ]

    def test_totality_and_exclusivity(self):
        # exactly one case holds, and the first six match their definitions
        for p in [q for q in range(2, 51) if sympy.isprime(q)]:
            for delta in range(1, 5):
                for u in weight_range(p, delta):
                    for mu in range(5):
                        pre = _preimage_by_scan(p, delta, u)
                        predicates = {
                            CaseLabel.I: (pre == "zero" and mu == 0)
                            or (pre == "one" and mu == 1)
                            or (pre == "zero_or_one" and mu == 1),
                            CaseLabel.II: pre == "one" and mu == 0,
                            CaseLabel.III: pre == "zero_or_one" and mu == 0,
                            CaseLabel.IV: pre == "two_or_more" and mu == 1,
                            CaseLabel.V: pre == "two_or_more" and mu == 0,
                            CaseLabel.VI: pre == "two_or_more" and mu >= 2,
                        }
                        holders = [label for label, holds in predicates.items() if holds]
                        assert len(holders) <= 1
                        expected = holders[0] if holders else CaseLabel.VII
                        assert case_of(p, delta, u, mu) is expected


class TestSolver:
    def test_126_solutions(self):
        got = list(solve_characteristic(crucial_primes(126)))
        assert got == [
            (1, 1, 1, 1),
            (1, 1, 2, 2),
            (1, 2, 2, 1),
            (2, 1, 1, 2),
            (2, 2, 1, 1),
            (2, 2, 2, 2),
            (2, 3, 2, 1),
        ]

    def test_12_has_one_solution_all_degenerate(self):
        # crucial primes of 12 are 2 and 7 (exponent of 3 matches on both
        # sides); the lone solution (2, 2) dies in assembly
        records = crucial_primes(12)
        assert [(r.p, r.delta) for r in records] == [(2, 2), (7, -1)]
        solutions = solve_characteristic(records)
        assert solutions == ((2, 2),)
        cons = assemble_constraints(solutions[0], tables_of(records, digit_count(12)))
        assert cons.degenerate

    def test_single_positive_record_unsolvable(self):
        record = crucial_primes(13)[0]  # p = 13, delta = +1
        assert solve_characteristic((record,)) == ()

    def test_completeness_against_product_filter(self):
        for n in (126, 13, 18, 122, 5957, 21726):
            records = crucial_primes(n)
            assert list(solve_characteristic(records)) == product_filter(records)

    @pytest.mark.parametrize("count", range(1, 11))
    def test_synthetic_records_against_product_filter(self, count):
        # 2 with delta 1 has two weights, every other prime three; the signs mix
        rng = random.Random(count)
        for _ in range(4):
            primes = (2, *sorted(rng.sample(ODD_PRIMES, count - 1)))
            deltas = [1] + [rng.randint(1, 3) for _ in range(count - 1)]
            signs = [(-1) ** i for i in range(count)]
            rng.shuffle(signs)
            records = signed_records(primes, deltas, signs)
            assert list(solve_characteristic(records)) == product_filter(records)

    def test_sixteen_primes(self):
        primes = (2, *ODD_PRIMES)
        records = signed_records(primes, [i % 3 + 1 for i in range(16)], [(-1) ** i for i in range(16)])
        # the number of zero-sum tuples, by convolving the signed weight counts
        counts = {0: 1}
        for r in records:
            step: dict[int, int] = {}
            for total, c in counts.items():
                for u in weight_range(r.p, abs(r.delta)):
                    t = total + r.sign * u
                    step[t] = step.get(t, 0) + c
            counts = step
        solutions = solve_characteristic(records)
        assert len(solutions) == counts[0] > 0
        assert all(sum(r.sign * u for r, u in zip(records, s)) == 0 for s in solutions)
        assert all(a < b for a, b in zip(solutions, solutions[1:]))

    def test_lexicographic_order(self):
        values = solve_characteristic(crucial_primes(21726))
        assert list(values) == sorted(values)


def pair_of(record, u, digits):
    return constraint_table(record.p, abs(record.delta), record.mu, digits)[u][1]


def tables_of(records, digits):
    """Each record's constraint table, in record order: what assembly indexes."""
    return tuple(constraint_table(r.p, abs(r.delta), r.mu, digits) for r in records)


class TestConstraintPairs:
    def test_table_entries_for_126(self):
        records = {r.p: r for r in crucial_primes(126)}
        pair = pair_of(records[7], 2, 3)
        assert (set(pair.required), set(pair.excluded)) == ({2}, {14})
        pair = pair_of(records[23], 2, 3)
        assert (set(pair.required), set(pair.excluded)) == ({22}, {506})
        pair = pair_of(records[3], 1, 3)
        assert (set(pair.required), set(pair.excluded)) == (set(), set())

    def test_always_false_pair_for_2_and_5(self):
        record = crucial_primes(126)[0]  # p = 2, delta = 1, mu = 0
        pair = pair_of(record, 1, 3)  # weight 1 needs lift >= 2: impossible
        assert (set(pair.required), set(pair.excluded)) == (set(), {1})

    def test_table_keys_are_the_weight_range(self):
        # the solver draws weights from weight_range and assembly looks them
        # up in the table, so the two must list the same weights in order
        for p in [q for q in range(2, 60) if sympy.isprime(q)]:
            for delta in range(1, 5):
                for mu in range(5):
                    for digits in range(1, 4):
                        table = constraint_table(p, delta, mu, digits)
                        assert tuple(table) == weight_range(p, delta), (p, delta, mu, digits)

    def test_always_false_exactly_when_no_order_realizes_the_weight(self):
        # realizable_weights and the case label are computed apart: a weight
        # gets the always-false pair exactly in case [vii], where no p-adic
        # order v of the repetition number realizes it, or for 2 and 5, whose
        # v is always 0, when the least v that realizes it is lo >= 1
        for p in sympy.primerange(2, 300):
            for delta in range(1, 6):
                for mu in range(5):
                    for digits in range(1, 4):
                        for u, (case, pair) in constraint_table(p, delta, mu, digits).items():
                            vs = [v for v in (0, 1, 2) if balance_weight(p, delta, mu + v) == u]
                            assert (case is CaseLabel.VII) == (not vs), (p, delta, mu, u)
                            impossible = not vs or (p in (2, 5) and vs[0] >= 1)
                            assert (pair == _IMPOSSIBLE) == impossible, (p, delta, mu, digits, u)

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError, match="constraint_table requires mu >= 0"):
            constraint_table(3, 1, -1, 1)

    def test_every_spelling_is_one_memo_entry(self):
        _constraint_table.cache_clear()
        constraint_table(7, 1, 0, 2)
        constraint_table(7, 1, 0, 2, DEFAULT_BUDGET)
        constraint_table(7, 1, 0, 2, budget=DEFAULT_BUDGET)
        info = _constraint_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_full_constraint_table_126(self):
        records = crucial_primes(126)
        solutions = solve_characteristic(records)
        constraints = [assemble_constraints(s, tables_of(records, 3)) for s in solutions]
        assert [set(c.required) for c in constraints] == [
            {14, 506},
            {2, 22},
            {2, 506},
            {14, 22},
            {14, 506},
            {2, 22},
            {2, 506},
        ]
        assert [set(c.excluded) for c in constraints] == [
            {1},
            {1, 14, 506},
            {1, 14},
            {506},
            {1},
            {1, 14, 506},
            {1, 14},
        ]
        assert [c.degenerate for c in constraints] == [
            True,
            True,
            True,
            False,
            True,
            True,
            True,
        ]


#: moduli built from 2, 3, 5 and 7, so every window lcm(A | B) stays below 2521
_moduli = st.builds(
    lambda a, b, c, d: 2**a * 3**b * 5**c * 7**d,
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 1),
    st.integers(0, 1),
)
#: the vacuous and the always-false pair of the constraint tables of 2 and 5
VACUOUS = ConstraintPair(frozenset(), frozenset())
IMPOSSIBLE = ConstraintPair(frozenset(), frozenset({1}))
_pairs = st.one_of(
    st.builds(ConstraintPair, st.frozensets(_moduli, max_size=3), st.frozensets(_moduli, max_size=3)),
    st.sampled_from([VACUOUS, IMPOSSIBLE]),
)


class TestLeastMember:
    @given(st.lists(_pairs, min_size=1, max_size=4))
    @example([VACUOUS])
    @example([IMPOSSIBLE])
    @example([VACUOUS, IMPOSSIBLE])
    def test_base_is_the_least_member_by_window_scan(self, pairs):
        required, excluded, base = least_member(pairs)
        assert required == set().union(*(pair.required for pair in pairs))
        assert excluded == set().union(*(pair.excluded for pair in pairs))
        # S(A, B) repeats with period lcm(A | B), so one window holds its least member if any
        window = math.lcm(*required, *excluded)
        members = (k for k in range(1, window + 1) if in_divisibility_set(required, excluded, k))
        assert base == next(members, None)
        tables = tuple({0: (CaseLabel.I, pair)} for pair in pairs)
        assert assemble_constraints((0,) * len(pairs), tables).degenerate == (base is None)


class TestDivisibilitySets:
    def test_examples(self):
        assert in_divisibility_set({14, 22}, {506}, 154)
        assert not in_divisibility_set({14, 22}, {506}, 3542)
        assert in_divisibility_set(set(), set(), 99)

    def test_trivially_empty(self):
        assert not any(in_divisibility_set(set(), {1}, x) for x in range(1, 50))

    def _nondegenerate_constraints(self, n):
        records = crucial_primes(n)
        tables = tables_of(records, digit_count(n))
        return [
            c
            for c in (assemble_constraints(s, tables) for s in solve_characteristic(records))
            if not c.degenerate
        ]

    def test_nondegenerate_sets_contain_their_base(self):
        # lcm(required) itself always lies in a nondegenerate set
        for n in range(12, 400):
            if n % 10 == 0 or int(str(n)[::-1]) == n:
                continue
            for cons in self._nondegenerate_constraints(n):
                base = math.lcm(*cons.required) if cons.required else 1
                assert in_divisibility_set(cons.required, cons.excluded, base)

    def test_degenerate_sets_are_empty_by_window_scan(self):
        # exhaustive over one full period, for windows small enough to scan
        checked = 0
        for n in range(12, 400):
            if n % 10 == 0 or int(str(n)[::-1]) == n:
                continue
            records = crucial_primes(n)
            for s in solve_characteristic(records):
                cons = assemble_constraints(s, tables_of(records, digit_count(n)))
                if not cons.degenerate:
                    continue
                window = math.lcm(*(cons.required | cons.excluded))
                if window > 200_000:
                    continue
                assert not any(
                    in_divisibility_set(cons.required, cons.excluded, x)
                    for x in range(1, window + 1)
                )
                checked += 1
        assert checked > 50

    def test_pairwise_disjoint(self):
        # set intersection S(A,B) & S(A',B') = S(A|A', B|B') is empty exactly
        # when some excluded modulus divides lcm of the union of required ones
        window_checked = 0
        for n in range(12, 2000):
            if n % 10 == 0 or int(str(n)[::-1]) == n:
                continue
            live = self._nondegenerate_constraints(n)
            for a, b in combinations(live, 2):
                req = a.required | b.required
                exc = a.excluded | b.excluded
                base = math.lcm(*req) if req else 1
                assert any(base % m == 0 for m in exc), (n, a, b)
                window = math.lcm(*(req | exc)) if (req | exc) else 1
                if window <= 100_000:
                    for x in range(1, window + 1):
                        assert not (
                            in_divisibility_set(a.required, a.excluded, x)
                            and in_divisibility_set(b.required, b.excluded, x)
                        )
                    window_checked += 1
        assert window_checked > 10

