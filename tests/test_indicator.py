"""Canonical indicator combinations, their evaluation, orders, and periods."""

import hashlib
import json
import math
import random
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpal import (
    DEFAULT_BUDGET,
    INFINITE,
    ConstraintPair,
    CrucialPrimeRecord,
    IndicatorCombination,
    Infinite,
    InvalidInput,
    SearchProperty,
    SolutionConstraints,
    analyze,
    balance_weight,
    assemble_constraints,
    constraint_table,
    crucial_primes,
    digit_count,
    divisors,
    evaluate,
    expand_solution,
    factorize,
    fundamental_period,
    in_divisibility_set,
    order,
    repetition_order,
    reverse_digits,
    search_iter,
    solve_characteristic,
    type_of,
    verify,
)
from vpal import characteristic, indicator
from vpal.cli import main, render_report, report_json
from vpal.indicator import _pipeline, _signature

I126 = IndicatorCombination(((154, 1), (3542, -1)))


def constraints_for(n, index):
    report = analyze(n)
    return assemble_constraints(report.solutions[index], report.tables)


class TestExpandSolution:
    def test_126_survivor(self):
        cons = constraints_for(126, 3)  # ({14, 22}, {506})
        assert expand_solution(cons).terms == ((154, 1), (3542, -1))

    def test_unconstrained_solution_is_constant_one(self):
        cons = constraints_for(18, 0)
        assert expand_solution(cons).terms == ((1, 1),)

    def test_two_exclusions(self):
        # required {2}, excluded {14, 506}: four subsets, lcms 2/14/506/3542
        cons = constraints_for(126, 3)
        synthetic = type(cons)(
            solution=cons.solution,
            required=frozenset({2}),
            excluded=frozenset({14, 506}),
            degenerate=False,
        )
        assert expand_solution(synthetic).terms == ((2, 1), (14, -1), (506, -1), (3542, 1))

    def test_degenerate_is_zero_combination(self):
        cons = constraints_for(126, 0)
        assert cons.degenerate
        assert expand_solution(cons) == IndicatorCombination(())

    def test_takes_any_required_and_excluded_moduli(self):
        # an empty set comes out of the moduli themselves, not off a flag
        assert expand_solution(ConstraintPair(frozenset({154}), frozenset({506}))) == I126
        zero = expand_solution(ConstraintPair(frozenset({14, 22}), frozenset({7})))
        assert zero == IndicatorCombination(())

    # products of 2, 3, 5, 7 with at most three factors: many moduli divide
    # one another or share an lcm with the base
    _moduli = st.builds(math.prod, st.lists(st.sampled_from([2, 3, 5, 7]), max_size=3))

    @given(st.frozensets(_moduli, max_size=3), st.frozensets(_moduli, max_size=7))
    @settings(max_examples=300)
    def test_matches_inclusion_exclusion_over_all_subsets(self, required, excluded):
        # degenerate inputs included: their reference sums to the zero combination
        base = math.lcm(*required)
        degenerate = any(base % b == 0 for b in excluded)
        cons = SolutionConstraints((), required, excluded, degenerate)
        reference = IndicatorCombination.collect(
            (math.lcm(base, *subset), (-1) ** r)
            for r in range(len(excluded) + 1)
            for subset in combinations(sorted(excluded), r)
        )
        assert expand_solution(cons) == reference


class TestIndicatorFor:
    def test_known_combinations(self):
        assert analyze(126).combination.terms == ((154, 1), (3542, -1))
        assert analyze(13).combination.terms == ((15, 1), (195, -1), (465, -1), (6045, 2))
        assert analyze(18).combination.terms == ((1, 1),)
        assert analyze(12).combination.terms == ()

    def test_like_terms_cancel(self):
        # inclusion-exclusion for 5957 produces +/- I_3795 which must vanish
        assert analyze(5957).combination.terms == ((253, 1), (759, -1))

    def test_rejects_ineligible(self):
        with pytest.raises(InvalidInput):
            analyze(560)


class TestEvaluate:
    def test_examples(self):
        assert evaluate(I126, 154) == 1
        assert evaluate(I126, 3542) == 0
        assert evaluate(IndicatorCombination(()), 17) == 0

    def test_equals_divisor_sum(self):
        comb = analyze(122).combination
        for x in range(1, 200):
            assert evaluate(comb, x) == sum(
                coeff for modulus, coeff in comb.terms if x % modulus == 0
            )


class TestPeriodAndOrder:
    def test_fundamental_period(self):
        assert fundamental_period(I126) == 3542
        assert fundamental_period(analyze(13).combination) == 6045
        assert fundamental_period(IndicatorCombination(())) == 1

    def test_order(self):
        assert order(analyze(13).combination) == 15
        assert order(analyze(126).combination) == 154
        assert order(analyze(12).combination) is INFINITE

    def test_infinite_is_a_singleton(self):
        assert Infinite() is INFINITE
        assert repr(INFINITE) == "INFINITE"


class TestOmegaF:
    def test_126(self):
        assert analyze(126).omega_f == 31878
        assert analyze(126).omega_f == math.lcm(9, 14, 506)

    def test_5957(self):
        assert analyze(5957).omega_f == 30470055

    def test_crucial_primes_only_2_and_5(self):
        # 528 = 2^4 * 3 * 11 reverses to 825 = 3 * 5^2 * 11: the empty-lcm branch
        assert [r.p for r in crucial_primes(528)] == [2, 5]
        assert analyze(528).omega_f == 1
        assert analyze(528).combination.terms == ()


class TestOmegaB:
    def test_examples(self):
        assert analyze(126).omega_b == 3542  # lcm{14, 22, 506}
        assert analyze(13).omega_b == 6045
        assert analyze(12).omega_b == 1  # no surviving solutions

    def test_divides_into_chain(self):
        # every indicator modulus divides omega_b
        for n in (13, 56, 122, 126, 5957):
            report = analyze(n)
            for modulus, _ in report.combination.terms:
                assert report.omega_b % modulus == 0
            assert report.omega_b % report.omega0 == 0


class TestTypeOf:
    def test_examples(self):
        assert type_of(13, 15) == (2, 2)
        assert type_of(13, 1) is None
        assert type_of(126, 154) == (2, 1, 1, 2)

    def test_matches_evaluation(self):
        for n in (13, 48, 56, 126):
            comb = analyze(n).combination
            for k in range(1, 300):
                assert (type_of(n, k) is not None) == (evaluate(comb, k) == 1)


class TestAnalyze:
    def test_122(self):
        report = analyze(122)
        assert report.combination.terms == (
            (80, 1),
            (1040, -1),
            (1360, -1),
            (4880, -1),
            (17680, 1),
            (63440, 2),
            (82960, 2),
            (1078480, -3),
        )
        assert report.order == 80
        assert report.omega0 == 1078480

    def test_48(self):
        report = analyze(48)
        assert str(report.combination) == "I_3 - I_21"
        assert report.order == 3
        assert report.omega0 == 21

    def test_fifteen_digit_crucial_prime(self):
        # its repetition orders are taken modulo p**2, p = 100000000000031
        report = analyze(300000000000093)
        assert [(r.p, r.exp_n, r.exp_reverse) for r in report.records] == [
            (6529, 0, 1),
            (19911165569, 0, 1),
            (100000000000031, 1, 0),
        ]

    def test_json_shape(self):
        d = json.loads(report_json(analyze(126)))
        assert list(d) == [
            "n",
            "reverse",
            "digits",
            "crucial_primes",
            "solutions",
            "indicator",
            "order",
            "omega0",
            "omega_f",
            "omega_b",
        ]
        assert d["n"] == "126"
        assert d["indicator"] == [
            {"c": "154", "lambda": "1"},
            {"c": "3542", "lambda": "-1"},
        ]
        assert d["order"] == "154"
        # integers travel as decimal strings, never as JSON numbers
        assert not any(isinstance(v, (int, float)) for v in d.values())

    def test_json_infinite_order(self):
        d = json.loads(report_json(analyze(12)))
        assert d["order"] == "infinity"
        assert d["omega0"] == "1"
        assert d["indicator"] == []

    @pytest.mark.parametrize("n", [126, 45])
    def test_json_shared_pair_dicts_name_their_own_prime(self, n):
        # in 126's third solution 2 and 3 both get the always-false pair (one
        # object), and in 45's second 2 and 5 both get the vacuous one, so
        # pair dicts shared by pair alone would name the first prime twice
        report = analyze(n)
        solutions = json.loads(report_json(report))["solutions"]
        assert len(solutions) > 1
        pairs = [[t[u][1] for t, u in zip(report.tables, s)] for s in report.solutions]
        assert any(a == b for row in pairs for a, b in combinations(row, 2))
        for solution in solutions:
            assert [pair["p"] for pair in solution["pairs"]] == [str(r.p) for r in report.records]

    def test_every_spelling_of_the_default_budget_is_one_memo_entry(self):
        # regression: the default and DEFAULT_BUDGET, positional or by
        # keyword, were separate cache keys and ran _pipeline twice
        _pipeline.cache_clear()
        reports = [
            analyze(126),
            analyze(126, DEFAULT_BUDGET),
            analyze(126, budget=DEFAULT_BUDGET),
        ]
        assert all(r == reports[0] for r in reports)
        assert _pipeline.cache_info().misses == 1
        # the memo holds the final quantities, no tables, no solutions and no
        # assembled constraints, and the report has not solved
        report = reports[0]
        assert "solutions" not in vars(report)
        assert _pipeline(_signature(report.records), report.digits, DEFAULT_BUDGET) == (
            report.combination,
            report.omega_f,
            report.omega_b,
        )
        assert _pipeline.cache_info().misses == 1


def _eligible(n):
    return n % 10 != 0 and reverse_digits(n) != n


def _flipped(records, indices):
    return tuple(
        CrucialPrimeRecord(r.p, r.exp_reverse, r.exp_n) if i in indices else r
        for i, r in enumerate(records)
    )


# (p, exp_n, exp_reverse) with distinct primes and unequal exponents
_records = st.lists(
    st.tuples(
        st.sampled_from([2, 3, 5, 7, 11, 13, 37, 101]), st.integers(0, 3), st.integers(0, 3)
    ).filter(lambda t: t[1] != t[2]),
    min_size=1,
    max_size=6,
    unique_by=lambda t: t[0],
).map(lambda rows: tuple(CrucialPrimeRecord(*row) for row in sorted(rows)))


class TestSharedPipeline:
    """n and its reversal have the same records up to flipping every sign, so
    analyze runs _pipeline once for both."""

    def test_reversal_after_n_matches_cold(self):
        checked = 0
        for n in range(1, 3000):
            rev = reverse_digits(n)
            if not (_eligible(n) and _eligible(rev)):
                continue
            _pipeline.cache_clear()
            analyze(n)
            hits = _pipeline.cache_info().hits
            report = analyze(rev)
            assert _pipeline.cache_info().hits == hits + 1
            # the warm report renders rev's own records, and never assembles
            assert "constraints" not in vars(report)
            warm = report_json(report)
            assert "constraints" not in vars(report)
            _pipeline.cache_clear()
            assert warm == report_json(analyze(rev)), n
            checked += 1
        assert checked == 2572

    @given(_records)
    @settings(max_examples=300)
    def test_solutions_invariant_under_flipping_every_sign(self, records):
        flipped = _flipped(records, range(len(records)))
        assert solve_characteristic(flipped) == solve_characteristic(records)
        assert _signature(flipped) == _signature(records)

    def test_flipping_one_sign_changes_the_key(self):
        for n in range(1, 3000):
            if not _eligible(n):
                continue
            records = crucial_primes(n)
            if len(records) == 1:
                continue  # flipping its one sign flips every sign
            for i in range(len(records)):
                assert _signature(_flipped(records, {i})) != _signature(records), (n, i)
        # and the key must keep them: for 126 every single flip changes the solutions
        records = crucial_primes(126)
        for i in range(len(records)):
            assert solve_characteristic(_flipped(records, {i})) != solve_characteristic(records)


def _reference_pipeline(records, digits):
    """The combination, omega_f and omega_b by assembling every solution from
    each record's constraint table: the live ones are expanded and collected,
    and omega_b is the lcm of their required and excluded moduli."""
    solutions = solve_characteristic(records)
    tables = tuple(constraint_table(r.p, abs(r.delta), r.mu, digits) for r in records if solutions)
    constraints = [assemble_constraints(s, tables) for s in solutions]
    live = [c for c in constraints if not c.degenerate]
    return (
        IndicatorCombination.collect(term for c in live for term in expand_solution(c).terms),
        math.lcm(*(repetition_order(r.p, 2, digits) for r in records if r.p not in (2, 5))),
        math.lcm(*(m for c in live for m in c.required | c.excluded)),
    )


#: sha256 of render_report(analyze(126)), the walkthrough of the paper's example
WALKTHROUGH_126_SHA256 = "8836c649211f768ad5f4b3bbddca71464d8edc8d2b6352afd2688f39bd173494"


class TestLeanPipeline:
    """_pipeline solves over the realizable weights and reads the constraint
    tables and only what the combination and omega_b need of them; a report
    solves in full and assembles the constraints on its first read of them."""

    def test_matches_assembling_every_solution(self):
        keys = {
            (_signature(crucial_primes(n)), digit_count(n))
            for n in [*range(1, 2101), 21726]
            if _eligible(n)
        }
        for records, digits in keys:
            assert _pipeline(records, digits, DEFAULT_BUDGET) == _reference_pipeline(records, digits), records

    def test_solves_over_the_realizable_weights(self, monkeypatch):
        # the pipeline's solutions are the report's that use only weights some
        # p-adic order v of the repetition number realizes (v = 0 for 2 and 5)
        solved = []

        def recorded(records, weights):
            solved.append(solve(records, weights))
            return solved[-1]

        solve = indicator._solve
        monkeypatch.setattr(indicator, "_solve", recorded)
        checked = 0
        for n in range(1, 2101):
            if not _eligible(n):
                continue
            report = analyze(n)
            records = report.records
            solved.clear()
            _pipeline.__wrapped__(_signature(records), report.digits, DEFAULT_BUDGET)
            realized = [
                {balance_weight(r.p, abs(r.delta), r.mu + v) for v in ((0,) if r.p in (2, 5) else (0, 1, 2))}
                for r in records
            ]
            realizable = tuple(s for s in report.solutions if all(u in w for u, w in zip(s, realized)))
            assert solved == [realizable], n
            assert report.solutions == solve_characteristic(records)
            tables = tuple(constraint_table(r.p, abs(r.delta), r.mu, report.digits) for r in records)
            assert report.constraints == tuple(assemble_constraints(s, tables) for s in report.solutions)
            checked += 1
        assert checked == 1771

    def test_a_report_solves_in_full_at_most_once(self, monkeypatch):
        calls = []

        def counted(records):
            calls.append(records)
            return solve_characteristic(records)

        monkeypatch.setattr(indicator, "solve_characteristic", counted)
        for n in (126, 12, 16, 1308276133167003):
            calls.clear()
            report = analyze(n)
            assert calls == []
            render_report(report)
            report_json(report)
            report.constraints
            assert calls == [report.records]

    @given(_records, st.integers(2, 4))
    @settings(max_examples=300)
    def test_matches_assembling_every_solution_on_any_records(self, records, digits):
        assert _pipeline.__wrapped__(records, digits, DEFAULT_BUDGET) == _reference_pipeline(records, digits)

    def test_search_and_verify_never_assemble(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("assemble_constraints called")

        original = characteristic.assemble_constraints
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "vpal":
                continue
            if getattr(module, "assemble_constraints", None) is original:
                monkeypatch.setattr(module, "assemble_constraints", refuse)
        _pipeline.cache_clear()
        hits = list(search_iter(2100, SearchProperty.CONJ1_COUNTEREXAMPLE))
        assert hits[0].n == 126
        assert all(row.agrees for row in verify(48, 3))
        assert main(["spectrum", "of-indicator", "126"]) == 0
        with pytest.raises(AssertionError):
            analyze(126).constraints
        monkeypatch.undo()
        # the memo filled above serves a report whose tables are built now
        walkthrough = render_report(analyze(126))
        assert hashlib.sha256(walkthrough.encode()).hexdigest() == WALKTHROUGH_126_SHA256


class TestCanonicalForm:
    def test_collect_is_order_independent(self):
        rng = random.Random(99)
        pairs = [(rng.choice([2, 3, 4, 6, 12]), rng.randint(-3, 3)) for _ in range(30)]
        reference = IndicatorCombination.collect(pairs)
        for _ in range(10):
            rng.shuffle(pairs)
            assert IndicatorCombination.collect(pairs) == reference

    def test_collect_drops_zeros(self):
        comb = IndicatorCombination.collect([(6, 1), (6, -1), (2, 2)])
        assert comb.terms == ((2, 2),)

    def test_validation(self):
        with pytest.raises(ValueError):
            IndicatorCombination(((6, 1), (2, 1)))
        with pytest.raises(ValueError):
            IndicatorCombination(((2, 0),))

    def test_rendering(self):
        assert str(IndicatorCombination(())) == "0"
        assert str(analyze(122).combination) == (
            "I_80 - I_1040 - I_1360 - I_4880 + I_17680 + 2I_63440 + 2I_82960 - 3I_1078480"
        )


def window_values(comb, length):
    """evaluate(comb, x) for x = 0..length as a vector, by sieving."""
    vals = np.zeros(length + 1, dtype=np.int64)
    for modulus, coeff in comb.terms:
        vals[modulus::modulus] += coeff
        vals[0] += coeff
    return vals


class TestPeriodLaw:
    @pytest.mark.parametrize("n", [13, 18, 37, 48, 56, 122, 126, 153, 5957])
    def test_binary_valued_and_periodic(self, n):
        report = analyze(n)
        comb = report.combination
        w0 = report.omega0
        vals = window_values(comb, 2 * w0)
        assert set(np.unique(vals)) <= {0, 1}
        assert np.array_equal(vals[1 : w0 + 1], vals[w0 + 1 : 2 * w0 + 1])
        # fails at every maximal proper divisor, hence every proper divisor
        for q in {p for p, _ in factorize(w0)}:
            shift = w0 // q
            assert not np.array_equal(vals[1 : w0 + 1], vals[1 + shift : w0 + shift + 1])

    def test_value_set_by_divisor_classes(self):
        # evaluate(x) depends on x only through gcd(x, omega0); scanning the
        # divisors of omega0 is an exhaustive case split
        for n in (13, 56, 122, 126):
            report = analyze(n)
            comb = report.combination
            for g in divisors(report.omega0):
                assert evaluate(comb, g) in (0, 1)


class TestEvaluationConsistency:
    @pytest.mark.parametrize("n", [13, 48, 56, 126, 122])
    def test_indicator_matches_membership(self, n):
        report = analyze(n)
        comb = report.combination
        for k in range(1, 500):
            # degenerate sets are empty, so they must never be hit either
            hits = [
                c for c in report.constraints if in_divisibility_set(c.required, c.excluded, k)
            ]
            assert len(hits) <= 1
            assert (len(hits) == 1) == (evaluate(comb, k) == 1)
