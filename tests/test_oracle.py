"""Brute-force ground truth, prediction verification, and searches."""

import functools
import inspect
import tracemalloc

import pytest

from vpal import (
    DEFAULT_BUDGET,
    UNVERIFIED,
    IndicatorCombination,
    InvalidInput,
    SearchProperty,
    Unverified,
    anomaly_witness,
    brute_force_flag,
    cross_check,
    analyze,
    evaluate,
    padic_order,
    repetition_number,
    reverse_digits,
    search_iter,
    verify,
)
from vpal import indicator, oracle
from vpal.numbers import _factorize_cached
from vpal.oracle import CHUNK_SIZE, _repetition_valuation


def eligible(n):
    return n % 10 != 0 and reverse_digits(n) != n


class TestBruteForce:
    def test_18_repeats_all_qualify(self):
        assert [brute_force_flag(18, k) for k in (1, 2, 3)] == [True, True, True]

    def test_13_first_qualifier_is_15(self):
        assert brute_force_flag(13, 14) is False
        assert brute_force_flag(13, 15) is True

    def test_12_never_qualifies(self):
        assert all(brute_force_flag(12, k) is False for k in range(1, 9))

    def test_modes_agree(self):
        for n in (13, 18, 21, 48, 56, 126, 149):
            for k in range(1, 9):
                direct = brute_force_flag(n, k)
                fast = brute_force_flag(n, k, accelerated=True)
                if not isinstance(direct, Unverified) and not isinstance(fast, Unverified):
                    assert direct == fast, (n, k)

    def test_unverified_on_tiny_budget(self):
        # a 38-digit concatenation whose repetition number is a product of
        # two huge primes cannot split in 10^4 iterations
        assert brute_force_flag(48, 19, budget=10_000) is UNVERIFIED

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInput):
            brute_force_flag(560, 2)

    def test_reads_nothing_of_the_pipeline(self):
        # the oracle is evidence only while it shares no code with the
        # indicator pipeline: every global it reads comes from these modules,
        # and none is the pipeline's lifting of orders
        for func in (brute_force_flag, _repetition_valuation):
            used = inspect.getclosurevars(func).globals
            outside = {
                name: value.__module__
                for name, value in used.items()
                if value.__module__ not in ("vpal.numbers", "vpal.errors", "vpal.oracle")
            }
            assert outside == {}, func
            assert not {"repetition_order", "_order_of_ten", "multiplicative_order"} & set(used), func
        assert "check_eligible" in inspect.getclosurevars(brute_force_flag).globals

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_repetition_valuation_matches_the_built_number(self, d):
        # 3, 11 and 37 divide 10**d - 1 for some d <= 3, so the subtraction matters
        for k in range(1, 41):
            rep = repetition_number(k, d)
            for p in (2, 3, 5, 7, 11, 13, 37, 41, 101, 271):
                assert _repetition_valuation(p, k, d) == padic_order(rep, p), (p, k, d)

    @pytest.mark.parametrize("k", [19, 23])
    def test_accelerated_flag_decided_past_k_18(self, k):
        # regression: the accelerated oracle used to factor R_k(2) and ran out
        # of budget (UNVERIFIED) at k = 19 and k = 23
        flag = brute_force_flag(48, k, accelerated=True)
        assert type(flag) is bool
        assert flag == (evaluate(analyze(48).combination, k) == 1)

    def test_every_spelling_of_the_default_budget_is_one_memo_entry(self):
        # regression: budget None reached the factoring memo as its own cache
        # key, so the default spelled two ways factored every integer twice
        _factorize_cached.cache_clear()
        verify(48, 20, accelerated=True)
        misses = _factorize_cached.cache_info().misses
        verify(48, 20, DEFAULT_BUDGET, accelerated=True)
        assert misses and _factorize_cached.cache_info().misses == misses


class TestVerify:
    def test_18(self):
        rows = verify(18, 10)
        assert all(r.predicted is True and r.observed is True and r.agrees for r in rows)

    def test_12(self):
        rows = verify(12, 8)
        assert all(r.predicted is False and r.observed is False and r.agrees for r in rows)

    def test_13(self):
        rows = verify(13, 16)
        assert [r.k for r in rows if r.predicted] == [15]
        assert [r.k for r in rows if r.observed is True] == [15]
        assert all(r.agrees for r in rows)

    def test_48_pattern(self):
        rows = verify(48, 18, accelerated=True)
        for r in rows:
            expected = r.k % 3 == 0 and r.k % 21 != 0
            assert r.predicted == expected
            assert r.agrees in (True, None)

    def test_row_agreement_semantics(self):
        # direct mode: the concatenations at k = 13, 17, 19 and 22 resist at 10^4
        rows = verify(48, 22, budget=10_000)
        skipped = [r for r in rows if r.agrees is None]
        assert skipped and all(isinstance(r.observed, Unverified) for r in skipped)

    def test_accelerated_sweep_below_1000(self):
        # 72 two-digit n to k = 36 and 720 three-digit n to k = 22: 18,432 rows,
        # every one decided and in agreement
        rows = 0
        for n in range(10, 1000):
            if not eligible(n):
                continue
            for row in verify(n, 36 if n < 100 else 22, accelerated=True):
                assert row.agrees is True, (n, row.k, row.observed)
                rows += 1
        assert rows == 18_432

    def test_accelerated_sweep_to_the_fundamental_period(self):
        # every eligible n <= 2100 to k = min(omega0, 200): 152,903 rows;
        # and 126 over two of its fundamental periods, k <= 7084
        rows = 0
        for n in range(10, 2101):
            if not eligible(n):
                continue
            report = analyze(n)
            for k in range(1, min(report.omega0, 200) + 1):
                expected = evaluate(report.combination, k) == 1
                assert brute_force_flag(n, k, accelerated=True) is expected, (n, k)
                rows += 1
        assert rows == 152_903
        comb = analyze(126).combination
        assert analyze(126).omega0 == 3542
        for k in range(1, 2 * 3542 + 1):
            assert brute_force_flag(126, k, accelerated=True) is (evaluate(comb, k) == 1), k

    def test_unverified_is_a_singleton(self):
        assert Unverified() is UNVERIFIED
        assert repr(UNVERIFIED) == "UNVERIFIED"
        assert str(UNVERIFIED) == "UNVERIFIED"  # the CLI renders verify's cells through str


class TestCrossCheck:
    def test_spot_values(self):
        assert cross_check(126, 154)
        assert cross_check(126, 1)
        assert cross_check(13, 15)

    def test_sampled_inputs(self):
        for n in (13, 18, 48, 56, 122, 126):
            for k in list(range(1, 30)) + [154, 273, 3542]:
                assert cross_check(n, k), (n, k)

    def test_fifteen_digit_crucial_prime(self):
        for k in range(1, 7):
            assert cross_check(300000000000093, k), k

    def test_matches_oracle_verdict(self):
        # the weight tuple matches some surviving solution exactly when the
        # concatenation qualifies
        for n in (13, 48, 126):
            comb = analyze(n).combination
            for k in range(1, 19):
                assert cross_check(n, k)
                observed = brute_force_flag(n, k, accelerated=True)
                if isinstance(observed, Unverified):
                    continue
                assert (evaluate(comb, k) == 1) == observed


class TestSearch:
    def test_conj1_first_hit(self):
        first = next(search_iter(200, SearchProperty.CONJ1_COUNTEREXAMPLE))
        assert first == analyze(126)
        assert first.omega0 == 3542
        assert first.omega_f == 31878

    def test_parallel_matches_serial(self, monkeypatch):
        # 2..1100 spans three chunks, so the pool merges several workers' hits;
        # the pool is capped at the CPU count, so report two CPUs to keep this
        # on the pooled path on a one-CPU host
        assert 2 * CHUNK_SIZE < 1100 - 1 <= 3 * CHUNK_SIZE
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        serial = list(search_iter(1100, SearchProperty.CONJ1_COUNTEREXAMPLE, workers=1))
        parallel = list(search_iter(1100, SearchProperty.CONJ1_COUNTEREXAMPLE, workers=2))
        assert serial == parallel

    def test_first_hit_of_a_huge_range_needs_no_chunk_list(self):
        # regression: a tuple for every chunk of the range was built before
        # the first chunk was scanned, 29.5 MB at 10**8 to return 126
        tracemalloc.start()
        try:
            scan = search_iter(10**8, SearchProperty.CONJ1_COUNTEREXAMPLE)
            first = next(scan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scan.close()
        assert first.n == 126
        assert peak < 5_000_000

    def test_pooled_first_hit_of_a_huge_range_needs_no_chunk_list(self, monkeypatch):
        # regression: pool.map submitted a future for every chunk of the
        # range before it yielded the first hit, 422 MB traced at 10**8; the
        # pool machinery is imported first so that its import is not traced
        import concurrent.futures.process  # noqa: F401

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        tracemalloc.start()
        try:
            scan = search_iter(10**8, SearchProperty.CONJ1_COUNTEREXAMPLE, workers=2)
            first = next(scan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scan.close()
        assert first.n == 126
        assert peak < 5_000_000

    def test_rejects_trivial_range(self):
        with pytest.raises(InvalidInput):
            next(search_iter(1, SearchProperty.CONJ1_COUNTEREXAMPLE))

    def test_no_anomalies_below_1000(self):
        assert list(search_iter(1000, SearchProperty.DIVISIBILITY_ANOMALY)) == []

    def test_anomaly_witness_none_for_clean_reports(self):
        assert anomaly_witness(analyze(126).combination) is None
        assert anomaly_witness(analyze(12).combination) is None

    def test_anomaly_witness_of_hand_built_combinations(self):
        assert anomaly_witness(IndicatorCombination(())) is None
        assert anomaly_witness(IndicatorCombination(((2, 1), (4, -1)))) is None
        assert anomaly_witness(IndicatorCombination(((5, 1), (12, 1)))) == (5, 12)



def report_is_hit(report, prop):
    """The scan's predicate read off a whole report, as the scan read it
    before it decided each n from the pipeline's memo."""
    if prop is SearchProperty.CONJ1_COUNTEREXAMPLE:
        return report.omega0 not in (1, report.omega_f)
    if prop is SearchProperty.OMEGA_B_COUNTEREXAMPLE:
        return report.omega0 not in (1, report.omega_b)
    return anomaly_witness(report.combination) is not None


@functools.cache
def reports_to(stop):
    return tuple(analyze(n) for n in range(2, stop + 1) if eligible(n))


class TestScanDecidesFromThePipeline:
    """A scan decides each n from its combination, omega_f and omega_b and
    builds the report of a hit only; its hits are the reports that the
    report-based predicate accepts."""

    @pytest.mark.parametrize("prop", list(SearchProperty))
    def test_hits_are_the_reports_the_predicate_accepts(self, prop):
        # to 6000, so that omegab has a hit (5957)
        hits = list(search_iter(6000, prop))
        assert hits == [r for r in reports_to(6000) if report_is_hit(r, prop)]
        assert [r.n for r in hits] == sorted({r.n for r in hits})

    def test_first_anomaly_from_its_band(self):
        hits = list(search_iter(21800, SearchProperty.DIVISIBILITY_ANOMALY, range_start=21700))
        assert [r.n for r in hits] == [21726]
        assert anomaly_witness(hits[0].combination) == (816, 2197734)

    def test_builds_reports_for_hits_only(self, monkeypatch):
        built = []

        def counted(n, budget=DEFAULT_BUDGET):
            built.append(n)
            return analyze(n, budget)

        def refuse(*args):
            raise AssertionError("solve_characteristic called")

        monkeypatch.setattr(oracle, "analyze", counted)
        monkeypatch.setattr(indicator, "solve_characteristic", refuse)
        hits = list(search_iter(2100, SearchProperty.CONJ1_COUNTEREXAMPLE))
        assert built == [r.n for r in hits] and len(hits) > 1


class TestSearchFrom:
    @pytest.mark.parametrize("start", [2, 126, 127, 1000, 1025, 2100])
    def test_equals_the_full_scan_from_start(self, start):
        prop = SearchProperty.CONJ1_COUNTEREXAMPLE
        full = list(search_iter(2100, prop))
        assert list(search_iter(2100, prop, range_start=start)) == [r for r in full if r.n >= start]

    @pytest.mark.parametrize("start", [-1, 0, 1, 2101])
    def test_rejects_a_start_outside_the_range(self, start):
        with pytest.raises(InvalidInput):
            next(search_iter(2100, SearchProperty.CONJ1_COUNTEREXAMPLE, range_start=start))
