"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines stream.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from vpal import (
    IndicatorCombination,
    PeriodicSamples,
    SearchProperty,
    Unverified,
    analyze,
    anomaly_witness,
    concat,
    digit_count,
    divisors,
    evaluate,
    factorize,
    naive_fundamental_period,
    net_coefficients,
    repetition_order,
    reverse_digits,
    samples_to_spectrum,
    search_iter,
    support_period,
    gcd_period,
    verify,
)
from vpal.cli import main

from spectral_inverse import spectrum_to_samples

#: The published 18-row reference: n -> (indicator terms, order, fundamental
#: period).  The n=117 row is stored with the period 2054 that its own
#: combination forces; the source prints 2045 there, a typo.
REFERENCE_TABLE = {
    13: (((15, 1), (195, -1), (465, -1), (6045, 2)), 15, 6045),
    17: (((280, 1), (4760, -1), (19880, -1), (337960, 2)), 280, 337960),
    18: (((1, 1),), 1, 1),
    19: (((819, 1), (15561, -1)), 819, 15561),
    26: (((15, 1), (195, -1), (465, -1), (6045, 2)), 15, 6045),
    37: (((12, 1), (444, -1), (876, -1), (32412, 2)), 12, 32412),
    39: (((15, 1), (195, -1), (465, -1), (6045, 2)), 15, 6045),
    48: (((3, 1), (21, -1)), 3, 21),
    49: (((3243, 1), (22701, -1)), 3243, 22701),
    56: (((3, 1), (21, -1), (39, -1), (273, 2)), 3, 273),
    79: (((624, 1), (49296, -1), (60528, -1), (4781712, 2)), 624, 4781712),
    103: (((10234, 1), (1054102, -1)), 10234, 1054102),
    107: (((37100, 1), (3969700, -1), (26007100, -1), (2782759700, 2)), 37100, 2782759700),
    109: (((1686672, 1), (183847248, -1)), 1686672, 183847248),
    113: (((17360, 1), (1961680, -1), (5398960, -1), (610082480, 2)), 17360, 610082480),
    117: (((2054, 1),), 2054, 2054),
    119: (((123760, 1), (112745360, -1)), 123760, 112745360),
    122: (
        ((80, 1), (1040, -1), (1360, -1), (4880, -1), (17680, 1), (63440, 2), (82960, 2), (1078480, -3)),
        80,
        1078480,
    ),
}

REFERENCE_ANOMALY_21726 = (
    (816, 1),
    (5712, -1),
    (8976, -1),
    (10608, -1),
    (16401, 1),
    (32802, -1),
    (62832, 1),
    (74256, 1),
    (116688, 1),
    (816816, -1),
    (1098867, -1),
    (2197734, 1),
)


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.1f}s (limit {limit_seconds}s)"
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)")


def eligible(n):
    return n % 10 != 0 and reverse_digits(n) != n


def test_criterion_1_reference_table_reproduction():
    with criterion(1, "18-row reference table reproduced exactly", 60):
        for n, (terms, c, omega0) in REFERENCE_TABLE.items():
            report = analyze(n)
            assert report.combination.terms == terms, n
            assert report.order == c, n
            assert report.omega0 == omega0, n


def test_criterion_2_walkthrough_of_126():
    with criterion(2, "full 126 walkthrough (tables, indicator, periods)", 1):
        report = analyze(126)
        assert [(r.p, r.exp_n, r.exp_reverse, r.delta, r.mu) for r in report.records] == [
            (2, 1, 0, 1, 0),
            (3, 2, 3, -1, 2),
            (7, 1, 0, 1, 0),
            (23, 0, 1, -1, 0),
        ]
        assert [c.solution for c in report.constraints] == [
            (1, 1, 1, 1),
            (1, 1, 2, 2),
            (1, 2, 2, 1),
            (2, 1, 1, 2),
            (2, 2, 1, 1),
            (2, 2, 2, 2),
            (2, 3, 2, 1),
        ]
        # each solution's case and pair for a crucial prime are its weight's table entry
        entries = [[table[s[i]] for s in report.solutions] for i, table in enumerate(report.tables)]
        case_rows = [[case.value for case, _ in row] for row in entries]
        assert case_rows == [
            ["v", "v", "v", "iii", "iii", "iii", "iii"],
            ["vi", "vi", "vii", "vi", "vii", "vii", "vii"],
            ["v", "ii", "ii", "v", "v", "ii", "ii"],
            ["v", "ii", "v", "ii", "v", "ii", "v"],
        ]
        pair_rows = [
            [(sorted(pair.required), sorted(pair.excluded)) for _, pair in row] for row in entries
        ]
        assert pair_rows == [
            [([], [1]), ([], [1]), ([], [1]), ([], []), ([], []), ([], []), ([], [])],
            [([], []), ([], []), ([], [1]), ([], []), ([], [1]), ([], [1]), ([], [1])],
            [([14], []), ([2], [14]), ([2], [14]), ([14], []), ([14], []), ([2], [14]), ([2], [14])],
            [([506], []), ([22], [506]), ([506], []), ([22], [506]), ([506], []), ([22], [506]), ([506], [])],
        ]
        assert [sorted(c.required) for c in report.constraints] == [
            [14, 506], [2, 22], [2, 506], [14, 22], [14, 506], [2, 22], [2, 506],
        ]
        assert [sorted(c.excluded) for c in report.constraints] == [
            [1], [1, 14, 506], [1, 14], [506], [1], [1, 14, 506], [1, 14],
        ]
        assert [c.degenerate for c in report.constraints] == [
            True, True, True, False, True, True, True,
        ]
        assert report.combination.terms == ((154, 1), (3542, -1))
        assert report.order == 154
        assert report.omega0 == 3542
        assert report.omega_f == 31878


def test_criterion_3_counterexample_searches():
    with criterion(3, "searches find 126, 5957, 21726 first", 600):
        hits = list(search_iter(200, SearchProperty.CONJ1_COUNTEREXAMPLE, workers=4))
        assert hits and hits[0].n == 126
        hits = list(search_iter(6000, SearchProperty.OMEGA_B_COUNTEREXAMPLE, workers=4))
        assert hits and hits[0].n == 5957
        hits = list(search_iter(22000, SearchProperty.DIVISIBILITY_ANOMALY, workers=4))
        assert hits and hits[0].n == 21726
        report = hits[0]
        assert report.combination.terms == REFERENCE_ANOMALY_21726
        assert len(report.combination.terms) == 12
        assert anomaly_witness(report.combination) == (816, 2197734)
        assert 2197734 % 816 != 0


def test_criterion_4_oracle_equivalence():
    with criterion(4, "brute force agrees with predictions", 600):
        for n in range(2, 151):
            if not eligible(n):
                continue
            for row in verify(n, 18):
                assert row.agrees is not False, (n, row.k)
                if digit_count(concat(n, row.k)) <= 25:
                    assert not isinstance(row.observed, Unverified), (n, row.k)
        # published patterns, checked against the printed combinations
        rows = verify(13, 16)
        assert [r.k for r in rows if r.observed is True] == [15]
        assert all(r.agrees for r in rows)
        rows = verify(18, 10)
        assert all(r.observed is True and r.agrees for r in rows)
        rows = verify(12, 8)
        assert all(r.observed is False and r.agrees for r in rows)
        printed_48 = IndicatorCombination(((3, 1), (21, -1)))
        printed_56 = IndicatorCombination(((3, 1), (21, -1), (39, -1), (273, 2)))
        for n, printed in ((48, printed_48), (56, printed_56)):
            for row in verify(n, 25, accelerated=True):
                assert row.predicted == (evaluate(printed, row.k) == 1), (n, row.k)
                assert row.agrees is not False, (n, row.k)
                assert not isinstance(row.observed, Unverified), (n, row.k)


def test_criterion_5_repetition_order_properties():
    with criterion(5, "repetition-order constants: size, divisibility, spot values", 10):
        import sympy

        for d in (1, 2, 3, 4):
            for p in (q for q in range(3, 101) if sympy.isprime(q) and q != 5):
                h1 = repetition_order(p, 1, d)
                h2 = repetition_order(p, 2, d)
                assert h1 > 1 and h2 > 1
                assert h2 % h1 == 0
        assert repetition_order(7, 2, 3) == 14
        assert repetition_order(23, 1, 3) == 22
        assert repetition_order(23, 2, 3) == 506


def test_criterion_6_spectral_property_suite():
    with criterion(6, "spectral periods, round trips, component sums", 30):
        rng = random.Random(48_2024)
        for trial in range(200):
            w = rng.randint(1, 48)
            if trial % 2 == 0:
                values = tuple(rng.randint(-4, 4) for _ in range(w))
            else:
                values = tuple(
                    complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(w)
                )
            s = PeriodicSamples(values)
            g = samples_to_spectrum(s)
            assert support_period(g) == gcd_period(s) == naive_fundamental_period(s)
            back = spectrum_to_samples(g, w)
            assert max(abs(a - b) for a, b in zip(back.values, s.values)) < 1e-9
        for _ in range(50):
            count = rng.randint(2, 3)
            moduli = rng.sample(range(1, 31), k=count)
            while math.lcm(*moduli) > 15000:
                moduli = rng.sample(range(1, 31), k=count)
            entries = {}
            for w in moduli:
                for num in range(w):
                    if math.gcd(num, w) == 1:
                        entries[Fraction(num, w)] = complex(
                            rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
                        )
            window = math.lcm(*moduli)
            samples = spectrum_to_samples(entries, window)
            assert naive_fundamental_period(samples) == window


def _window_values(comb, length):
    vals = np.zeros(length + 1, dtype=np.int64)
    for modulus, coeff in comb.terms:
        vals[modulus::modulus] += coeff
        vals[0] += coeff
    return vals


LITERAL_WINDOW_CAP = 2_000_000


def test_criterion_7_canonical_form_properties():
    # Values of the combination depend on x only through gcd(x, omega0), so
    # scanning the divisors of omega0 decides the value set for every x at
    # once; the period facts reduce the same way (a proper divisor that were
    # a period would make some maximal proper divisor omega0/q a period, and
    # the exact per-order net coefficients decide those).  Windows under the
    # cap are additionally scanned literally, which cross-validates the
    # reductions on several hundred numbers.
    with criterion(7, "indicator combinations are binary with exact period", 300):
        for n in range(12, 3001):
            if not eligible(n):
                continue
            report = analyze(n)
            comb = report.combination
            if not comb.terms:
                continue
            w0 = report.omega0
            assert report.omega_b % w0 == 0, n
            for modulus, _ in comb.terms:
                assert w0 % modulus == 0, n
            for g in divisors(w0):
                assert evaluate(comb, g) in (0, 1), (n, g)
            nets = net_coefficients(comb)
            assert math.lcm(*nets) == w0, n
            if w0 <= LITERAL_WINDOW_CAP:
                vals = _window_values(comb, 2 * w0)
                assert set(np.unique(vals)) <= {0, 1}, n
                assert np.array_equal(vals[1 : w0 + 1], vals[w0 + 1 : 2 * w0 + 1]), n
                for q in {p for p, _ in factorize(w0)}:
                    shift = w0 // q
                    assert not np.array_equal(
                        vals[1 : w0 + 1], vals[1 + shift : w0 + shift + 1]
                    ), (n, shift)


def test_acceptance_cli_walkthrough(capsys):
    # the same headline numbers through the installed command surface
    assert main(["analyze", "126"]) == 0
    out = capsys.readouterr().out
    for line in ("I = I_154 - I_3542", "c(n) = 154", "omega0 = 3542", "omega_f = 31878"):
        assert line in out
    assert main(["table", "--preset", "paper"]) == 0
    out = capsys.readouterr().out
    assert "I_819 - I_15561" in out
    assert main(["search", "conj1", "--until", "200"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("n=126")
