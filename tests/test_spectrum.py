"""Root-of-unity spectra: conversions, period formulas, and net coefficients."""

import cmath
import math
import random
import sys
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vpal import (
    IndicatorCombination,
    InvalidInput,
    PeriodicSamples,
    analyze,
    combination_spectrum,
    evaluate,
    fundamental_period,
    gcd_period,
    indicator_spectrum,
    naive_fundamental_period,
    net_coefficients,
    samples_to_spectrum,
    support_period,
)
from vpal import spectrum
from vpal.cli import main
from vpal.numbers import factorize
from vpal.spectrum import ZERO_TOLERANCE, _transform

from spectral_inverse import eval_spectrum, spectrum_to_samples


class TestSpectrumKeys:
    def test_reduced_phases_by_denominator_then_numerator(self):
        # frequency r of a window of length w is the phase r/w in lowest terms
        g = samples_to_spectrum(PeriodicSamples((1, 0, 0, 0)))
        assert list(g) == [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]
        assert all(type(x) is Fraction for x in g)
        assert list(indicator_spectrum(6)) == [
            Fraction(0),
            Fraction(1, 2),
            Fraction(1, 3),
            Fraction(2, 3),
            Fraction(1, 6),
            Fraction(5, 6),
        ]


class TestEvalSpectrum:
    def test_constant(self):
        g = {Fraction(0): 1}
        for x in (-3, 0, 5):
            assert abs(eval_spectrum(g, x) - 1) < 1e-12

    def test_alternating(self):
        g = {Fraction(1, 2): 1}
        assert abs(eval_spectrum(g, 3) - (-1)) < 1e-12

    def test_indicator_of_two_at_four(self):
        assert abs(eval_spectrum(indicator_spectrum(2), 4) - 1) < 1e-12


class TestSupportPeriod:
    def test_lcm_of_denominators(self):
        g = {Fraction(1, 3): 1.0, Fraction(1, 4): 2.0}
        assert support_period(g) == 12

    def test_empty(self):
        assert support_period({}) == 1

    def test_combination_126(self):
        assert support_period(combination_spectrum(analyze(126).combination)) == 3542


class TestPeriodicSamples:
    def test_period_is_the_window_length(self):
        assert PeriodicSamples((1, 0, 0)).period == 3

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSamples(())

    @pytest.mark.parametrize(
        "values",
        [(math.nan, 0.0, math.nan, 0.0), (math.inf, 0.0), (complex(1, math.nan),)],
        ids=["nan", "inf", "nan-imaginary"],
    )
    def test_non_finite_window_rejected(self, values):
        # regression: the NaN window built, and gave naive period 4 but gcd
        # and support period 1; the infinite one was called "too large"
        with pytest.raises(InvalidInput, match="not a finite complex number"):
            PeriodicSamples(values)

    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.complex_numbers(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=48,
        ),
        st.data(),
    )
    def test_a_window_that_builds_is_finite(self, values, data):
        try:
            s = PeriodicSamples(tuple(values))
        except InvalidInput as exc:
            assert "too large" in str(exc)
            built = False
        else:
            assert support_period(samples_to_spectrum(s)) == gcd_period(s)
            built = True
        i = data.draw(st.integers(0, len(values) - 1))
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        with pytest.raises(InvalidInput, match="not a finite complex number" if built else None):
            PeriodicSamples(tuple(values[:i] + [bad] + values[i + 1 :]))


class TestSamplesToSpectrum:
    def test_constant(self):
        g = samples_to_spectrum(PeriodicSamples((5,)))
        assert len(g) == 1
        assert abs(g[Fraction(0)] - 5) < 1e-12

    def test_two_point(self):
        g = samples_to_spectrum(PeriodicSamples((1, 0)))
        for root in (Fraction(0), Fraction(1, 2)):
            assert abs(g[root] - 0.5) < 1e-12

    def test_four_point_pulse(self):
        g = samples_to_spectrum(PeriodicSamples((1, 0, 0, 0)))
        assert len(g) == 4
        assert all(abs(c - 0.25) < 1e-12 for c in g.values())

    @pytest.mark.parametrize("a", range(1, 41))
    def test_matches_exact_indicator_spectrum(self, a):
        samples = PeriodicSamples(tuple(1 if x % a == 0 else 0 for x in range(a)))
        g = samples_to_spectrum(samples)
        exact = indicator_spectrum(a)
        assert set(g) == set(exact)
        for root, coeff in exact.items():
            assert abs(g[root] - float(coeff)) < 1e-12

    @pytest.mark.parametrize(
        "values",
        [
            (1e308, 1e308, -1e308, -1e308),
            (sys.float_info.max / 2, 0, 0),
            (1.7e308 + 1.7e308j,),
            (10**400,),
        ],
        ids=["sums-overflow", "w-times-max", "abs-overflows", "int-beyond-float"],
    )
    def test_window_beyond_float_range_rejected(self, values):
        # the window checks itself, so no period formula meets it
        with pytest.raises(InvalidInput, match="too large"):
            PeriodicSamples(values)

    def test_window_at_float_range_transforms_finitely(self):
        big = sys.float_info.max / 4
        s = PeriodicSamples((big, big, -big, -big))
        g = samples_to_spectrum(s)
        assert all(cmath.isfinite(c) for c in g.values())
        assert support_period(g) == gcd_period(s) == naive_fundamental_period(s) == 4


def _direct_transform(values, sign):
    """Reference: one complex exponential per (frequency, sample) pair, in the
    form the transforms used before they shared a table of roots."""
    w = len(values)
    base = 2j if sign > 0 else -2j
    return [
        sum(complex(v) * cmath.exp(base * math.pi * (r * x % w) / w) for x, v in enumerate(values))
        / w
        for r in range(w)
    ]


def _direct_spectrum(inverse):
    """The (phase, coefficient) pairs of a direct inverse transform with
    |c| >= ZERO_TOLERANCE, ordered by (denominator, numerator)."""
    w = len(inverse)
    kept = [(Fraction(r, w), c) for r, c in enumerate(inverse) if abs(c) >= ZERO_TOLERANCE]
    return sorted(kept, key=lambda xc: (xc[0].denominator, xc[0].numerator))


class TestTransformTable:
    """Against the per-term formula: bit for bit on one axis, within the
    rounding floor on several."""

    #: the per-term formula costs w**2 exponentials, so the tests against it
    #: stop short of the last length
    LENGTHS = (*range(1, 65), *range(84, 253, 42), 128, 243, 256, 2310)

    @classmethod
    def _windows(cls, keep):
        # one corpus for every test, each keeping the lengths it takes
        rng = random.Random(252)
        wide = random.Random(2310)  # leaves the first three kinds as they were
        for w in cls.LENGTHS:
            windows = (
                [rng.randint(-4, 4) for _ in range(w)],
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(w)],
                [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(w)],
                [wide.randint(-(10**15), 10**15) for _ in range(w)],
                [wide.uniform(-2, 2) for _ in range(w)],
            )
            if keep(w):
                yield from windows

    def test_bit_identical_to_direct_formula(self):
        # a prime-power window has one axis, summed in order of x like the formula
        for values in self._windows(keep=lambda w: len(factorize(w).factors) <= 1):
            w = len(values)
            s = PeriodicSamples(tuple(values))
            inverse = _direct_transform(values, -1)
            expected = _direct_spectrum(inverse)
            got = samples_to_spectrum(s)
            assert [(r, repr(c)) for r, c in got.items()] == [(r, repr(c)) for r, c in expected]
            assert list(map(repr, _transform(values))) == list(map(repr, inverse))
            forward = _direct_transform(values, +1)
            active = [k for k in range(1, w + 1) if abs(forward[k % w]) >= ZERO_TOLERANCE]
            assert gcd_period(s) == w // math.gcd(w, *active)

    def test_composite_lengths_within_rounding_floor(self):
        # several axes sum in another order: only the rounding may change
        for values in self._windows(keep=lambda w: len(factorize(w).factors) > 1 and w <= 256):
            w = len(values)
            floor = w * sys.float_info.epsilon * max(abs(complex(v)) for v in values)
            s = PeriodicSamples(tuple(values))
            inverse = _direct_transform(values, -1)
            expected = _direct_spectrum(inverse)
            got = samples_to_spectrum(s)
            assert list(got) == [r for r, _ in expected]
            assert max(map(abs, map(sub, _transform(values), inverse))) <= floor
            forward = _direct_transform(values, +1)
            active = [k for k in range(1, w + 1) if abs(forward[k % w]) >= ZERO_TOLERANCE]
            assert gcd_period(s) == w // math.gcd(w, *active)

    def test_gcd_period_equals_support_period(self):
        # one support read two ways: lcm of w/gcd(w, r) = w/gcd of the gcd(w, r)
        for values in self._windows(keep=lambda w: True):
            s = PeriodicSamples(tuple(values))
            assert gcd_period(s) == support_period(samples_to_spectrum(s))

    @pytest.mark.parametrize("w", [1, 12, 210, 2310, 30030])
    def test_impulse_lands_on_every_frequency_once(self, w):
        # the transform of a unit impulse at x = 1 is e(-r/w)/w, a distinct
        # value at every r, so a frequency written twice or out of place shows
        impulse = [0] * w
        impulse[1 % w] = 1
        for r, c in enumerate(_transform(impulse)):
            assert abs(c - cmath.exp(-2j * math.pi * r / w) / w) <= sys.float_info.epsilon

    @pytest.mark.parametrize("w", [6, 12])
    def test_composite_window_at_float_range_transforms_finitely(self, w):
        big = sys.float_info.max / (2 * w)
        block = (big, -big, big, big, -big, -big)
        s = PeriodicSamples(block * (w // len(block)))
        g = samples_to_spectrum(s)
        assert all(cmath.isfinite(c) for c in g.values())
        assert all(cmath.isfinite(c) for c in _transform(s.values))
        assert support_period(g) == gcd_period(s) == naive_fundamental_period(s) == 6

    def test_three_formulas_agree_on_long_composite_windows(self):
        rng = random.Random(2310)
        for w, block_len in ((420, 105), (660, 220), (840, 840), (1260, 36), (2310, 210)):
            while True:
                block = [rng.randint(-4, 4) for _ in range(block_len)]
                if naive_fundamental_period(PeriodicSamples(tuple(block))) == block_len:
                    break
            s = PeriodicSamples(tuple(block * (w // block_len)))
            assert support_period(samples_to_spectrum(s)) == gcd_period(s) == naive_fundamental_period(s) == block_len


class TestSharedTransform:
    """Both frequency formulas read one transform of the window."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # the window of every transform run, in order
        calls = []

        def counted(values):
            calls.append(values)
            return transform(values)

        transform = spectrum._transform
        monkeypatch.setattr(spectrum, "_transform", counted)
        return calls

    @pytest.mark.parametrize(
        "values",
        [
            (1, 0, 0, 1, 0, 0),
            (10**15, 3, -(10**15), 3) * 3,
            (Fraction(1, 3), Fraction(-2, 7)) * 6,
            (0.5, -1.25, 2e-9, 0.5, -1.25, 2e-9),
        ],
        ids=["ints", "wide-ints", "fractions", "floats"],
    )
    def test_gcd_period_alone_transforms_a_real_window_once(self, calls, values):
        w = len(values)
        forward = _direct_transform(values, +1)
        threshold = PeriodicSamples(values)._threshold
        expected = w // math.gcd(w, *(k for k in range(w) if abs(forward[k]) >= threshold))
        assert gcd_period(PeriodicSamples(values)) == expected
        assert calls == [values]

    @pytest.mark.parametrize(
        "samples, period",
        [("1,0,0,1,0,0", 3), ("0.5,0,0.5,0", 2), ("1+1j,0,1+1j,0", 2)],
        ids=["int-window-once", "decimal-window-once", "complex-window-once"],
    )
    def test_periods_command(self, calls, capsys, samples, period):
        assert main(["spectrum", "periods", f"--samples={samples}"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"{name} = {period}" for name in ("support_period", "gcd_period", "naive_fundamental_period")
        ]
        assert len(calls) == 1

    def test_transformed_window_still_equals_a_fresh_one(self):
        a, b = PeriodicSamples((1, 0, 0, 1)), PeriodicSamples((1, 0, 0, 1))
        samples_to_spectrum(a)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


class TestSpectrumToSamples:
    def test_alternating(self):
        s = spectrum_to_samples({Fraction(1, 2): 1}, 2)
        assert abs(s.values[0] - 1) < 1e-12 and abs(s.values[1] + 1) < 1e-12

    def test_indicator_window(self):
        s = spectrum_to_samples(indicator_spectrum(3), 3)
        assert [round(v.real) for v in s.values] == [1, 0, 0]
        assert max(abs(v.imag) for v in s.values) < 1e-12

    def test_period_mismatch(self):
        with pytest.raises(ValueError, match="not a multiple of the support period"):
            spectrum_to_samples(indicator_spectrum(3), 4)

    def test_round_trip_corpus(self):
        rng = random.Random(2024)
        for _ in range(60):
            w = rng.randint(1, 48)
            if rng.random() < 0.5:
                vals = tuple(rng.randint(-5, 5) for _ in range(w))
            else:
                vals = tuple(
                    complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(w)
                )
            s = PeriodicSamples(vals)
            back = spectrum_to_samples(samples_to_spectrum(s), w)
            assert max(abs(a - b) for a, b in zip(back.values, s.values)) < 1e-9


class TestPeriodFormulas:
    def test_constant_window(self):
        s = PeriodicSamples((3,) * 12)
        assert gcd_period(s) == 1
        assert naive_fundamental_period(s) == 1

    def test_restricted_indicator(self):
        s = PeriodicSamples((1, 0, 0, 1, 0, 0))
        assert gcd_period(s) == 3
        assert naive_fundamental_period(s) == 3
        assert support_period(samples_to_spectrum(s)) == 3

    def test_coefficient_at_the_threshold_counts_in_both_transforms(self):
        # |c_1| is exactly 1e-9, the zero threshold: the support and the
        # active frequency indices must read it the same way
        for values in ((2e-9, 0), (-8e-10 + 6e-10j, 8e-10 - 6e-10j)):
            s = PeriodicSamples(values)
            assert support_period(samples_to_spectrum(s)) == gcd_period(s) == naive_fundamental_period(s) == 2

    def test_naive_examples(self):
        assert naive_fundamental_period(PeriodicSamples((1, 0, 1, 0))) == 2
        assert naive_fundamental_period(PeriodicSamples((1, 2, 3, 1, 2, 3))) == 3

    def test_naive_compares_cyclically_within_tolerance(self):
        # neighbours differ by 6e-10, within ZERO_TOLERANCE, but the wrapped
        # pair by 1.8e-9: only a cyclic shift sees that no shift below 4 fits
        assert naive_fundamental_period(PeriodicSamples((0.0, 6e-10, 1.2e-9, 1.8e-9))) == 4

    def test_naive_rejects_window_beyond_float_range(self):
        # |1.7e308+1.7e308j - 0j| is beyond the largest float, so the window
        # itself refuses to build and no sample difference can overflow
        with pytest.raises(InvalidInput, match="too large"):
            naive_fundamental_period(PeriodicSamples((1.7e308 + 1.7e308j, 0j)))

    def test_three_formulas_agree_on_random_windows(self):
        rng = random.Random(31337)
        for _ in range(60):
            w = rng.randint(1, 48)
            vals = tuple(rng.randint(-2, 2) for _ in range(w))
            s = PeriodicSamples(vals)
            assert support_period(samples_to_spectrum(s)) == gcd_period(s) == naive_fundamental_period(s)

    def test_large_integer_samples(self):
        # float rounding in a coefficient grows with the samples; a fixed
        # 1e-9 threshold read it as a fourth root of unity here
        s = PeriodicSamples((10**10, 3, 10**10, 3))
        assert support_period(samples_to_spectrum(s)) == gcd_period(s) == 2

    @pytest.mark.parametrize("bound", [10**9, 2**31, 10**15, 2**53])
    def test_three_formulas_agree_on_large_integer_windows(self, bound):
        rng = random.Random(f"large:{bound}")
        for _ in range(100):
            block = [rng.randint(-bound, bound) for _ in range(rng.randint(1, 24))]
            s = PeriodicSamples(tuple(block * 3))
            assert support_period(samples_to_spectrum(s)) == gcd_period(s) == naive_fundamental_period(s)

    def test_shift_fixes_iff_multiple_of_fundamental(self):
        rng = random.Random(11)
        for _ in range(30):
            w = rng.randint(2, 40)
            vals = tuple(rng.randint(0, 2) for _ in range(w))
            s = PeriodicSamples(vals)
            w0 = naive_fundamental_period(s)
            for t in range(1, 3 * w0 + 1):
                fixes = all(vals[(i + t) % w] == vals[i] for i in range(w))
                assert fixes == (t % w0 == 0)

    def test_indicator_window_period_126(self):
        comb = analyze(126).combination
        w0 = fundamental_period(comb)
        window = 2 * w0
        vals = tuple(evaluate(comb, x) for x in range(window))
        assert naive_fundamental_period(PeriodicSamples(vals)) == w0


class TestIndicatorSpectrum:
    def test_small(self):
        assert len(indicator_spectrum(1)) == 1
        g = indicator_spectrum(2)
        assert g[Fraction(0)] == Fraction(1, 2)
        assert g[Fraction(1, 2)] == Fraction(1, 2)

    def test_six(self):
        g = indicator_spectrum(6)
        assert len(g) == 6
        assert {x.denominator for x in g} == {1, 2, 3, 6}
        assert all(c == Fraction(1, 6) for c in g.values())

    def test_interpolates_divisibility(self):
        for a in (1, 2, 3, 4, 6, 10):
            g = indicator_spectrum(a)
            for x in range(2 * a):
                want = 1 if x % a == 0 else 0
                assert abs(eval_spectrum(g, x) - want) < 1e-9


class TestCombinationSpectrum:
    def test_constant(self):
        g = combination_spectrum(IndicatorCombination(((1, 1),)))
        assert len(g) == 1
        assert g[Fraction(0)] == 1

    def test_support_period_equals_fundamental_period(self):
        for n in (13, 18, 48, 56, 122, 126):
            comb = analyze(n).combination
            assert support_period(combination_spectrum(comb)) == fundamental_period(comb)

    def test_pointwise_bridge(self):
        for n in (18, 48, 56):
            comb = analyze(n).combination
            g = combination_spectrum(comb)
            w0 = fundamental_period(comb)
            samples = spectrum_to_samples(g, w0)
            for x, got in enumerate(samples.values):
                want = evaluate(comb, x)
                assert abs(got - want) < 1e-6
                assert round(got.real) in (0, 1)

    def test_pointwise_bridge_spot_checks_large_window(self):
        comb = analyze(13).combination  # fundamental period 6045
        g = combination_spectrum(comb)
        rng = random.Random(6045)
        for x in rng.sample(range(2 * 6045), 100):
            got = eval_spectrum(g, x)
            want = evaluate(comb, x)
            assert abs(got - want) < 1e-6
            assert round(got.real) in (0, 1)

    def test_net_coefficients_of_difference(self):
        nets = net_coefficients(IndicatorCombination(((2, 1), (6, -1))))
        assert nets == {
            1: Fraction(1, 3),
            2: Fraction(1, 3),
            3: Fraction(-1, 6),
            6: Fraction(-1, 6),
        }

    def test_net_criterion_on_random_combinations(self):
        rng = random.Random(404)
        for _ in range(40):
            moduli = sorted(rng.sample(range(2, 40), k=rng.randint(1, 4)))
            terms = tuple((m, rng.choice([-2, -1, 1, 2])) for m in moduli)
            comb = IndicatorCombination(terms)
            nets = net_coefficients(comb)
            g = combination_spectrum(comb)
            dens = {x.denominator for x in g}
            assert dens == set(nets)
            for den in dens:
                direct = sum(
                    (Fraction(c, m) for m, c in comb.terms if m % den == 0),
                    Fraction(0),
                )
                assert direct != 0 and nets[den] == direct


class TestRamanujanSums:
    def test_sum_of_spaces_has_lcm_period(self):
        # random nonzero members of distinct primitive-order spaces
        rng = random.Random(777)
        for _ in range(15):
            count = rng.randint(2, 3)
            moduli = rng.sample(range(1, 31), k=count)
            while math.lcm(*moduli) > 20000:
                moduli = rng.sample(range(1, 31), k=count)
            entries = {}
            for w in moduli:
                for num in range(w):
                    if math.gcd(num, w) == 1:
                        entries[Fraction(num, w)] = complex(
                            rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
                        )
            window = math.lcm(*moduli)
            s = spectrum_to_samples(entries, window)
            assert naive_fundamental_period(s) == window
