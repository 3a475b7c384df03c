"""Periodic functions on the integers as finite root-of-unity spectra.

A finitely supported map from roots of unity to coefficients determines a
periodic function x -> sum of coeff * zeta**x, and every periodic function
arises that way from exactly one map.  This module converts one window of
samples to its map, computes the fundamental period three ways, and
expresses indicator combinations exactly in spectral form.

A spectrum is a plain dict from `Fraction` phase to coefficient: the key x,
with 0 <= x < 1, stands for the root of unity e(x) = exp(2*pi*i*x), whose
order is x.denominator.  Entries iterate by (denominator, numerator), and
every coefficient in them is nonzero.

A `PeriodicSamples` window checks its samples when it is built: each must
be a finite complex number, and the window length times the largest sample
magnitude must be a float, so no transform sum or sample difference of a
window that builds can overflow.  The same pass sets the window's zero
threshold, the module's one zero rule.  `samples_to_spectrum` and
`gcd_period` read one transform of the window, `PeriodicSamples._inverse`,
which drops the coefficients below that threshold, so the two formulas agree
on which coefficients count as zero.  The shift test,
`naive_fundamental_period`, is the independent check.

A window of length w with prime-power factors q_1 ... q_k is transformed
along its Chinese-remainder axes (the prime-factor transform of I. J. Good,
1958, and L. H. Thomas, 1963), in w * (q_1 + ... + q_k) terms instead of w**2.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import eq, mul
from typing import Union

from .errors import InvalidInput
from .indicator import IndicatorCombination
from .numbers import divisors, factorize

#: Transform coefficients below this magnitude count as zero, and non-exact
#: samples closer than this count as equal.  A window of length w with largest
#: sample magnitude V carries rounding error up to about w * epsilon * V in
#: every coefficient, so each window raises its threshold to that floor when
#: it is larger: for long windows of large samples.
ZERO_TOLERANCE = 1e-9

Coefficient = Union[int, Fraction, float, complex]

#: Root-of-unity phase -> coefficient, iterating by (denominator, numerator).
Spectrum = dict[Fraction, Coefficient]


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction))


@dataclass(frozen=True)
class PeriodicSamples:
    """One window of a periodic function: values[x] = f(x) for 0 <= x < period = len(values)."""

    values: tuple

    def __post_init__(self):
        """Reject a window that is empty, holds a non-finite sample, or is so
        large that w * max|v| exceeds the largest float, and set `_threshold`:
        ZERO_TOLERANCE, raised to the rounding floor of a transform of values."""
        if not self.values:
            raise ValueError("need at least one sample")
        w = len(self.values)
        try:
            magnitudes = list(map(abs, map(complex, self.values)))
        except OverflowError:  # an int beyond the float range, or |v| beyond it
            magnitudes = [math.inf]
        else:
            if not all(map(math.isfinite, magnitudes)):
                bad = next(v for v, m in zip(self.values, magnitudes) if not math.isfinite(m))
                raise InvalidInput(f"sample {bad!r} is not a finite complex number")
        scale = max(magnitudes)
        if w * scale > sys.float_info.max:
            raise InvalidInput(
                f"samples too large: the window length {w} times the largest magnitude "
                "exceeds the largest float"
            )
        object.__setattr__(self, "_threshold", max(ZERO_TOLERANCE, w * sys.float_info.epsilon * scale))

    @property
    def period(self) -> int:
        return len(self.values)

    @cached_property
    def _inverse(self) -> list[tuple[int, complex]]:
        """The pairs (r, c_r) of `_transform(values)` with |c_r| at or above
        the window's `_threshold`, transformed on first read: the support
        both frequency formulas read."""
        return [(r, c) for r, c in enumerate(_transform(self.values)) if abs(c) >= self._threshold]


def support_period(g: Spectrum) -> int:
    """lcm of the primitive orders over the support; 1 for the empty map.

    This is the fundamental period of the function the map represents.
    """
    return math.lcm(*(x.denominator for x in g))


def _transform(values) -> list[complex]:
    """c_r = (1/w) * sum over x of values[x] * e(-r*x/w), for r = 0..w-1.

    A Good-Thomas prime-factor transform (I. J. Good 1958; L. H. Thomas 1963):
    with w = q_1 * ... * q_k the prime powers of w and n_i = w/q_i, a flat
    mixed-radix list puts sample x at the position of its residues
    (x mod q_1, ..., x mod q_k), and one dense length-q_i transform runs along
    each axis with no twiddle factors, since r*x/w = sum of r_i*x/q_i mod 1
    for r = sum of r_i*n_i.  Position (r_1, ..., r_k) then holds frequency
    sum of r_i*n_i mod w.  That costs w * (q_1 + ... + q_k) terms instead of
    w**2.  Each partial sum is still a sum of at most w samples times unit
    roots, so the rounding floor of `PeriodicSamples._threshold` and the
    window's overflow check hold unchanged.

    Each axis reads one table of the q_i-th roots of unity, the float that
    exp(-2*pi*i * j / q_i) gives.  For a prime-power w (one axis) the
    terms are summed in order of x, so every coefficient is bit for bit the
    one the per-term formula gives; otherwise only the rounding differs.
    """
    w = len(values)
    axes = [p**e for p, e in factorize(w)] or [1]
    src = dst = [0]
    for q in axes:
        n = w // q
        unit = n * pow(n, -1, q)  # 1 mod q, 0 mod every other axis
        src = [s + x * unit for s in src for x in range(q)]
        dst = [d + r * n for d in dst for r in range(q)]
    flat = [complex(values[s % w]) for s in src]
    stride = w
    for q in axes:
        stride //= q
        span = q * stride
        roots = [cmath.exp(-2j * math.pi * j / q) for j in range(q)]
        table = [[roots[r * x % q] for x in range(q)] for r in range(q)]
        for start in range(0, w, span):
            for lo in range(start, start + stride):
                line = flat[lo : lo + span : stride]
                flat[lo : lo + span : stride] = [sum(map(mul, line, row)) for row in table]
    coeffs = [0j] * w
    for d, c in zip(dst, flat):
        coeffs[d % w] = c / w
    return coeffs


def samples_to_spectrum(s: PeriodicSamples) -> Spectrum:
    """Invert one window of samples into root-of-unity coefficients.

    Good-Thomas inverse transform in w * (q_1 + ... + q_k) terms, for a
    window of length w with prime-power factors q_i (see `_transform`); the
    interpolant of the result reproduces the samples on all of the integers.
    """
    w = s.period
    roots = [(Fraction(r, w), c) for r, c in s._inverse]
    return dict(sorted(roots, key=lambda xc: (xc[0].denominator, xc[0].numerator)))


def gcd_period(s: PeriodicSamples) -> int:
    """Fundamental period via frequency indices: the window length w divided
    by the gcd of w and the active indices r of `samples_to_spectrum`'s
    transform (an active r = 0 adds nothing to that gcd).

    In the basis e(-x*k/w) the coefficient of index k = -r mod w is c_r, and
    gcd(w, k) = gcd(w, r), so that basis needs no transform of its own.  The
    lcm of the w/gcd(w, r) is w over the gcd of the gcd(w, r), so this equals
    `support_period(samples_to_spectrum(s))` as integers."""
    w = s.period
    return w // math.gcd(w, *(r for r, _ in s._inverse))


def naive_fundamental_period(s: PeriodicSamples) -> int:
    """Smallest divisor of the window length whose cyclic shift fixes the
    samples.  Exact comparison for int/Fraction entries, ZERO_TOLERANCE
    otherwise."""
    vals = s.values
    if all(_is_exact(v) for v in vals):
        same = eq
    else:
        def same(a, b):
            return abs(complex(a) - complex(b)) <= ZERO_TOLERANCE

    for t in divisors(s.period):
        if all(map(same, vals[t:] + vals[:t], vals)):
            return t
    return s.period


def indicator_spectrum(a: int) -> Spectrum:
    """The divisibility-by-a indicator as coefficient 1/a on every a-th root
    of unity (exactly a entries, one per reduced fraction with denominator
    dividing a): the spectrum of the combination I_a."""
    if a < 1:
        raise ValueError("indicator_spectrum requires a >= 1")
    return combination_spectrum(IndicatorCombination(((a, 1),)))


def net_coefficients(comb: IndicatorCombination) -> dict[int, Fraction]:
    """Exact net coefficient per primitive order d: the sum of coeff/modulus
    over the moduli that d divides.  Orders with net zero are omitted.

    The fundamental period of the combination equals the lcm of the keys.
    """
    dens: set[int] = set()
    for modulus, _ in comb.terms:
        dens.update(divisors(modulus))
    nets = {}
    for den in sorted(dens):
        net = sum(
            (Fraction(coeff, modulus) for modulus, coeff in comb.terms if modulus % den == 0),
            Fraction(0),
        )
        if net != 0:
            nets[den] = net
    return nets


def combination_spectrum(comb: IndicatorCombination) -> Spectrum:
    """Exact spectrum of an indicator combination.

    The support holds one entry per reduced fraction whose denominator has a
    nonzero net coefficient, so its size is bounded by the fundamental period;
    intended for combinations with periods up to a few thousand.
    """
    return {
        Fraction(num, den): net
        for den, net in net_coefficients(comb).items()
        for num in range(den)
        if math.gcd(num, den) == 1
    }
