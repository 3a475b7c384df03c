"""The inverse of `samples_to_spectrum`, for tests: evaluate a spectrum
back into samples by summing coeff * e(x)**k over its support."""

import cmath
import math
from fractions import Fraction

from vpal import PeriodicSamples, support_period


def root_value(x: Fraction) -> complex:
    """The complex number e(x) = exp(2*pi*i*x)."""
    return cmath.exp(2j * math.pi * x.numerator / x.denominator)


def eval_spectrum(g: dict, k: int) -> complex:
    """The finite sum of coeff * e(x)**k = coeff * e(x*k mod 1) over the support."""
    return sum((complex(c) * root_value((x * k) % 1) for x, c in g.items()), 0j)


def spectrum_to_samples(g: dict, omega: int) -> PeriodicSamples:
    """Evaluate on 0..omega-1; omega must be a multiple of the support period."""
    if omega < 1:
        raise ValueError("omega must be >= 1")
    if omega % support_period(g) != 0:
        raise ValueError(f"{omega} is not a multiple of the support period {support_period(g)}")
    acc = [0j] * omega
    for root, coeff in g.items():
        c = complex(coeff)
        step = root_value(root)
        cur = 1 + 0j
        for x in range(omega):
            acc[x] += c * cur
            cur *= step
    return PeriodicSamples(tuple(acc))
