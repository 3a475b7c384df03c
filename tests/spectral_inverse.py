"""The inverse of `samples_to_spectrum`, for tests: evaluate a spectral map
back into samples by summing coeff * root**x over its support."""

import cmath
import math

from vpal import PeriodicSamples, RootIndex, SpectralMap, support_period


def root_value(root: RootIndex) -> complex:
    """The complex number e(num/den) = exp(2*pi*i*num/den)."""
    return cmath.exp(2j * math.pi * root.num / root.den)


def eval_spectrum(g: SpectralMap, x: int) -> complex:
    """The finite sum of coeff * root**x over the support."""
    return sum((complex(c) * root_value(RootIndex.reduced(r.num * x, r.den)) for r, c in g.items()), 0j)


def spectrum_to_samples(g: SpectralMap, omega: int) -> PeriodicSamples:
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
