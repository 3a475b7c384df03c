"""Exception types shared across the package."""

from __future__ import annotations


class VpalError(Exception):
    """Base class for package-specific errors."""


class BudgetExceeded(VpalError):
    """The factoring work limit ran out before a number was fully factored.

    Carries the composite cofactor that resisted, so callers can report it or
    retry with a larger budget instead of guessing.
    """

    def __init__(self, n: int, cofactor: int, budget: int):
        super().__init__(
            f"factoring budget of {budget} iterations exhausted on a "
            f"{len(str(cofactor))}-digit cofactor of {n}"
        )
        self.n = n
        self.cofactor = cofactor
        self.budget = budget


class NotCoprime(VpalError):
    """multiplicative_order() needs gcd(a, m) = 1."""


class InvalidPrime(VpalError):
    """Prime argument outside the supported set (2, 5, or not prime at all)."""


class InvalidInput(VpalError):
    """An input outside what the package handles: an integer that is a
    multiple of 10 or a palindrome, or samples that are not finite or too
    large to transform."""


class PeriodMismatch(VpalError):
    """Requested sampling window is not a multiple of the spectrum's period."""
