"""Exception types shared across the package: the failures a caller can act
on.  A bad argument to a primitive raises ValueError."""

from __future__ import annotations


class VpalError(Exception):
    """Base class for package-specific errors."""


class BudgetExceeded(VpalError):
    """The factoring work limit ran out before a number was fully factored.

    Carries the composite cofactor that resisted, so callers can report it or
    retry with a larger budget instead of guessing.  The three values are its
    args, so it pickles, and crosses a process pool, as itself.
    """

    def __init__(self, n: int, cofactor: int, budget: int):
        super().__init__(n, cofactor, budget)
        self.n = n
        self.cofactor = cofactor
        self.budget = budget

    def __str__(self) -> str:
        return (
            f"factoring budget of {self.budget} iterations exhausted on a "
            f"{len(str(self.cofactor))}-digit cofactor of {self.n}"
        )


class InvalidInput(VpalError):
    """An input outside what the package handles: an integer that is a
    multiple of 10 or a palindrome, or samples that are not finite or too
    large to transform."""
