"""Exact integer primitives: digit reversal and the eligibility check,
budgeted factoring, factorization sums, repeated concatenation, p-adic
orders, and multiplicative orders.

Everything here is a pure function of its arguments; results for expensive
calls are memoized on the argument values, each passed positionally.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceeded, InvalidInput

#: Brent iterations allowed per factorize() call; every `budget` in the package
#: defaults to it.  Large enough that every composite of up to ~26 digits
#: splits (worst case: a balanced semiprime needs on the order of sqrt(p)
#: iterations for its smaller factor p).  Perfect powers such as p**2 are split
#: by root extraction and spend none of it, whatever their size.
DEFAULT_BUDGET = 20_000_000

_TRIAL_LIMIT = 10_000


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = _sieve(_TRIAL_LIMIT)
#: _SMALL_PRIMES in runs of 32 as (least prime squared, product, primes)
_TRIAL_BLOCKS = tuple(
    (run[0] * run[0], math.prod(run), run)
    for run in (_SMALL_PRIMES[i : i + 32] for i in range(0, len(_SMALL_PRIMES), 32))
)

#: Strong probable-prime tests to the first 13 prime bases decide primality
#: for every n below this bound (J. Sorenson and J. Webster, "Strong
#: pseudoprimes to twelve prime bases", Math. Comp. 86, 2017,
#: arXiv:1509.00864); above it _isprime runs strong BPSW.
_MR_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin: False when one of the bases, each below the odd n, proves
    n composite."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
            if x == 1:
                return False
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test on odd n > 2 with Selfridge's parameters (Baillie &
    Wagstaff, Math. Comp. 35, 1980, method A): P = 1 and the first D in
    5, -7, 9, ... with Jacobi symbol (D/n) = -1."""
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and D % n:
            return False
        # a square n has no such D; rule it out once the search runs long
        if D == 13 and math.isqrt(n) ** 2 == n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    k = n + 1
    s = (k & -k).bit_length() - 1
    k >>= s
    # U, V, Qk = U_i, V_i, Q**i mod n, for i the bits of k read so far
    U, V, Qk = 1, 1, Q % n
    for bit in bin(k)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            if U & 1:
                U += n
            if V & 1:
                V += n
            U, V = (U >> 1) % n, (V >> 1) % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def _isprime(n: int) -> bool:
    """Primality of n: exact below _MR_BOUND (strong probable-prime tests to
    bases proven sufficient there), strong BPSW above (base-2 Miller-Rabin
    and a strong Lucas test), for which no composite that passes is known.
    sympy's isprime decides the same way and agrees on every n."""
    if n < _TRIAL_LIMIT:
        i = bisect.bisect_left(_SMALL_PRIMES, n)
        return i < len(_SMALL_PRIMES) and _SMALL_PRIMES[i] == n
    if math.gcd(n, _TRIAL_BLOCKS[0][1]) != 1:  # a prime factor below 137
        return False
    if n < _MR_BOUND:
        return _strong_probable_prime(n, _MR_BASES)
    return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def _perfect_power(m: int, exponents) -> tuple[int, int] | None:
    """Some (root, k) with root**k == m and k among the exponents, or None."""
    for k in exponents:
        if k == 2:
            root = math.isqrt(m)
        else:
            # integer Newton iteration, falling from an overestimate to the floor
            root = 1 << -(-m.bit_length() // k)
            while True:
                step = ((k - 1) * root + m // root ** (k - 1)) // k
                if step >= root:
                    break
                root = step
        if root**k == m:
            return root, k
    return None


@dataclass(frozen=True)
class Factorization:
    """Complete prime factorization as a sorted tuple of (prime, exponent) pairs.

    The empty tuple represents 1.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            last = p

    def __iter__(self):
        return iter(self.factors)

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def merge(self, other: "Factorization") -> "Factorization":
        """Factorization of the product: exponents added prime by prime."""
        counts = self.as_dict()
        for p, e in other:
            counts[p] = counts.get(p, 0) + e
        return Factorization(tuple(sorted(counts.items())))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)


class _Budget:
    """Mutable iteration allowance threaded through the factoring loop."""

    __slots__ = ("n", "limit", "remaining")

    def __init__(self, n: int, limit: int):
        self.n = n
        self.limit = limit
        self.remaining = limit

    def spend(self, amount: int, cofactor: int) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceeded(self.n, cofactor, self.limit)


def _brent_factor(n: int, budget: _Budget) -> int:
    """One nontrivial factor of an odd composite n, by Brent's cycle method.

    Deterministic (the parameter stream is seeded from n) and metered: every
    modular multiplication spends budget, so a hard semiprime surfaces as
    BudgetExceeded rather than an open-ended loop.
    """
    rng = random.Random(n & 0xFFFFFFFF)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            budget.spend(r, n)
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget.spend(min(m, r - k), n)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                budget.spend(1, n)
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int, budget: int = DEFAULT_BUDGET) -> Factorization:
    """Complete factorization of n >= 1; empty for n = 1.

    Trial division by the primes below 10^4 first, 32 at a time: a gcd with
    their product picks out the ones that divide (D. J. Bernstein, "How to
    find smooth parts of integers", 2004).  A composite survivor that is a
    perfect power r**k is replaced by its root r, counted k times, at no cost
    in budget; Brent's method runs only on survivors that are not perfect
    powers.  That split is memoized on the survivor, not on n, so a
    concatenation N = n * R_k and its reversal rev(n) * R_k, and every
    concatenation with the same repetition cofactor, split it once.  Trial
    division spends no budget, so the budget still meters each factorization
    as before.  Primes below 10**8 are proved by the trial division, larger
    ones by _isprime, the package's one primality check: a proof below
    3.3*10**24 (strong probable-prime tests on bases known to suffice there),
    a strong BPSW test above, which no known composite passes.  Its verdicts
    are memoized, so each prime is proved once, also when it comes out of a
    Brent split and is later factored on its own.
    Raises BudgetExceeded when a cofactor that is not a perfect power resists
    within the iteration budget; the caller decides whether that means
    "skip", never "assume prime".
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    result = _factorize_cached(n, budget)
    if isinstance(result, BudgetExceeded):
        # a fresh exception each time: raising the memoized one would grow its traceback
        raise BudgetExceeded(n, result.cofactor, budget)
    return result


@lru_cache(maxsize=1 << 15)
def _factorize_cached(n: int, budget: int) -> Factorization | BudgetExceeded:
    # budget failures are cached too, so one hard cofactor burns at most once
    counts: dict[int, int] = {}
    rem = n
    for square, product, primes in _TRIAL_BLOCKS:
        if square > rem:
            break
        g = math.gcd(rem, product)
        if g == 1:
            continue
        for p in primes:
            if g % p == 0:
                while rem % p == 0:
                    counts[p] = counts.get(p, 0) + 1
                    rem //= p
                g //= p
                if g == 1:
                    break
    # trial division stops early only at a run whose least prime squared
    # exceeds what is left: survivors below _TRIAL_LIMIT squared are 1 or prime
    if rem >= _TRIAL_LIMIT * _TRIAL_LIMIT:
        rest = _factorize_survivor(rem, budget)
        if isinstance(rest, BudgetExceeded):
            return rest
        counts.update(rest.factors)  # primes above _TRIAL_LIMIT, new to counts
    elif rem > 1:
        counts[rem] = 1
    return Factorization(tuple(sorted(counts.items())))


@lru_cache(maxsize=1 << 15)
def _factorize_survivor(rem: int, budget: int) -> Factorization | BudgetExceeded:
    # keyed on what trial division leaves, so N and rev(N) = rev(n) * R_k,
    # which share the cofactor of R_k, split it once; trial division spends
    # no budget, so rem's tracker spends exactly what n's would
    counts: dict[int, int] = {}
    tracker = _Budget(rem, budget)
    # (cofactor, multiplicity) pairs: a root r of r**k stands for k factors
    stack = [(rem, 1)]
    while stack:
        m, mult = stack.pop()
        # no factor of rem has a prime factor below _TRIAL_LIMIT, so any
        # factor below _TRIAL_LIMIT squared is prime
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT or _proved_prime(m):
            counts[m] = counts.get(m, 0) + mult
            continue
        # m has no prime factor below _TRIAL_LIMIT > 2**13, so m = r**k only
        # for k < bits/13; the root may itself be composite, as in (p*q)**2
        exponents = _SMALL_PRIMES[: bisect.bisect_right(_SMALL_PRIMES, m.bit_length() // 13)]
        power = _perfect_power(m, exponents)
        if power:
            root, k = power
            stack.append((root, mult * k))
            continue
        try:
            d = _brent_factor(m, tracker)
        except BudgetExceeded as exc:
            # kept without its traceback, whose frames the memo would hold alive
            return exc.with_traceback(None)
        stack.append((d, mult))
        stack.append((m // d, mult))
    return Factorization(tuple(sorted(counts.items())))


@lru_cache(maxsize=1 << 15)
def _proved_prime(m: int) -> bool:
    # a prime out of a Brent split comes back alone, as factorize(p) from
    # _order_of_ten, and reads its proof from here
    return _isprime(m)


def digit_count(n: int) -> int:
    """Number of decimal digits of |n| (1 for 0)."""
    return len(str(abs(n)))


def reverse_digits(n: int) -> int:
    """Integer obtained by reversing the decimal digits of n >= 1.

    Same digit count as n when 10 does not divide n; fewer digits otherwise
    (trailing zeros become dropped leading zeros).
    """
    if n < 1:
        raise ValueError("reverse_digits requires n >= 1")
    return int(str(n)[::-1])


def _eligible(n: int) -> bool:
    """True when 10 does not divide n and n is not a palindrome (n >= 1)."""
    return n % 10 != 0 and reverse_digits(n) != n


def check_eligible(n: int) -> None:
    """Inputs must be positive, not multiples of 10, and not palindromes."""
    if n < 1:
        raise InvalidInput("n must be a positive integer")
    if n % 10 == 0:
        raise InvalidInput(f"{n} is a multiple of 10")
    if reverse_digits(n) == n:
        raise InvalidInput(f"{n} is a palindrome")


def factorization_sum_of(factorization: Factorization) -> int:
    """Sum of the primes, plus each exponent that exceeds 1.

    The empty factorization (the number 1) sums to 1 by convention.
    """
    if not factorization.factors:
        return 1
    return sum(p + (e if e >= 2 else 0) for p, e in factorization)


def factorization_sum(n: int, budget: int = DEFAULT_BUDGET) -> int:
    """The factorization sum of n >= 1; 1 for n = 1 by convention."""
    return factorization_sum_of(factorize(n, budget))


def is_v_palindrome(n: int, budget: int = DEFAULT_BUDGET) -> bool:
    """True when 10 does not divide n, n is not a palindrome, and n and its
    digit reversal have equal factorization sums."""
    if n < 1:
        raise ValueError("is_v_palindrome requires n >= 1")
    return _eligible(n) and factorization_sum(n, budget) == factorization_sum(reverse_digits(n), budget)


def repetition_number(k: int, digits: int) -> int:
    """The integer written as k ones separated by runs of digits-1 zeros.

    Multiplying a digits-digit number by it repeats that number's digit
    string k times.
    """
    if k < 1 or digits < 1:
        raise ValueError("repetition_number requires k >= 1 and digits >= 1")
    return (10 ** (digits * k) - 1) // (10**digits - 1)


def concat(n: int, k: int) -> int:
    """The integer whose digit string is that of n repeated k times."""
    if n < 1 or k < 1:
        raise ValueError("concat requires n >= 1 and k >= 1")
    by_string = int(str(n) * k)
    assert by_string == n * repetition_number(k, digit_count(n))
    return by_string


def padic_order(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n >= 1, p >= 2)."""
    if n < 1 or p < 2:
        raise ValueError("padic_order requires n >= 1 and p >= 2")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def multiplicative_order(a: int, m: int, budget: int = DEFAULT_BUDGET) -> int:
    """Least t >= 1 with a**t = 1 (mod m).

    Starts from the group order (Euler phi of m, with its known factorization)
    and strips prime factors while the power stays 1; the result is verified
    by a final modular exponentiation.
    """
    if m < 1:
        raise ValueError("multiplicative_order requires m >= 1")
    if m == 1:
        return 1
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not invertible modulo {m}")
    phi = 1
    phi_primes: set[int] = set()
    for p, e in factorize(m, budget):
        phi *= (p - 1) * p ** (e - 1)
        if e >= 2:
            phi_primes.add(p)
        phi_primes.update(q for q, _ in factorize(p - 1, budget))
    t = phi
    for q in phi_primes:
        while t % q == 0 and pow(a, t // q, m) == 1:
            t //= q
    assert pow(a, t, m) == 1
    return t


def repetition_order(p: int, alpha: int, digits: int, budget: int = DEFAULT_BUDGET) -> int:
    """Least t >= 1 with (10**digits)**t = 1 modulo p**(alpha + e0), where e0
    is the p-adic order of 10**digits - 1.

    This is the period controlling extra p-divisibility of repetition numbers:
    the repetition number for count k (at this digit width) gains p-adic order
    at least alpha exactly when t divides k.  Always > 1, because by choice of
    e0 the base is not congruent to 1 at the target power of p.

    Computed by lifting the exponent.  With t1 the order of 10**digits modulo
    p, K = alpha + e0 (e0 > 0 only when t1 = 1) and e1 the p-adic order of
    10**(digits * t1) - 1 capped at K, the order is t1 * p**(K - e1): for odd
    p, v_p(10**(digits * t1 * m) - 1) = e1 + v_p(m).  The order of 10 modulo
    p is found once per prime by factoring p and p - 1, so a composite p
    that resists factoring raises BudgetExceeded rather than ValueError.
    """
    return _repetition_order(p, alpha, digits, budget)


@lru_cache(maxsize=1 << 14)
def _order_of_ten(p: int, budget: int) -> int:
    # p is checked by its factorization, which multiplicative_order reads from the memo
    if p < 2 or p in (2, 5) or factorize(p, budget).factors != ((p, 1),):
        raise ValueError(f"repetition_order requires a prime other than 2 and 5, got {p}")
    return multiplicative_order(10, p, budget)


@lru_cache(maxsize=1 << 16)
def _repetition_order(p: int, alpha: int, digits: int, budget: int) -> int:
    # the arguments are checked before p is factored, which may exhaust the budget
    if alpha < 1 or digits < 1:
        raise ValueError("repetition_order requires alpha >= 1 and digits >= 1")
    t = _order_of_ten(p, budget)
    t1 = t // math.gcd(t, digits)
    modulus = p ** (alpha + padic_order(10**digits - 1, p))
    r = pow(10, digits * t1, modulus) - 1
    order = t1 * (modulus // math.gcd(r, modulus))  # gcd is p**e1, also for r = 0
    assert pow(10, digits * order, modulus) == 1
    return order


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)
