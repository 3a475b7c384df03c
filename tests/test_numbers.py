"""Integer primitives: reversal, factoring, factorization sums, repetition."""

import collections
import inspect
import math
import pickle
import random
import traceback
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations_with_replacement

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import vpal
from vpal import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Factorization,
    InvalidInput,
    analyze,
    check_eligible,
    concat,
    digit_count,
    divisors,
    factorization_sum,
    factorize,
    is_v_palindrome,
    multiplicative_order,
    padic_order,
    repetition_number,
    repetition_order,
    reverse_digits,
    verify,
)
from vpal.characteristic import _constraint_table
from vpal.indicator import _pipeline
from vpal.numbers import (
    _MR_BOUND,
    _TRIAL_LIMIT,
    _eligible,
    _factorize_cached,
    _factorize_survivor,
    _proved_prime,
    _isprime,
    _order_of_ten,
    _repetition_order,
    _strong_lucas_probable_prime,
)

#: Lower ends of the magnitude ranges sampled against sympy.isprime; above
#: _MR_BOUND the test is strong BPSW.
MAGNITUDES = (200_000, 10**8, 10**12, 2**64, _MR_BOUND, 10**42)


class TestReverseDigits:
    def test_known_values(self):
        assert reverse_digits(56056) == 65065
        assert reverse_digits(7) == 7
        assert reverse_digits(560) == 65  # trailing zeros drop

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            reverse_digits(0)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_involution_off_multiples_of_ten(self, n):
        if n % 10 != 0:
            assert reverse_digits(reverse_digits(n)) == n

    @given(st.integers(min_value=1, max_value=10**12))
    def test_digit_count_behaviour(self, n):
        r = reverse_digits(n)
        if n % 10 == 0:
            assert digit_count(r) < digit_count(n)
        else:
            assert digit_count(r) == digit_count(n)


class TestFactorize:
    def test_known_values(self):
        assert factorize(56056).as_dict() == {2: 3, 7: 2, 11: 1, 13: 1}
        assert factorize(65065).as_dict() == {5: 1, 7: 1, 11: 1, 13: 2}
        assert factorize(1).factors == ()

    def test_soundness_against_sympy(self):
        rng = random.Random(20240)
        for _ in range(200):
            n = rng.randint(2, 10**12)
            f = factorize(n)
            assert f.as_dict() == sympy.factorint(n)
            assert math.prod(p**e for p, e in f) == n
            assert all(sympy.isprime(p) for p, _ in f)

    def test_large_composite(self):
        n = 1000003 * 1000033 * 1000037  # beyond trial division, needs the rho stage
        f = factorize(n)
        assert f.as_dict() == {1000003: 1, 1000033: 1, 1000037: 1}

    @pytest.mark.parametrize(
        "p, e", [(100000000000031, 2), (100000000000031, 3), (10007, 7), (100000000000031, 6), (10007, 10)]
    )
    def test_prime_power_spends_no_budget(self, p, e):
        # Brent's method would need about sqrt(p) iterations; root extraction none
        assert factorize(p**e, budget=0).as_dict() == {p: e}

    def test_composite_root_is_split(self):
        assert factorize((1000003 * 1000033) ** 2).as_dict() == {1000003: 2, 1000033: 2}
        p = 100000000000031
        assert factorize((10007 * p) ** 3, budget=1_000).as_dict() == {10007: 3, p: 3}

    @pytest.mark.parametrize(
        "n", [(10007 * 10009) ** 6, (100003 * 1000000007) ** 3, (10007**2 * 100000000000031) ** 3]
    )
    def test_composite_roots_match_sympy(self, n):
        # the root of a root may be composite, or a power again
        assert factorize(n, budget=1_000).as_dict() == sympy.factorint(n)

    HARD = 1000000000000066600000000000001  # 31-digit prime ("Belphegor")
    SEMIPRIME = HARD * (10**30 + 57)  # 10**30 + 57 is prime

    def test_budget_exceeded_on_hard_semiprime(self):
        with pytest.raises(BudgetExceeded) as info:
            factorize(self.SEMIPRIME, budget=10_000)
        assert info.value.budget == 10_000
        assert info.value.n == self.SEMIPRIME

    def test_survivor_failure_names_each_caller(self, monkeypatch):
        # the Brent stage is memoized on what trial division leaves, so a
        # smooth multiple and the semiprime itself split (and fail on) it once
        splits = self.count_splits(monkeypatch)
        with pytest.raises(BudgetExceeded) as info:
            factorize(6 * self.SEMIPRIME, budget=10_000)
        exc = info.value
        assert (exc.n, exc.cofactor, exc.budget) == (6 * self.SEMIPRIME, self.SEMIPRIME, 10_000)
        assert splits == {self.SEMIPRIME: 1}
        with pytest.raises(BudgetExceeded) as info:
            factorize(self.SEMIPRIME, 10_000)
        exc = info.value
        assert (exc.n, exc.cofactor, exc.budget) == (self.SEMIPRIME, self.SEMIPRIME, 10_000)
        assert splits == {self.SEMIPRIME: 1}

    def test_cached_failure_keeps_its_traceback_depth(self):
        # regression: the memo held the raised BudgetExceeded and factorize
        # raised that same object again, each raise adding to its traceback;
        # the smooth multiples miss the whole-n memo and hit the survivor memo
        n = (10**18 + 3) * (10**18 + 9)  # both factors prime
        depths = []
        for m in (n, 2 * n, 6 * n, n, 2 * n, 6 * n):
            try:
                factorize(m, 10_000)
            except BudgetExceeded as exc:
                assert exc.n == m and exc.cofactor == n
                depths.append(len(traceback.extract_tb(exc.__traceback__)))
        assert len(depths) == 6 and len(set(depths)) == 1
        assert _factorize_survivor(n, 10_000).__traceback__ is None

    def test_direct_verify_splits_each_composite_once(self, monkeypatch):
        # 126 * R_k and its reversal 621 * R_k leave the same survivor of R_k
        for memo in (_order_of_ten, _repetition_order, _pipeline):
            memo.cache_clear()
        splits = self.count_splits(monkeypatch)
        rows = verify(126, 14)
        assert all(row.agrees for row in rows)
        assert splits and max(splits.values()) == 1, splits

    @staticmethod
    def count_splits(monkeypatch):
        """Clear the factorization memos and count _brent_factor calls per argument."""
        _factorize_cached.cache_clear()
        _factorize_survivor.cache_clear()
        splits = collections.Counter()
        brent = vpal.numbers._brent_factor

        def counted(m, tracker):
            splits[m] += 1
            return brent(m, tracker)

        monkeypatch.setattr(vpal.numbers, "_brent_factor", counted)
        return splits

    def test_run_edges_match_sympy(self):
        # trial division takes the primes below 10**4 in runs of 32: the 32nd
        # and 33rd primes (131 and 137) meet at the first edge, and 9973 is the
        # last prime tried before 10007
        edges = (127, 131, 137, 139, 9967, 9973, 10007, 10009)
        ns = [10007**2]
        ns += [p**e for p in edges for e in range(1, 7)]
        ns += [p * q for p, q in combinations_with_replacement(edges, 2)]
        ns += [p**2 * q * r for p, q, r in combinations_with_replacement(edges, 3)]
        for n in ns:
            assert factorize(n).as_dict() == sympy.factorint(n), n

    def test_around_the_trial_limit_squared(self):
        # survivors of trial division below 10**8 are taken as prime unchecked
        assert _TRIAL_LIMIT**2 == 10**8
        for n in range(10**8 - 300, 10**8 + 300):
            assert factorize(n).as_dict() == sympy.factorint(n), n

    @pytest.mark.parametrize(
        "n",
        [
            2 * 113,  # the cofactor turns 1 halfway through the first run
            2**3 * 3 * 1009,  # the prime 1009 is left; the scan stops at the second run
            6 * 10007,  # left with a prime past every run
            131 * 137 * 100003,  # one prime on each side of the first edge, then a large one
            3**5 * 7919 * 7927,  # two primes from the middle of one run
        ],
    )
    def test_trial_division_stops_early(self, n):
        assert factorize(n).as_dict() == sympy.factorint(n)

    @pytest.mark.parametrize("digits", [2, 4, 8, 15, 24, 36])
    def test_trial_division_matches_sympy_on_random_n(self, digits):
        rng = random.Random(digits)
        for _ in range(200):
            n = rng.randrange(10 ** (digits - 1), 10**digits)
            small = sympy.factorint(n, limit=_TRIAL_LIMIT, use_rho=False, use_pm1=False, use_ecm=False)
            smooth = math.prod(p**e for p, e in small.items() if p < _TRIAL_LIMIT)
            try:
                # budget 0: what trial division leaves is prime, a power or unsplit
                f = factorize(n, budget=0)
            except BudgetExceeded as exc:
                assert exc.cofactor == n // smooth and not sympy.isprime(exc.cofactor), n
            else:
                assert f.as_dict() == sympy.factorint(n), n

    def test_determinism(self):
        n = 10**24 - 1
        assert factorize(n) == factorize(n)

    def test_merge(self):
        a = factorize(56056)
        b = factorize(65065)
        assert math.prod(p**e for p, e in a.merge(b)) == 56056 * 65065

    def test_validation(self):
        with pytest.raises(ValueError):
            Factorization(((3, 1), (2, 1)))  # out of order
        with pytest.raises(ValueError):
            Factorization(((2, 0),))  # zero exponent

    def test_str(self):
        assert str(factorize(126)) == "2 * 3^2 * 7"
        assert str(factorize(1)) == "1"


def _raise_budget_exceeded():
    raise BudgetExceeded(10, 7, 5)


class TestBudgetExceeded:
    def test_pickle_round_trip(self):
        exc = pickle.loads(pickle.dumps(BudgetExceeded(10, 7, 5)))
        assert (exc.n, exc.cofactor, exc.budget) == (10, 7, 5)
        assert str(exc) == "factoring budget of 5 iterations exhausted on a 1-digit cofactor of 10"

    def test_crosses_a_process_pool(self):
        # regression: an exception that does not unpickle breaks the pool, so
        # a budget failure in a worker surfaced as BrokenProcessPool
        with ProcessPoolExecutor(max_workers=1) as pool:
            future = pool.submit(_raise_budget_exceeded)
            with pytest.raises(BudgetExceeded) as info:
                future.result()
        assert (info.value.n, info.value.cofactor, info.value.budget) == (10, 7, 5)


class TestPrimality:
    """The standard-library primality test against sympy.isprime."""

    def test_every_n_below_200000(self):
        assert [n for n in range(-2, 200_000) if _isprime(n) != sympy.isprime(n)] == []

    def test_random_odd_n_at_each_magnitude(self):
        rng = random.Random(8)
        for lo, hi in zip(MAGNITUDES, MAGNITUDES[1:]):
            odd = [rng.randrange(lo, hi) | 1 for _ in range(300)]
            primes = [sympy.nextprime(rng.randrange(lo, hi)) for _ in range(20)]
            small = [sympy.nextprime(rng.randrange(53, 400)) for _ in range(10)]
            semiprimes = [p * sympy.nextprime(rng.randrange(lo // p, hi // p)) for p in small]
            for n in odd + primes + semiprimes:
                assert _isprime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("bound", (10_000, _MR_BOUND))
    def test_range_boundaries(self, bound):
        for n in range(bound - 100, bound + 100):
            assert _isprime(n) == sympy.isprime(n), n

    def test_near_two_to_the_64(self):
        for k in range(-300, 300):
            assert _isprime(2**64 + k) == sympy.isprime(2**64 + k), k

    @pytest.mark.parametrize(
        "n",
        [
            3215031751,
            2152302898747,
            3474749660383,
            341550071728321,
            3825123056546413051,
            318665857834031151167461,
            3317044064679887385961981,
        ],
    )
    def test_strong_pseudoprimes_to_the_first_bases(self, n):
        # each is a strong pseudoprime to every prime base below a bound, so a
        # base set that stops too early would call it prime
        assert not sympy.isprime(n)
        assert not _isprime(n)

    @pytest.mark.parametrize("k", [1, 1025, 100291, 10000146, 20000556, 1000000511, 1000000001121])
    def test_chernick_carmichael_numbers(self, k):
        # (6k+1)(12k+1)(18k+1) with all three factors prime is a Carmichael
        # number: a Fermat pseudoprime to every coprime base
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        assert all(sympy.isprime(f) for f in factors)
        assert not _isprime(math.prod(factors))

    @pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745])
    def test_small_carmichael_numbers(self, n):
        assert pow(2, n - 1, n) == 1
        assert not _isprime(n)

    @pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])
    def test_strong_lucas_pseudoprimes(self, n):
        assert _strong_lucas_probable_prime(n)
        assert not _isprime(n)

    def test_strong_lucas_test_matches_sympy(self):
        # the Lucas half of BPSW runs only above 3.3e24 in _isprime, so it is
        # compared directly on odd n where it is cheap
        from sympy.ntheory.primetest import is_strong_lucas_prp

        for n in range(3, 30_000, 2):
            assert _strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n


class TestFactorizationSum:
    def test_known_values(self):
        assert factorization_sum(18) == 7
        assert factorization_sum(81) == 7
        assert factorization_sum(1) == 1
        assert factorization_sum(56056) == (2 + 3) + (7 + 2) + 11 + 13
        assert factorization_sum(56056) == factorization_sum(65065)

    @given(
        st.integers(min_value=2, max_value=10**6),
        st.integers(min_value=2, max_value=10**6),
    )
    @settings(max_examples=200)
    def test_additive_on_coprime_arguments(self, m, n):
        if math.gcd(m, n) == 1:
            assert factorization_sum(m * n) == factorization_sum(m) + factorization_sum(n)


class TestIsVPalindrome:
    def test_known_values(self):
        assert is_v_palindrome(18) is True
        assert is_v_palindrome(560) is False  # multiple of 10
        assert is_v_palindrome(121) is False  # palindrome
        assert is_v_palindrome(56056) is True
        assert is_v_palindrome(12) is False

    def test_smallest_is_18(self):
        assert [n for n in range(1, 100) if is_v_palindrome(n)] == [18, 81]

    def test_one_eligibility_rule(self):
        # the bool and the raising check are the same rule, and is_v_palindrome
        # keeps its definition through the bool
        def rejected(n):
            try:
                check_eligible(n)
            except InvalidInput:
                return True
            return False

        def spelled_out(n):
            rev = reverse_digits(n)
            return n % 10 != 0 and rev != n and factorization_sum(n) == factorization_sum(rev)

        for n in range(1, 5001):
            assert _eligible(n) is not rejected(n), n
            assert is_v_palindrome(n) == spelled_out(n), n


class TestRepetitionNumber:
    def test_known_values(self):
        assert repetition_number(1, 3) == 1
        assert repetition_number(3, 2) == 10101
        assert repetition_number(2, 1) == 11

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=8))
    def test_digit_structure(self, k, d):
        r = repetition_number(k, d)
        assert r == sum(10 ** (d * i) for i in range(k))
        assert str(r)[-1] == "1"
        assert digit_count(r) == d * (k - 1) + 1


class TestConcat:
    def test_known_values(self):
        assert concat(18, 3) == 181818
        assert concat(56056, 4) == 56056560565605656056
        assert concat(7, 1) == 7

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=20))
    @settings(max_examples=200)
    def test_string_and_product_agree(self, n, k):
        assert concat(n, k) == n * repetition_number(k, digit_count(n))
        assert str(concat(n, k)) == str(n) * k


class TestPadicOrder:
    def test_known_values(self):
        assert padic_order(999, 3) == 3
        assert padic_order(7, 5) == 0
        assert padic_order(56056, 2) == 3

    @given(st.integers(min_value=1, max_value=10**9))
    def test_definition(self, n):
        e = padic_order(n, 3)
        assert n % 3**e == 0 and n % 3 ** (e + 1) != 0


class TestMultiplicativeOrder:
    def test_known_values(self):
        assert multiplicative_order(6, 7) == 2
        assert multiplicative_order(1, 97) == 1
        assert multiplicative_order(10, 81) == 9

    def test_not_coprime(self):
        with pytest.raises(ValueError, match="not invertible"):
            multiplicative_order(6, 8)

    def test_against_scan(self):
        rng = random.Random(5)
        for _ in range(100):
            m = rng.randint(2, 400)
            a = rng.randint(1, m - 1)
            if math.gcd(a, m) != 1:
                continue
            t = multiplicative_order(a, m)
            x, scan = a % m, 1
            while x != 1:
                x = x * a % m
                scan += 1
            assert t == scan


class TestRepetitionOrder:
    def test_table_values(self):
        assert repetition_order(7, 2, 3) == 14
        assert repetition_order(23, 1, 3) == 22
        assert repetition_order(23, 2, 3) == 506
        assert repetition_order(3, 2, 3) == 9
        assert repetition_order(7, 1, 3) == 2

    def test_rejects_bad_primes(self):
        # p is checked by factoring it: 4, 9 and 25 fall to trial division,
        # 10007 * 10009 to Brent's method and 10007**2 to root extraction
        for p in (2, 5, 9, 1, 0, -7, 4, 25, 10007 * 10009, 10007**2):
            with pytest.raises(ValueError, match="prime other than 2 and 5"):
                repetition_order(p, 1, 2)

    def test_hard_composite_exhausts_the_budget(self):
        # p is checked by factoring it, so a composite that resists is a budget failure
        with pytest.raises(BudgetExceeded):
            repetition_order(10007 * 10009, 1, 2, budget=1)

    @pytest.mark.parametrize("alpha, digits", [(0, 2), (-1, 2), (1, 0), (2, -3)])
    def test_rejects_bad_alpha_and_width(self, alpha, digits):
        with pytest.raises(ValueError, match="alpha >= 1 and digits >= 1"):
            repetition_order(7, alpha, digits)

    @pytest.mark.parametrize("alpha, digits", [(0, 1), (1, 0)])
    def test_checks_alpha_and_width_before_factoring(self, alpha, digits):
        # regression: the order of 10 modulo p came first, so a composite p
        # that resists factoring spent the budget and raised BudgetExceeded
        with pytest.raises(ValueError, match="alpha >= 1 and digits >= 1"):
            repetition_order((2**61 - 1) * (2**89 - 1), alpha, digits, 10000)

    def test_every_spelling_is_one_memo_entry(self):
        _repetition_order.cache_clear()
        repetition_order(7, 1, 2)
        repetition_order(7, 1, 2, DEFAULT_BUDGET)
        repetition_order(7, 1, 2, budget=DEFAULT_BUDGET)
        info = _repetition_order.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_order_of_ten_is_found_once_per_prime(self):
        _repetition_order.cache_clear()
        _order_of_ten.cache_clear()
        _factorize_cached.cache_clear()
        for alpha in (1, 2, 3):
            for d in range(1, 7):
                repetition_order(10007, alpha, d)
        assert _repetition_order.cache_info().misses == 18
        assert _order_of_ten.cache_info().misses == 1
        # 10007 and 10006 are factored once each: multiplicative_order reads
        # the factorization of 10007 that checked it from the memo
        info = _factorize_cached.cache_info()
        assert (info.misses, info.hits) == (2, 1)

    def test_cold_analyze_proves_each_prime_once(self, monkeypatch):
        # 1000000007 and its reversal 7000000001 are both prime, so both are
        # crucial primes above 10**8, proved by _isprime when n and rev(n) are
        # factored; their repetition orders read those factorizations back
        proved = self.count_proofs(monkeypatch)
        report = analyze(1000000007)
        assert [r.p for r in report.records] == [1000000007, 7000000001]
        assert proved[1000000007] == proved[7000000001] == 1
        assert max(proved.values()) == 1, proved

    def test_cold_analyze_proves_a_whole_survivor_once(self, monkeypatch):
        # 1000000007 is what trial division leaves of 3000000021 = 3 * 1000000007,
        # so factorize(1000000007) reads its proof from the survivor memo
        proved = self.count_proofs(monkeypatch)
        report = analyze(3000000021)
        assert 1000000007 in [r.p for r in report.records]
        assert proved[1000000007] == 1
        assert max(proved.values()) == 1, proved

    def test_cold_analyze_proves_a_split_prime_once(self, monkeypatch):
        # trial division leaves all of n = 10007 * 1000000007 and 13241 *
        # 244816909 of rev(n) = 29 * 13241 * 244816909; Brent's method splits
        # both and proves 1000000007 and 244816909, which _order_of_ten then
        # factors on their own (each was proved twice)
        proved = self.count_proofs(monkeypatch)
        report = analyze(10007 * 1000000007)
        assert {1000000007, 244816909} <= {r.p for r in report.records}
        assert proved[1000000007] == proved[244816909] == 1
        assert max(proved.values()) == 1, proved

    @staticmethod
    def count_proofs(monkeypatch):
        """Clear the memos and count _isprime calls per argument."""
        for memo in (_factorize_cached, _factorize_survivor, _proved_prime, _order_of_ten, _repetition_order):
            memo.cache_clear()
        for memo in (_constraint_table, _pipeline):
            memo.cache_clear()
        proved = collections.Counter()

        def counted(m):
            proved[m] += 1
            return _isprime(m)

        monkeypatch.setattr(vpal.numbers, "_isprime", counted)
        return proved

    @staticmethod
    def assert_lifted_orders(primes):
        """The lifted-exponent order equals the order found by stripping the
        prime factors of phi(p**K), for every width d <= 6 and alpha <= 3."""
        for p in primes:
            for d in range(1, 7):
                e0 = padic_order(10**d - 1, p)
                for alpha in (1, 2, 3):
                    modulus = p ** (alpha + e0)
                    expected = multiplicative_order(pow(10, d, modulus), modulus)
                    assert repetition_order(p, alpha, d) == expected, (p, alpha, d)

    def test_lifted_orders_every_prime_below_10_4(self):
        self.assert_lifted_orders(p for p in sympy.primerange(3, 10**4) if p != 5)

    def test_lifted_orders_random_large_primes(self):
        rng = random.Random(2210)
        primes = set()
        while len(primes) < 300:
            p = rng.randrange(10**6, 10**13)
            if sympy.isprime(p):
                primes.add(p)
        self.assert_lifted_orders(sorted(primes))

    @pytest.mark.parametrize(
        "p, orders",
        [
            (3, (3, 9, 27)),
            (487, (486, 486, 486 * 487)),
            (56598313, (56598312, 56598312, 56598312 * 56598313)),
        ],
    )
    def test_lifted_orders_wieferich_primes(self, p, orders):
        # base-10 Wieferich primes: p**2 divides 10**(p - 1) - 1, so e1 >= 2
        assert pow(10, p - 1, p * p) == 1
        self.assert_lifted_orders([p])
        assert tuple(repetition_order(p, alpha, 1) for alpha in (1, 2, 3)) == orders

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_properties_up_to_100(self, d):
        for p in [q for q in range(3, 101) if sympy.isprime(q) and q != 5]:
            h1 = repetition_order(p, 1, d)
            h2 = repetition_order(p, 2, d)
            assert h1 > 1 and h2 > 1
            assert h2 % h1 == 0
            # minimality: the power is 1 at h, not at h/q for any prime q | h
            for alpha, h in ((1, h1), (2, h2)):
                e0 = padic_order(10**d - 1, p)
                modulus = p ** (alpha + e0)
                assert pow(10, d * h, modulus) == 1
                for q in {f for f, _ in factorize(h)}:
                    assert pow(10, d * (h // q), modulus) != 1


class TestDivisors:
    def test_known(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(3542) == sorted(sympy.divisors(3542))


class TestBudgetDefault:
    BUDGETED = {
        "factorize",
        "factorization_sum",
        "is_v_palindrome",
        "multiplicative_order",
        "repetition_order",
        "crucial_primes",
        "constraint_table",
        "analyze",
        "brute_force_flag",
        "verify",
        "search_iter",
    }

    def test_every_budget_defaults_to_the_one_int(self):
        budgeted = {}
        for name, obj in vars(vpal).items():
            if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            param = inspect.signature(obj).parameters.get("budget")
            if param is not None:
                budgeted[name] = param.default
        assert set(budgeted) == self.BUDGETED
        assert all(default == vpal.DEFAULT_BUDGET for default in budgeted.values()), budgeted
