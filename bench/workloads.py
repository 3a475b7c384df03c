"""Seeded command lists for the benchmark workloads.

A workload is the list of `vpal` argv vectors one repetition runs, in order,
in one fresh process.  Each generator is a pure function of the seed; the
program under test sees only the argv it produces.  Every command carries the
number of work units it stands for (`items`) and what the output checks need
to know about it (`check`).

`anchors=True` appends the fixed inputs named by the roadmap: the heaviest
known `analyze` input and those that expose the known defects (budget
exhaustion on a known factorization, hard repetition numbers).  They cost
seconds to tens of seconds each in one command, and the defect inputs fail
today, so they are kept out of the default, time-boxed runs and recorded in
the committed baseline instead.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("scan", "large", "verify", "spectral")

# scan: one `search` per repetition, bound drawn from a narrow band so that
# every seed does about the same amount of work (~1,700 analyses, about 0.6 s).
# The band is low enough for a run to hold dozens of repetitions, which the
# timing needs (see run.py).  Only `conj1` has hits below the band, so only it
# is drawn, and the hit checks and the JSON hit rendering always run; the
# first anomaly lies far above the band and is searched for by the anchors.
SCAN_PROPERTIES = ("conj1",)
SCAN_BAND = (2000, 2100)
# The paper's first divisibility anomaly and what its report must show.
ANOMALY_FIRST_HIT = 21726
ANOMALY_FIRST_TERMS = 12
ANOMALY_FIRST_WITNESS = (816, 2197734)

# large: eligible n of 12-15 digits.  The largest crucial prime p other than
# 2 and 5 sets the cost: the analysis factors p**2 by Brent's method, about
# sqrt(p) iterations.  Draws whose p reaches 10**9 are rejected: one input then
# costs from tens of milliseconds up to seconds (p near 10**13), and above
# about 4 * 10**14 it exhausts the factoring budget, so a few such draws would
# decide a run's figures.  Draws with more than LARGE_MAX_CRUCIAL crucial
# primes are rejected too: their solution count, and with it the report and
# peak memory, grows about threefold per prime.  Of uniform eligible draws,
# 63% are rejected for p and 5.5% for the count.  The rest are spread over
# the decades of p as uniform draws spread (measured on 4,000 accepted draws:
# 1.8% below 10**5, then 9.3%, 21.0%, 30.3% and 37.6% per decade), but with
# fixed counts per decade: with 110 plain uniform draws the share of the
# costly top decade alone moved `items_per_s` by about 10% between seeds.
# Even at fixed counts an input's cost varies a lot beyond what p predicts
# (rank correlation about 0.6), so with 110 inputs the median command still
# moved by 12% between seeds; 220 inputs halve that variance.
# The anchors cover a large prime and many crucial primes.
LARGE_DIGITS = (12, 15)
LARGE_MAX_CRUCIAL = 8
LARGE_STRATA = (  # (largest crucial prime below, inputs per repetition)
    (10**5, 4),
    (10**6, 20),
    (10**7, 46),
    (10**8, 66),
    (10**9, 84),
)
LARGE_ANCHORS = (
    1308276133167003,  # 12 crucial primes, 165 solutions, a 454 KB report
    300000000000093,  # 15-digit crucial prime: budget exhausted
)

# verify: accelerated mode on 2- and 3-digit n, direct mode on the 3-digit
# ones as well.  Accelerated rows stop at k = 18: k = 19 exhausts the
# factoring budget at widths 2 and 3, and k = 23 does at width 3 and takes
# about 12 s at width 2.  The anchors run the paper's k = 25.  Direct rows cost several times accelerated ones, so direct mode
# on every n would put the median command on the boundary between the two.
VERIFY_COUNTS = ((2, 24), (3, 24))  # (digit width, n per repetition)
VERIFY_DIRECT_WIDTH = 3
VERIFY_KMAX_ACCELERATED = 18
VERIFY_KMAX_DIRECT = 12
VERIFY_ANCHORS = ((48, 25), (103, 25))  # accelerated, to the paper's k

# spectral: fixed window sizes, seeded contents.  The transforms cost O(w**2),
# so fixing the sizes keeps the work per repetition equal across seeds, and
# keeping them small leaves room for dozens of repetitions in a run (one
# repetition costs about 0.5 s; a window of 1000 alone costs about 2.6 s, one
# of 2000 about 11.6 s).  The sizes are multiples of 42, which the periods 14
# and 21 of the smallest indicators divide, and indicator windows stay within
# 2% of them: with 5%, the median command moved by 10% between seeds.  The
# unit is one `periods` window; `of-indicator` commands are timed but count no
# items.
SPECTRAL_TARGETS = (84, 126, 168, 210, 252)
SPECTRAL_TOLERANCE = 50  # an indicator window may differ from its size by 1/50
SPECTRAL_VALUES = (-4, 4)

#: Canonical indicator combinations (modulus, coefficient) of small n with
#: fundamental period at most 1500, as computed by `vpal analyze`.
INDICATORS = (
    (405, ((2, 1), (14, -1))),
    (48, ((3, 1), (21, -1))),
    (2376, ((4, 1), (68, -1))),
    (243, ((114, 1),)),
    (1107, ((171, 1),)),
    (1656, ((253, 1),)),
    (216, ((16, 1), (272, -1))),
    (56, ((3, 1), (21, -1), (39, -1), (273, 2))),
    (2925, ((39, 1), (273, -1))),
    (1617, ((465, 1),)),
    (2156, ((111, 1), (777, -1))),
    (2916, ((21, 1), (903, -1))),
)


def eligible(n: int) -> bool:
    """n can be analysed: not a multiple of 10 and not a palindrome."""
    return n % 10 != 0 and str(n) != str(n)[::-1]


def _command(argv: list[str], items: int, **check) -> dict:
    return {"argv": argv, "items": items, "check": check}


def scan(seed: int, anchors: bool = False) -> list[dict]:
    rng = random.Random(f"scan:{seed}")
    prop = rng.choice(SCAN_PROPERTIES)
    until = rng.randint(*SCAN_BAND)
    commands = [search_command(prop, until)]
    if anchors:
        commands.append(search_command("anomaly", ANOMALY_FIRST_HIT))
    return commands


def search_command(prop: str, until: int) -> dict:
    items = sum(1 for n in range(2, until + 1) if eligible(n))
    argv = ["--format", "json", "search", prop, "--until", str(until)]
    return _command(argv, items, kind="scan", prop=prop, until=until)


def crucial_primes(n: int) -> list[int]:
    """Primes whose exponents differ between n and its digit reversal."""
    from sympy import factorint

    fn = factorint(n)
    fr = factorint(int(str(n)[::-1]))
    return sorted(p for p in set(fn) | set(fr) if fn.get(p, 0) != fr.get(p, 0))


def large(seed: int, anchors: bool = False) -> list[dict]:
    rng = random.Random(f"large:{seed}")
    wanted = [count for _, count in LARGE_STRATA]
    drawn: list[int] = []
    while any(wanted):
        d = rng.randint(*LARGE_DIGITS)
        n = rng.randrange(10 ** (d - 1), 10**d)
        if not eligible(n) or n in drawn:
            continue
        crucial = crucial_primes(n)
        if len(crucial) > LARGE_MAX_CRUCIAL:
            continue
        top = max((p for p in crucial if p not in (2, 5)), default=1)
        for i, (bound, _) in enumerate(LARGE_STRATA):
            if top < bound:
                if wanted[i]:
                    wanted[i] -= 1
                    drawn.append(n)
                break
    rng.shuffle(drawn)
    ns = drawn + (list(LARGE_ANCHORS) if anchors else [])
    return [_command(["analyze", str(n), "--json"], 1, kind="large", n=n) for n in ns]


def verify(seed: int, anchors: bool = False) -> list[dict]:
    rng = random.Random(f"verify:{seed}")
    ns: list[int] = []
    for width, count in VERIFY_COUNTS:
        pool = [n for n in range(10 ** (width - 1), 10**width) if eligible(n)]
        ns += rng.sample(pool, count)
    rng.shuffle(ns)
    runs = [(n, VERIFY_KMAX_ACCELERATED, True) for n in ns]
    runs += [(n, VERIFY_KMAX_DIRECT, False) for n in ns if len(str(n)) == VERIFY_DIRECT_WIDTH]
    if anchors:
        runs += [(n, kmax, True) for n, kmax in VERIFY_ANCHORS]
    return [_verify(n, kmax, accelerated) for n, kmax, accelerated in runs]


def _verify(n: int, kmax: int, accelerated: bool) -> dict:
    argv = ["--format", "json", "verify", str(n), "--kmax", str(kmax)]
    if accelerated:
        argv.append("--accelerated")
    return _command(argv, kmax, kind="verify", n=n, accelerated=accelerated)


def fundamental_period(values: list[int]) -> int:
    """Smallest t dividing len(values) with values[x + t] == values[x]."""
    w = len(values)
    for t in range(1, w + 1):
        if w % t == 0 and values[t:] == values[:-t]:
            return t
    return w


def spectral(seed: int, anchors: bool = False) -> list[dict]:
    rng = random.Random(f"spectral:{seed}")
    commands = []
    for target in SPECTRAL_TARGETS:
        # an indicator window: whole periods of a real indicator, close to the size
        fitting = [
            row for row in INDICATORS
            if abs(_window(row[1], target) - target) * SPECTRAL_TOLERANCE <= target
        ]
        n, terms = rng.choice(fitting)
        omega0 = _lcm(terms)
        w = _window(terms, target)
        values = [sum(c for m, c in terms if x % m == 0) for x in range(w)]
        commands.append(_periods(values, omega0))
        commands.append(
            _command(["spectrum", "of-indicator", str(n)], 0, kind="of-indicator", period=omega0)
        )
        # a random window: a primitive block repeated a few times
        repeats = rng.randint(1, 4)
        block_len = round(target / repeats)
        while True:
            block = [rng.randint(*SPECTRAL_VALUES) for _ in range(block_len)]
            if fundamental_period(block) == block_len:
                break
        commands.append(_periods(block * repeats, block_len))
    return commands


def _lcm(terms) -> int:
    return math.lcm(*(m for m, _ in terms))


def _window(terms, target: int) -> int:
    """The whole number of periods of the combination closest to target."""
    omega0 = _lcm(terms)
    return omega0 * max(1, round(target / omega0))


def _periods(values: list[int], period: int) -> dict:
    samples = ",".join(str(v) for v in values)
    # "=" keeps a leading minus sign from reading as an option
    return _command(["spectrum", "periods", f"--samples={samples}"], 1, kind="periods", period=period)


GENERATORS = {"scan": scan, "large": large, "verify": verify, "spectral": spectral}


def commands(workload: str, seed: int, anchors: bool = False) -> list[dict]:
    """The argv list one repetition of `workload` runs for this seed."""
    return GENERATORS[workload](seed, anchors)
