"""Output checks that do not trust the pipeline that produced the output.

`inspect` looks at one command's exit code and stdout and returns how many of
its work units failed, the facts later checks need, and a list of problems.
`across` compares commands of one repetition with each other.  A budget
failure (exit 3, or an UNVERIFIED verify row) is a failed unit, not a problem;
a wrong answer is a problem.
"""

from __future__ import annotations

import json
import math

EXIT_OK, EXIT_DISAGREEMENT, EXIT_BUDGET = 0, 1, 3
CROSS_CHECK_KS = range(1, 5)


def _lcm_of(indicator: list[dict]) -> int:
    return math.lcm(*(int(t["c"]) for t in indicator)) if indicator else 1


def _padic(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def inspect(command: dict, code: int, out: str) -> tuple[int, dict, list[str]]:
    check = command["check"]
    if code == EXIT_BUDGET:
        return command["items"], {}, []
    if code != EXIT_OK and not (check["kind"] == "verify" and code == EXIT_DISAGREEMENT):
        return command["items"], {}, [f"exit code {code}"]
    try:
        return INSPECTORS[check["kind"]](check, out)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return 0, {}, [f"unparseable output: {exc!r}"]


def _scan(check: dict, out: str):
    from workloads import ANOMALY_FIRST_HIT, ANOMALY_FIRST_TERMS, ANOMALY_FIRST_WITNESS, eligible

    problems = []
    hits = []
    for line in out.splitlines():
        hit = json.loads(line)
        n = int(hit["n"])
        terms = hit["indicator"]
        moduli = [int(t["c"]) for t in terms]
        omega0 = int(hit["omega0"])
        if hits and n <= hits[-1] or not 2 <= n <= check["until"] or not eligible(n):
            problems.append(f"hit {n} out of order, out of range or ineligible")
        if hit["property"] != check["prop"] or omega0 != _lcm_of(terms):
            problems.append(f"hit {n}: wrong property or omega0 != lcm of the moduli")
        prop = check["prop"]
        if prop == "conj1":
            ok = omega0 not in (1, int(hit["omega_f"]))
        elif prop == "omegab":
            ok = omega0 not in (1, int(hit["omega_b"]))
        else:
            a, b = (int(x) for x in hit["witness"])
            first = next((m for m in moduli if moduli[-1] % m), None)
            ok = b == moduli[-1] and a == first
        if not ok:
            problems.append(f"hit {n} does not have property {prop}")
        if n == ANOMALY_FIRST_HIT and prop == "anomaly":
            witness = tuple(int(x) for x in hit["witness"])
            if len(terms) != ANOMALY_FIRST_TERMS or witness != ANOMALY_FIRST_WITNESS:
                problems.append(f"hit {n}: indicator or witness differs from the paper")
        hits.append(n)
    if check["prop"] == "anomaly" and check["until"] >= ANOMALY_FIRST_HIT and ANOMALY_FIRST_HIT not in hits:
        problems.append(f"paper's first anomaly {ANOMALY_FIRST_HIT} missing")
    return 0, {"hits": hits}, problems


def _large(check: dict, out: str):
    from sympy import isprime
    from vpal.oracle import cross_check

    n = check["n"]
    rev = int(str(n)[::-1])
    report = json.loads(out)
    problems = []
    if (int(report["n"]), int(report["reverse"]), int(report["digits"])) != (n, rev, len(str(n))):
        problems.append("n, reverse or digit count wrong")
    for record in report["crucial_primes"]:
        p, e_n, e_r = int(record["p"]), int(record["exp_n"]), int(record["exp_reverse"])
        if not isprime(p) or (e_n, e_r) != (_padic(n, p), _padic(rev, p)) or e_n == e_r:
            problems.append(f"crucial prime record for {p} wrong")
    moduli = [int(t["c"]) for t in report["indicator"]]
    expected_order = str(moduli[0]) if moduli else "infinity"
    if int(report["omega0"]) != _lcm_of(report["indicator"]) or report["order"] != expected_order:
        problems.append("order or omega0 inconsistent with the indicator")
    if not all(cross_check(n, k) for k in CROSS_CHECK_KS):
        problems.append("cross_check failed")
    return 0, {}, problems


def _verify(check: dict, out: str):
    doc = json.loads(out)
    rows = {int(r["k"]): (r["predicted"], r["observed"], r["agrees"]) for r in doc["rows"]}
    problems = []
    if int(doc["n"]) != check["n"]:
        problems.append("wrong n")
    if any(agrees is False for _, _, agrees in rows.values()):
        problems.append("prediction disagrees with brute force")
    unverified = sum(1 for _, observed, _ in rows.values() if observed == "UNVERIFIED")
    facts = {"n": check["n"], "rows": {k: row[:2] for k, row in rows.items()}}
    return unverified, facts, problems


def _periods(check: dict, out: str):
    found = dict(line.split(" = ") for line in out.splitlines())
    periods = {int(found[key]) for key in ("support_period", "gcd_period", "naive_fundamental_period")}
    if periods != {check["period"]}:
        return 0, {}, [f"periods {sorted(periods)} differ from {check['period']}"]
    return 0, {}, []


def _of_indicator(check: dict, out: str):
    last = out.splitlines()[-1]
    if last != f"support_period = {check['period']}":
        return 0, {}, [f"{last!r} differs from omega0 = {check['period']}"]
    return 0, {}, []


INSPECTORS = {
    "scan": _scan,
    "large": _large,
    "verify": _verify,
    "periods": _periods,
    "of-indicator": _of_indicator,
}


def across(facts: list[dict]) -> list[str]:
    """Both verify modes must agree wherever both decided a row."""
    by_n: dict[int, list[dict]] = {}
    for fact in facts:
        if "rows" in fact:
            by_n.setdefault(fact["n"], []).append(fact["rows"])
    problems = []
    for n, tables in by_n.items():
        for k in set.intersection(*(set(t) for t in tables)):
            predicted = {t[k][0] for t in tables}
            observed = {t[k][1] for t in tables} - {"UNVERIFIED"}
            if len(predicted) > 1 or len(observed) > 1:
                problems.append(f"verify {n}: modes disagree at k = {k}")
    return problems
