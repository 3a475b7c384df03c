"""Command-line front end: analysis reports, oracle verification, reference
tables, counterexample searches, and spectrum utilities.

Exit codes: 0 success, 1 verification disagreement or disagreeing spectrum
periods, 2 invalid input, 3 budget exhaustion: a number the command needs
cannot be factored within the budget, with or without --strict.  --strict
governs only verify's UNVERIFIED rows, which then exit 3 as well.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from .characteristic import least_member
from .errors import BudgetExceeded, InvalidInput
from .indicator import AnalysisReport, analyze
from .numbers import DEFAULT_BUDGET
from .oracle import (
    SearchProperty,
    anomaly_witness,
    search_iter,
    verify,
)
from .spectrum import (
    PeriodicSamples,
    gcd_period,
    indicator_spectrum,
    naive_fundamental_period,
    net_coefficients,
    samples_to_spectrum,
    support_period,
)

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

#: The 18 table rows shipped as the "paper" preset.
PRESET_PAPER = (13, 17, 18, 19, 26, 37, 39, 48, 49, 56, 79, 103, 107, 109, 113, 117, 119, 122)

#: Footnotes attached to preset rows whose published values are inconsistent.
PRESET_NOTES = {
    117: "the source table prints omega0 = 2045, inconsistent with its own "
    "combination I_2054, whose fundamental period is 2054",
}


def _array(items, newline: str, brackets: str = "[]") -> str:
    """JSON array of rendered items, or object of rendered "key": value
    items with brackets "{}"; the items sit one indent deeper than newline,
    the line break and indent in front of the closing bracket."""
    if not items:
        return brackets
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _object(fields: dict[str, str], newline: str) -> str:
    """JSON object of rendered values under keys that need no escaping."""
    return _array([f'"{key}": {value}' for key, value in fields.items()], newline, "{}")


def _strings(values, newline: str) -> str:
    """JSON array of integers or case labels as strings, which need no escaping."""
    return _array([f'"{v}"' for v in values], newline)


def _fmt_set(values) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


def _columns(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def report_json(report: AnalysisReport, newline: str = "\n") -> str:
    """The report as indented JSON, every integer a decimal string; newline
    is the line break and indent in front of its closing brace.

    Each of the report's constraint tables is rendered once: for every weight
    u, the string "u", its case and its pair object.  A solution joins its
    weights' fragments and takes its moduli and degeneracy from least_member
    on its weights' pairs, so the report never assembles its constraints.
    """
    i1, i2, i3, i4, i5 = (newline + "  " * k for k in range(1, 6))
    fragments = []  # per crucial prime, weight u -> "u", case, pair object, ConstraintPair
    for r, table in zip(report.records, report.tables):
        fragments.append({})
        for u, (case, pair) in table.items():
            required, excluded = _strings(sorted(pair.required), i5), _strings(sorted(pair.excluded), i5)
            pair_json = _object({"p": f'"{r.p}"', "required": required, "excluded": excluded}, i4)
            fragments[-1][u] = (f'"{u}"', f'"{case.value}"', pair_json, pair)
    solutions = []
    for solution in report.solutions:
        values, cases, pair_objects, pairs = zip(*[table[u] for table, u in zip(fragments, solution)])
        required, excluded, base = least_member(pairs)
        solutions.append(_object({
            "values": _array(values, i3),
            "cases": _array(cases, i3),
            "pairs": _array(pair_objects, i3),
            "required": _strings(sorted(required), i3),
            "excluded": _strings(sorted(excluded), i3),
            "degenerate": "true" if base is None else "false",
        }, i2))
    keys = ("p", "exp_n", "exp_reverse", "delta", "mu")
    records = [_object({k: f'"{getattr(r, k)}"' for k in keys}, i2) for r in report.records]
    terms = [_object({"c": f'"{m}"', "lambda": f'"{c}"'}, i2) for m, c in report.combination.terms]
    return _object({
        "n": f'"{report.n}"',
        "reverse": f'"{report.reverse}"',
        "digits": f'"{report.digits}"',
        "crucial_primes": _array(records, i1),
        "solutions": _array(solutions, i1),
        "indicator": _array(terms, i1),
        "order": f'"{report.order}"',
        "omega0": f'"{report.omega0}"',
        "omega_f": f'"{report.omega_f}"',
        "omega_b": f'"{report.omega_b}"',
    }, newline)


def table_json(reports: list[AnalysisReport]) -> str:
    """The JSON document `table --format json` prints: the list of reports."""
    return _array([report_json(r, "\n  ") for r in reports], "\n")


def render_report(report: AnalysisReport) -> str:
    """Human-readable walkthrough: crucial primes, solutions, case and
    constraint tables, then the final quantities."""
    lines = []
    lines.append(f"n = {report.n} = {report.n_factorization}")
    lines.append(f"reverse = {report.reverse} = {report.reverse_factorization}")
    lines.append(f"digits = {report.digits}")
    lines.append("")
    lines.append("crucial primes:")
    rows = [["", "p", "exp_n", "exp_rev", "delta", "mu"]]
    for i, r in enumerate(report.records, 1):
        rows.append([f"{i}", str(r.p), str(r.exp_n), str(r.exp_reverse), str(r.delta), str(r.mu)])
    lines.append(_columns(rows))
    lines.append("")
    n_sol = len(report.constraints)
    lines.append(f"characteristic solutions: {n_sol}")
    for i, cons in enumerate(report.constraints, 1):
        tag = "degenerate" if cons.degenerate else "nondegenerate"
        lines.append(f"  u{i} = ({', '.join(str(v) for v in cons.solution)})  {tag}")
    if n_sol:
        header = ["p"] + [f"u{i}" for i in range(1, n_sol + 1)]
        case_rows, pair_rows = [header], [header]
        for j, (r, table) in enumerate(zip(report.records, report.tables)):
            # each table entry's case cell and pair cell, rendered once per report
            cells = {
                u: (str(case), f"({_fmt_set(pair.required)},{_fmt_set(pair.excluded)})")
                for u, (case, pair) in table.items()
            }
            row = [cells[solution[j]] for solution in report.solutions]
            case_rows.append([str(r.p)] + [case for case, _ in row])
            pair_rows.append([str(r.p)] + [pair for _, pair in row])
        a_row = ["A"] + [_fmt_set(c.required) for c in report.constraints]
        b_row = ["B"] + [_fmt_set(c.excluded) for c in report.constraints]
        s_row = ["S"] + [
            "-" if c.degenerate else f"S({a},{b})" for c, a, b in zip(report.constraints, a_row[1:], b_row[1:])
        ]
        pair_rows += [a_row, b_row, s_row]
        lines += ["", "case table:", _columns(case_rows), "", "constraint table:", _columns(pair_rows)]
    lines.append("")
    lines.append(f"I = {report.combination}")
    lines.append(f"c(n) = {report.order}")
    lines.append(f"omega0 = {report.omega0}")
    lines.append(f"omega_f = {report.omega_f}")
    lines.append(f"omega_b = {report.omega_b}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    report = analyze(args.n, args.budget)
    if args.format == "json":
        print(report_json(report))
    else:
        print(render_report(report))
    return EXIT_OK


def cmd_verify(args) -> int:
    rows = verify(args.n, args.kmax, args.budget, accelerated=args.accelerated)
    disagreements = sum(1 for r in rows if r.agrees is False)
    unverified = sum(1 for r in rows if r.agrees is None)
    header = ["k", "predicted", "observed", "agrees"]
    grid = [
        [str(r.k), str(r.predicted), str(r.observed), "SKIPPED" if r.agrees is None else str(r.agrees)]
        for r in rows
    ]
    if args.format == "json":
        literals = {"True": "true", "False": "false"}  # every other cell is a string needing no escaping
        payload = [_object({h: literals.get(c, f'"{c}"') for h, c in zip(header, row)}, "\n    ") for row in grid]
        print(_object({"n": f'"{args.n}"', "rows": _array(payload, "\n  ")}, "\n"))
    elif args.format == "csv":
        csv.writer(sys.stdout).writerows([header] + grid)
    else:
        print(_columns([header] + grid))
        print(f"summary: {len(rows)} rows, {disagreements} disagreements, {unverified} unverified")
    if disagreements:
        return EXIT_DISAGREEMENT
    if args.strict and unverified:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_table(args) -> int:
    if args.preset and args.numbers:
        raise InvalidInput("pass either N... or --preset paper, not both")
    ns = PRESET_PAPER if args.preset == "paper" else tuple(args.numbers)
    if not ns:
        raise InvalidInput("no numbers given; pass N... or --preset paper")
    reports = [analyze(n, args.budget) for n in ns]
    notes = PRESET_NOTES if args.preset == "paper" else {}
    if args.format == "json":
        print(table_json(reports))
        return EXIT_OK
    grid = [["n", "I", "c", "omega0"]]
    grid += [[str(r.n), str(r.combination), str(r.order), str(r.omega0)] for r in reports]
    if args.format == "csv":
        csv.writer(sys.stdout).writerows(grid)
        return EXIT_OK
    marks = [""] + ["[*]" if r.n in notes else "" for r in reports]
    print(_columns([row + [mark] for row, mark in zip(grid, marks)]))
    for n, note in sorted(notes.items()):
        if any(r.n == n for r in reports):
            print(f"[*] n={n}: {note}")
    return EXIT_OK


def cmd_search(args) -> int:
    prop = SearchProperty(args.property)
    scan = search_iter(args.until, prop, args.workers, args.budget, range_start=args.start)
    for report in scan:
        witness = anomaly_witness(report.combination) if prop is SearchProperty.DIVISIBILITY_ANOMALY else None
        if args.format == "json":
            payload = {
                "n": str(report.n),
                "property": prop.value,
                "omega0": str(report.omega0),
                "omega_f": str(report.omega_f),
                "omega_b": str(report.omega_b),
                "indicator": [
                    {"c": str(m), "lambda": str(c)} for m, c in report.combination.terms
                ],
            }
            if witness is not None:
                payload["witness"] = [str(witness[0]), str(witness[1])]
            print(json.dumps(payload), flush=True)
        else:
            detail = (
                f"n={report.n}  I = {report.combination}  omega0={report.omega0}  "
                f"omega_f={report.omega_f}  omega_b={report.omega_b}"
            )
            if witness is not None:
                detail += f"  witness: {witness[0]} does not divide {witness[1]}"
            print(detail, flush=True)
    return EXIT_OK


def _parse_samples(text: str) -> PeriodicSamples:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise InvalidInput(f"malformed sample list: {text!r}")
        try:
            value = int(token)
        except ValueError:
            try:
                value = complex(token)
            except ValueError:
                raise InvalidInput(f"cannot parse sample {token!r}") from None
        values.append(value)
    return PeriodicSamples(tuple(values))


def cmd_spectrum_periods(args) -> int:
    samples = _parse_samples(args.samples)
    periods = {
        "support_period": support_period(samples_to_spectrum(samples)),
        "gcd_period": gcd_period(samples),
        "naive_fundamental_period": naive_fundamental_period(samples),
    }
    lines = [f"{name} = {period}" for name, period in periods.items()]
    print(f"window = {samples.period}")
    print("\n".join(lines))
    if len(set(periods.values())) > 1:
        print(f"error: the periods disagree: {', '.join(lines)}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_spectrum_indicator(args) -> int:
    g = indicator_spectrum(args.a)
    print(f"spectrum of the divisibility-by-{args.a} indicator: {len(g)} roots")
    for x, coeff in g.items():
        print(f"  e({x.numerator}/{x.denominator}): {coeff}")
    print(f"support_period = {support_period(g)}")
    return EXIT_OK


def cmd_spectrum_of_indicator(args) -> int:
    report = analyze(args.n, args.budget)
    nets = net_coefficients(report.combination)
    print(f"I = {report.combination}")
    print(f"active orders ({len(nets)}): {', '.join(str(d) for d in nets)}")
    for den, net in nets.items():
        print(f"  order {den}: net {net}")
    print(f"support_period = {math.lcm(*nets)}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


class _Command:
    """A command's parser, built only when argparse dispatches to it, so each
    command builds only the parser it runs.  It keeps the keywords of `add_parser`
    and the function that adds the command's arguments; help comes from the action."""

    def __init__(self, configure, **kwargs):
        self._configure, self._kwargs = configure, kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self._kwargs)
        self._configure(parser)
        return parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The `vpal` parser: each command builds only the parser it runs (`_Command`)."""
    parser = argparse.ArgumentParser(
        prog="vpal",
        description="Decide which repeated digit concatenations of a number "
        "keep their factorization sum under digit reversal.",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="Brent iteration cap per factorization, at least 10000 (default %(default)s)",
    )
    parser.add_argument(
        "--format",
        choices=("pretty", "json", "csv"),
        default="pretty",
        help="output format",
    )
    add = parser.add_subparsers(dest="command", required=True, parser_class=_Command).add_parser

    def analyze_args(p):
        p.set_defaults(handler=cmd_analyze, formats=("pretty", "json"))
        p.add_argument("n", type=int)
        p.add_argument(
            "--json",
            action="store_const",
            dest="format",
            const="json",
            default=argparse.SUPPRESS,
            help="shorthand for --format json",
        )

    def verify_args(p):
        p.set_defaults(handler=cmd_verify, formats=("pretty", "json", "csv"))
        p.add_argument("n", type=int)
        p.add_argument("--kmax", type=int, required=True)
        p.add_argument("--strict", action="store_true", help="exit 3 when any row is UNVERIFIED")
        p.add_argument(
            "--accelerated",
            action="store_true",
            help="factor only n and its reversal; read the repetition number at their primes",
        )

    def table_args(p):
        p.set_defaults(handler=cmd_table, formats=("pretty", "json", "csv"))
        p.add_argument("numbers", type=int, nargs="*")
        p.add_argument("--preset", choices=("paper",), help="use the built-in 18-row list")

    def search_args(p):
        p.set_defaults(handler=cmd_search, formats=("pretty", "json"))
        p.add_argument("property", choices=[sp.value for sp in SearchProperty])
        p.add_argument(
            "--from", dest="start", metavar="FROM", type=int, default=2, help="least n to scan (default 2)"
        )
        p.add_argument("--until", type=int, required=True)
        p.add_argument("--workers", type=_positive_int, default=1)

    def spectrum_args(p):
        p.set_defaults(formats=("pretty",))
        sub = p.add_subparsers(dest="spectrum_command", required=True, parser_class=_Command).add_parser
        sub("periods", configure=periods_args, help="three period computations for a sample window")
        sub("indicator", configure=indicator_args, help="spectrum of a single divisibility indicator")
        sub("of-indicator", configure=of_indicator_args, help="spectral view of a number's indicator")

    def periods_args(p):
        p.set_defaults(handler=cmd_spectrum_periods)
        p.add_argument("--samples", required=True, help="comma-separated values, e.g. 1,0,1,0")

    def indicator_args(p):
        p.set_defaults(handler=cmd_spectrum_indicator)
        p.add_argument("a", type=int)

    def of_indicator_args(p):
        p.set_defaults(handler=cmd_spectrum_of_indicator)
        p.add_argument("n", type=int)

    add("analyze", configure=analyze_args, help="full analysis report for one number")
    add("verify", configure=verify_args, help="compare predictions against brute force")
    add("table", configure=table_args, help="indicator/order/period table for several numbers")
    add("search", configure=search_args, help="scan for counterexample properties")
    add("spectrum", configure=spectrum_args, help="root-of-unity spectrum utilities")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format not in args.formats:
        parser.error(f"argument --format: {args.command} prints {' or '.join(args.formats)}")
    if args.budget < 10_000:
        print("error: factor budget must be at least 10000", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.handler(args)
    except (InvalidInput, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: stop quietly, with
        # stdout on devnull so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    run()
