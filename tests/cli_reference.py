"""The eager `vpal` parser, for tests: the reference that `vpal.cli.build_parser`
must act like.  It builds every command's parser up front, as the library
once did; `vpal.cli` builds a command's parser only when argparse dispatches
to it.  Help, usage errors, exit codes and parsed namespaces must be the same
from both."""

import argparse

from vpal.cli import (
    _positive_int,
    cmd_analyze,
    cmd_search,
    cmd_spectrum_indicator,
    cmd_spectrum_of_indicator,
    cmd_spectrum_periods,
    cmd_table,
    cmd_verify,
)
from vpal.numbers import DEFAULT_BUDGET
from vpal.oracle import SearchProperty


def build_parser() -> argparse.ArgumentParser:
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis report for one number")
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

    p = sub.add_parser("verify", help="compare predictions against brute force")
    p.set_defaults(handler=cmd_verify, formats=("pretty", "json", "csv"))
    p.add_argument("n", type=int)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--strict", action="store_true", help="exit 3 when any row is UNVERIFIED")
    p.add_argument(
        "--accelerated",
        action="store_true",
        help="factor only n and its reversal; read the repetition number at their primes",
    )

    p = sub.add_parser("table", help="indicator/order/period table for several numbers")
    p.set_defaults(handler=cmd_table, formats=("pretty", "json", "csv"))
    p.add_argument("numbers", type=int, nargs="*")
    p.add_argument("--preset", choices=("paper",), help="use the built-in 18-row list")

    p = sub.add_parser("search", help="scan for counterexample properties")
    p.set_defaults(handler=cmd_search, formats=("pretty", "json"))
    p.add_argument("property", choices=[sp.value for sp in SearchProperty])
    p.add_argument(
        "--from", dest="start", metavar="FROM", type=int, default=2, help="least n to scan (default 2)"
    )
    p.add_argument("--until", type=int, required=True)
    p.add_argument("--workers", type=_positive_int, default=1)

    p = sub.add_parser("spectrum", help="root-of-unity spectrum utilities")
    p.set_defaults(formats=("pretty",))
    spectrum_sub = p.add_subparsers(dest="spectrum_command", required=True)
    q = spectrum_sub.add_parser("periods", help="three period computations for a sample window")
    q.set_defaults(handler=cmd_spectrum_periods)
    q.add_argument("--samples", required=True, help="comma-separated values, e.g. 1,0,1,0")
    q = spectrum_sub.add_parser("indicator", help="spectrum of a single divisibility indicator")
    q.set_defaults(handler=cmd_spectrum_indicator)
    q.add_argument("a", type=int)
    q = spectrum_sub.add_parser("of-indicator", help="spectral view of a number's indicator")
    q.set_defaults(handler=cmd_spectrum_of_indicator)
    q.add_argument("n", type=int)

    return parser

