"""Command-line behaviour: rendering, formats, exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import cli_reference
import pytest
from report_reference import to_json_dict

from vpal import analyze, characteristic, cli, indicator, reverse_digits
from vpal.cli import (
    EXIT_BUDGET,
    EXIT_DISAGREEMENT,
    EXIT_INVALID,
    EXIT_OK,
    main,
    render_report,
    report_json,
    table_json,
)
from vpal.indicator import _pipeline


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports vpal from this checkout."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], env=env, timeout=120, **kwargs)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: sha256 of the stdout of the 165-solution walkthrough and of the paper's
#: table, recorded with the library at commit 9431f68, and of verify's three
#: formats, the CSV tables and the first anomaly's witness line, recorded at
#: commit fbd5d83
PRETTY_SHA256 = {
    ("analyze", "1308276133167003"): "f3595f2cfdaa960fbf49775ed99f37ee6266ea2722b89c6d0d362b004cdb510c",
    ("table", "--preset", "paper"): "9644eedf88e68d4595e1a26f5e7f5d850e71ba4271c7c3a29787c78ac5a19be0",
    # direct mode with UNVERIFIED observations and SKIPPED agreements
    ("--budget", "10000", "verify", "48", "--kmax", "22"):
        "c12d54835846d4738bc76f89ed82c95339bba813366275e1f85ad9dffe2b7f60",
    ("--budget", "10000", "--format", "csv", "verify", "48", "--kmax", "22"):
        "7d330c75a1d9f4a0fedd967f1692fb70a6caa946343e73a08a49652e922c1f3b",
    ("--budget", "10000", "--format", "json", "verify", "48", "--kmax", "22"):
        "daf419e8c2cd4daf76617d67a8c4488e77ad1d221c0395da70d152f615c74310",
    ("--format", "csv", "table", "--preset", "paper"): "a75c21664fd80ef5431701b3cdea99f02d429e92f254b05b926a081efec60400",
    ("--format", "csv", "table", "48", "56", "122"): "aaa9d5e082820b66693b4b24479777b0bbebcc0b25aebdad7dcb2a3365eec1e5",
    ("search", "anomaly", "--until", "22000"): "e2dbcd7b88355f3e6618f0e4b999b16f919d51e564627799b580ab48cf30c0af",
}


#: argv that argparse or main's format check rejects, each with a fragment of
#: its one error line
ARGPARSE_REJECTS = {
    "workers-0": (("search", "conj1", "--until", "20", "--workers", "0"), "--workers"),
    "format-xml": (("--format", "xml", "analyze", "12"), "'pretty', 'json', 'csv'"),
    # a format the command does not print is refused, not ignored
    "csv-analyze": (("--format", "csv", "analyze", "126"), "analyze prints pretty or json"),
    "csv-search": (("--format", "csv", "search", "conj1", "--until", "200"), "search prints pretty or json"),
    "json-spectrum-periods": (
        ("--format", "json", "spectrum", "periods", "--samples", "1,0"), "spectrum prints pretty"
    ),
    "csv-spectrum-periods": (
        ("--format", "csv", "spectrum", "periods", "--samples", "1,0"), "spectrum prints pretty"
    ),
    "json-spectrum-indicator": (
        ("--format", "json", "spectrum", "indicator", "6"), "spectrum prints pretty"
    ),
    "csv-spectrum-indicator": (
        ("--format", "csv", "spectrum", "indicator", "6"), "spectrum prints pretty"
    ),
    "json-spectrum-of-indicator": (
        ("--format", "json", "spectrum", "of-indicator", "126"), "spectrum prints pretty"
    ),
    "csv-spectrum-of-indicator": (
        ("--format", "csv", "spectrum", "of-indicator", "126"), "spectrum prints pretty"
    ),
}


class TestAnalyze:
    @pytest.mark.parametrize(
        "argv",
        list(PRETTY_SHA256),
        ids=[
            "analyze-anchor",
            "table-preset",
            "verify-unverified",
            "verify-unverified-csv",
            "verify-unverified-json",
            "table-preset-csv",
            "table-csv",
            "search-anomaly-witness",
        ],
    )
    def test_pretty_output_pinned(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == PRETTY_SHA256[argv]

    def test_pretty_126(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "126")
        assert code == EXIT_OK
        for line in (
            "I = I_154 - I_3542",
            "c(n) = 154",
            "omega0 = 3542",
            "omega_f = 31878",
        ):
            assert line in out
        # constraint table carries the lone surviving solution
        assert "S({14,22},{506})" in out
        assert "u4 = (2, 1, 1, 2)  nondegenerate" in out

    def test_pretty_12(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "12")
        assert code == EXIT_OK
        assert "c(n) = infinity" in out
        assert "omega0 = 1" in out

    def test_palindrome_rejected(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "121")
        assert code == EXIT_INVALID
        assert "palindrome" in err

    def test_unfactorable_n_exits_3_without_strict(self, capsys):
        # 3 * 10^54 + 1 keeps a 49-digit cofactor that 10^4 iterations cannot split
        n = str(3 * 10**54 + 1)
        code, out, err = run_cli(capsys, "--budget", "10000", "analyze", n)
        assert code == EXIT_BUDGET
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_multiple_of_ten_rejected(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "560")
        assert code == EXIT_INVALID
        assert "multiple of 10" in err

    def test_json_round_trips_byte_identical(self, capsys):
        # the stdlib's indented dump is the reference the writer must match
        outputs = []
        for argv in (
            ["analyze", "126", "--json"],
            ["--budget", "10000", "--format", "json", "verify", "48", "--kmax", "25"],
            ["--format", "json", "table", "--preset", "paper"],
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == EXIT_OK
            assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n", argv
            outputs.append(out)
        # at this budget verify renders every scalar kind: markers and bools
        for marker in ('"UNVERIFIED"', '"SKIPPED"', "true"):
            assert marker in outputs[1]

    def test_json_fifteen_digit_crucial_prime(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "300000000000093", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["n"] == "300000000000093"

    def test_json_values(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "107", "--json")
        doc = json.loads(out)
        assert doc["omega0"] == "2782759700"  # would overflow naive 32-bit handling
        assert doc["indicator"][0] == {"c": "37100", "lambda": "1"}


def indented_dump(obj) -> str:
    """The stdlib's indented JSON, the reference every direct writer matches."""
    return json.dumps(obj, indent=2, ensure_ascii=False)


def assert_matches_reference(report):
    """report_json against the nested dict of the assembled constraints."""
    text = report_json(report)
    reference = to_json_dict(report)
    assert text == indented_dump(reference), report.n
    assert json.loads(text) == reference, report.n


def _eligible(n):
    return n % 10 != 0 and reverse_digits(n) != n


class TestReportJson:
    """The report writer renders each crucial prime's constraint table once;
    its output must equal the reference serialization byte for byte."""

    def test_every_eligible_n_to_2100(self):
        reports = [analyze(n) for n in range(1, 2101) if _eligible(n)]
        for report in reports:
            assert_matches_reference(report)
        # the "solutions": [] and "indicator": [] layouts are among them
        assert sum(not r.solutions for r in reports) == 476
        assert sum(not r.combination.terms for r in reports) == 998

    def test_reversal_analysed_warm_right_after_n(self):
        checked = 0
        for n in range(12, 3000, 23):
            rev = reverse_digits(n)
            if not (_eligible(n) and _eligible(rev)):
                continue
            _pipeline.cache_clear()
            analyze(n)
            assert_matches_reference(analyze(rev))
            checked += 1
        assert checked == 112

    def test_anchor(self, capsys):
        report = analyze(1308276133167003)
        assert len(report.solutions) > 100
        assert_matches_reference(report)
        code, out, _ = run_cli(capsys, "analyze", "1308276133167003", "--json")
        assert code == EXIT_OK
        assert hashlib.md5(out.encode()).hexdigest() == "9b22caaa5dd11af6cf279973caa6500e"

    def test_json_path_never_assembles(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("called")

        monkeypatch.setattr(indicator, "assemble_constraints", refuse)
        for argv in (["analyze", "126", "--json"], ["--format", "json", "table", "45", "107"]):
            assert run_cli(capsys, *argv)[0] == EXIT_OK
        # an unsolvable equation needs no constraint table
        monkeypatch.setattr(indicator, "constraint_table", refuse)
        _pipeline.cache_clear()
        code, out, _ = run_cli(capsys, "analyze", "16", "--json")
        assert code == EXIT_OK
        assert '"solutions": []' in out

    def test_table_nests_reports_one_indent_deeper(self, capsys):
        # 16 has no solutions, 12 only a degenerate one, 45 shares pair objects
        ns = ["16", "12", "45", "126", "107"]
        reports = [analyze(int(n)) for n in ns]
        reference = [to_json_dict(r) for r in reports]
        assert table_json(reports) == indented_dump(reference)
        code, out, _ = run_cli(capsys, "--format", "json", "table", *ns)
        assert code == EXIT_OK
        assert out == table_json(reports) + "\n"
        assert json.loads(out) == reference


class TestTableReads:
    """A report carries its constraint tables: each crucial prime's table is
    built once, in constraint_table's memo, and the walkthrough, the JSON
    writers and the assembled constraints all index the report's tables."""

    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        core = characteristic._constraint_table

        def counted(*args):
            calls.append(args)
            return core(*args)

        monkeypatch.setattr(characteristic, "_constraint_table", counted)
        _pipeline.cache_clear()
        return calls

    # 12 has one degenerate solution, 45 shares pair objects between primes
    @pytest.mark.parametrize("n", [126, 12, 45, 1308276133167003])
    def test_one_read_per_crucial_prime(self, n):
        # the pipeline and the report both read the tables from the memo, so
        # each crucial prime's table is built once
        _pipeline.cache_clear()
        characteristic._constraint_table.cache_clear()
        report = analyze(n)
        render_report(report)
        report_json(report)
        table_json([report])
        assert report.constraints
        assert characteristic._constraint_table.cache_info().misses == len(report.records)

    def test_unsolvable_reads_none(self, reads, capsys):
        for argv in (["analyze", "16"], ["analyze", "16", "--json"]):
            _pipeline.cache_clear()
            code, out, _ = run_cli(capsys, *argv)
            assert code == EXIT_OK
        assert reads == []

    def test_reports_stay_hashable(self):
        report = analyze(126)
        report.constraints
        assert hash(report) == hash(analyze(126))
        assert report == analyze(126)


class TestVerify:
    def test_ok(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "13", "--kmax", "16")
        assert code == EXIT_OK
        assert "0 disagreements" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "verify", "18", "--kmax", "3")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "k,predicted,observed,agrees"
        assert lines[1] == "1,True,True,True"

    def test_strict_budget_exit(self, capsys):
        code, out, _ = run_cli(capsys, "--budget", "10000", "verify", "48", "--kmax", "22", "--strict")
        assert code == EXIT_BUDGET
        assert "UNVERIFIED" in out

    def test_unverified_rows_exit_0_without_strict(self, capsys):
        code, out, _ = run_cli(capsys, "--budget", "10000", "verify", "48", "--kmax", "22")
        assert code == EXIT_OK
        assert "UNVERIFIED" in out

    def test_accelerated_decides_every_row_to_k_25(self, capsys):
        # regression: k = 23 of 103 was UNVERIFIED while the accelerated
        # oracle factored the repetition number
        code, out, _ = run_cli(capsys, "verify", "103", "--kmax", "25", "--accelerated", "--strict")
        assert code == EXIT_OK
        assert "0 disagreements, 0 unverified" in out

    def test_disagreement_exit(self, capsys, monkeypatch):
        import vpal.cli

        real = vpal.cli.verify

        def sabotaged(n, k_max, budget, accelerated=False):
            rows = real(n, k_max, budget, accelerated)
            broken = rows[0].__class__(rows[0].k, not rows[0].predicted, rows[0].observed)
            return (broken,) + rows[1:]

        monkeypatch.setattr(vpal.cli, "verify", sabotaged)
        code, out, _ = run_cli(capsys, "verify", "18", "--kmax", "3")
        assert code == 1
        assert "1 disagreements" in out


class TestTable:
    def test_preset_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--preset", "paper")
        assert code == EXIT_OK
        assert "I_819 - I_15561" in out
        assert "I_37100 - I_3969700 - I_26007100 + 2I_2782759700" in out
        # the 117 row gets a footnote and the period its combination forces
        row_117 = next(line for line in out.splitlines() if line.startswith("117"))
        assert "2054" in row_117 and "[*]" in row_117
        assert "2045" in out

    def test_explicit_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "table", "48", "56")
        assert code == EXIT_OK
        assert "I_3 - I_21" in out
        assert "I_3 - I_21 - I_39 + 2I_273" in out

    def test_empty_invocation_rejected(self, capsys):
        code, _, err = run_cli(capsys, "table")
        assert code == EXIT_INVALID
        assert "no numbers" in err

    def test_numbers_with_preset_rejected(self, capsys):
        # regression: the preset rows were printed and 21726 silently dropped
        code, out, err = run_cli(capsys, "table", "21726", "--preset", "paper")
        assert code == EXIT_INVALID
        assert out == ""
        assert err == "error: pass either N... or --preset paper, not both\n"


class TestSearch:
    def test_conj1(self, capsys):
        code, out, _ = run_cli(capsys, "search", "conj1", "--until", "200")
        assert code == EXIT_OK
        first = out.splitlines()[0]
        assert first.startswith("n=126")
        assert "omega0=3542" in first and "omega_f=31878" in first

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "search", "conj1", "--until", "200")
        assert code == EXIT_OK
        docs = [json.loads(line) for line in out.splitlines()]
        assert docs[0]["n"] == "126"
        assert docs[0]["omega0"] == "3542"

    def test_pool_capped_by_chunks_and_cpus(self, capsys, monkeypatch):
        # regression: the pool was built with max_workers as given, and a
        # fork-based pool starts every worker on its first submit, so a scan
        # of one chunk with --workers 5000 forked 5000 processes
        import concurrent.futures

        built = []

        class FakePool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, arg):
                future = concurrent.futures.Future()
                future.set_result(fn(arg))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        _, serial, _ = run_cli(capsys, "search", "conj1", "--until", "200")
        code, out, _ = run_cli(capsys, "search", "conj1", "--until", "200", "--workers", "5000")
        assert (code, out, built) == (EXIT_OK, serial, [])
        # 2..2100 is five chunks
        code, _, _ = run_cli(capsys, "search", "conj1", "--until", "2100", "--workers", "5000")
        assert (code, built) == (EXIT_OK, [5])
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run_cli(capsys, "search", "conj1", "--until", "2100", "--workers", "5000")
        assert built == [5, 2]


    def test_from_keeps_pooled_output_equal_to_serial(self, capsys, monkeypatch):
        # 1000..2100 is three chunks from 1000; the pool is capped at the CPU
        # count, so report two CPUs to keep this on the pooled path
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ("--format", "json", "search", "conj1", "--from", "1000", "--until", "2100")
        code, serial, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK and serial
        assert run_cli(capsys, *argv, "--workers", "2") == (EXIT_OK, serial, "")
        _, full, _ = run_cli(capsys, "--format", "json", "search", "conj1", "--until", "2100")
        lines = full.splitlines(keepends=True)
        assert serial == "".join(line for line in lines if int(json.loads(line)["n"]) >= 1000)

    @pytest.mark.parametrize("start", ["-1", "1", "2101"])
    def test_from_outside_the_range_exits_2(self, capsys, start):
        code, out, err = run_cli(capsys, "search", "conj1", "--from", start, "--until", "2100")
        assert (code, out) == (EXIT_INVALID, "")
        assert err == "error: range_start must be >= 2 and at most range_end\n"


class TestSpectrum:
    def test_periods(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "periods", "--samples", "1,0,1,0")
        assert code == EXIT_OK
        assert "support_period = 2" in out
        assert "gcd_period = 2" in out
        assert "naive_fundamental_period = 2" in out

    def test_periods_agree_at_the_zero_threshold(self, capsys):
        # |c_1| sits exactly at the zero threshold, which the support and the
        # active frequency indices must read the same way
        for samples in ("2e-9,0", "-8e-10+6e-10j,8e-10-6e-10j"):
            code, out, _ = run_cli(capsys, "spectrum", "periods", f"--samples={samples}")
            assert code == EXIT_OK
            assert out == "window = 2\nsupport_period = 2\ngcd_period = 2\nnaive_fundamental_period = 2\n"

    def test_indicator(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "indicator", "6")
        assert code == EXIT_OK
        assert out == (
            "spectrum of the divisibility-by-6 indicator: 6 roots\n"
            "  e(0/1): 1/6\n"
            "  e(1/2): 1/6\n"
            "  e(1/3): 1/6\n"
            "  e(2/3): 1/6\n"
            "  e(1/6): 1/6\n"
            "  e(5/6): 1/6\n"
            "support_period = 6\n"
        )

    def test_of_indicator(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "of-indicator", "126")
        assert code == EXIT_OK
        assert "support_period = 3542" in out

    def test_malformed_samples(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "periods", "--samples", "1,zebra")
        assert code == EXIT_INVALID
        assert "zebra" in err

    @pytest.mark.parametrize(
        "samples, named",
        [("nan,1", "(nan+0j)"), ("1,inf,1,inf", "(inf+0j)"), ("1+infj,2", "(1+infj)"), ("-inf", "(-inf+0j)")],
        ids=["nan", "inf", "infj", "minus-inf"],
    )
    def test_non_finite_samples_rejected(self, capsys, samples, named):
        # the window rejects the parsed value, which the message names
        code, out, err = run_cli(capsys, "spectrum", "periods", f"--samples={samples}")
        assert code == EXIT_INVALID
        assert out == ""
        assert err == f"error: sample {named} is not a finite complex number\n"

    @pytest.mark.parametrize(
        "samples",
        ["1e308,1e308,-1e308,-1e308", "1.7e308+1.7e308j", "1" + "0" * 400],
        ids=["sums-reach-2e308", "magnitude-beyond-float", "int-too-large-for-float"],
    )
    def test_samples_overflowing_the_transform_rejected(self, capsys, samples):
        # every sample is finite, but the transform would overflow
        code, out, err = run_cli(capsys, "spectrum", "periods", f"--samples={samples}")
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "too large" in err

    def test_disagreeing_periods_exit_1(self, capsys):
        # 2**53 + 1 and 2**53 round to the same float, so both transforms see
        # a constant window while the exact shift check sees period 2
        code, out, err = run_cli(
            capsys, "spectrum", "periods", "--samples=9007199254740993,9007199254740992"
        )
        assert code == EXIT_DISAGREEMENT
        assert out == (
            "window = 2\nsupport_period = 1\ngcd_period = 1\nnaive_fundamental_period = 2\n"
        )
        assert err == (
            "error: the periods disagree: support_period = 1, gcd_period = 1, "
            "naive_fundamental_period = 2\n"
        )


class TestConfig:
    @pytest.mark.parametrize("argv, named", list(ARGPARSE_REJECTS.values()), ids=list(ARGPARSE_REJECTS))
    def test_argparse_rejects(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors = [line for line in err.splitlines() if "error: " in line]
        assert len(errors) == 1 and named in errors[0], err

    def test_budget_flag_below_floor_rejected(self, capsys):
        code, out, err = run_cli(capsys, "--budget", "100", "analyze", "12")
        assert code == EXIT_INVALID
        assert out == ""
        assert "at least 10000" in err



#: argv whose help or usage error, exit code and output the eager reference
#: parser must give too: help at every level, a missing or unknown command,
#: a global option after the command, a missing required option, a bad int
PARSER_CORPUS = [
    ("-h",),
    *[(command, "-h") for command in ("analyze", "verify", "table", "search", "spectrum")],
    *[("spectrum", command, "-h") for command in ("periods", "indicator", "of-indicator")],
    (),
    ("frobnicate",),
    ("spectrum",),
    ("analyze", "126", "--budget", "20000"),
    ("verify", "48"),
    ("analyze", "x"),
    *[argv for argv, _ in ARGPARSE_REJECTS.values()],
]

#: argv that parse, each through a different command or option
VALID_ARGV = [
    ("analyze", "126"),
    ("analyze", "126", "--json"),
    ("--budget", "20000", "--format", "json", "analyze", "126"),
    ("verify", "48", "--kmax", "5", "--strict", "--accelerated"),
    ("--format", "csv", "verify", "48", "--kmax", "5"),
    ("table", "--preset", "paper"),
    ("table", "13", "17"),
    ("table",),
    ("search", "omegab", "--until", "6000", "--workers", "2"),
    ("search", "conj1", "--from", "500000", "--until", "502000"),
    ("spectrum", "periods", "--samples=1,0"),
    ("spectrum", "indicator", "6"),
    ("spectrum", "of-indicator", "126"),
    ("--format", "csv", "spectrum", "indicator", "6"),
]


class TestParser:
    """Each command builds only the parser it runs, and acts like the eager
    reference parser that builds them all."""

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "no-command")
    def test_help_and_errors_match_the_eager_parser(self, capsys, monkeypatch, argv):
        lazy = self.outcome(capsys, argv)
        monkeypatch.setattr(cli, "build_parser", cli_reference.build_parser)
        assert lazy == self.outcome(capsys, argv)
        code, out, err = lazy
        assert (code, bool(out), bool(err)) in ((EXIT_OK, True, False), (EXIT_INVALID, False, True))

    @pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
    def test_namespace_matches_the_eager_parser(self, argv):
        assert cli.build_parser().parse_args(argv) == cli_reference.build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "argvs, progs",
        [
            ([("analyze", "126", "--json")], ["vpal", "vpal analyze"]),
            ([("--format", "json", "verify", "48", "--kmax", "5", "--accelerated")], ["vpal", "vpal verify"]),
            ([("spectrum", "periods", "--samples=1,0")], ["vpal", "vpal spectrum", "vpal spectrum periods"]),
            # nothing is kept between calls
            ([("analyze", "126", "--json")] * 2, ["vpal", "vpal analyze"] * 2),
        ],
        ids=["analyze", "verify", "spectrum-periods", "two-calls"],
    )
    def test_parsers_built_per_call(self, capsys, monkeypatch, argvs, progs):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs["prog"])
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in argvs:
            assert main(list(argv)) == EXIT_OK
        capsys.readouterr()
        assert built == progs


class TestProcess:
    def test_import_loads_no_sympy_and_no_process_pool(self):
        # no command needs these at start: sympy is for tests, the process pool
        # for pooled search, json for search, csv for --format csv, dataclasses
        # for nothing; site-packages may import typing, so only -S checks it
        unneeded = ("sympy", "concurrent.futures.process", "dataclasses", "json", "csv")
        for flags, names in (((), unneeded), (("-S",), unneeded + ("typing",))):
            probe = f"import sys, vpal.cli; print(sorted(m for m in {names!r} if m in sys.modules))"
            result = run_python(*flags, "-c", probe, capture_output=True, text=True, check=True)
            assert result.stdout == "[]\n", flags

    def test_closed_stdout_ends_quietly(self):
        # regression: a reader that closes the pipe early (`| head -1`) made
        # the command print a BrokenPipeError traceback and exit 1
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = run_python(
                "-m", "vpal.cli", "--format", "json", "table", "--preset", "paper",
                stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (EXIT_OK, b"")
