"""Benchmark of the `vpal` command line.

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) for about `--seconds`
seconds, input generation included.  Each repetition is a fresh process,
forked from an interpreter that has only imported `vpal.cli`
(bench/worker.py), that runs the workload's commands one after another, as a
CLI user starting cold would; repetitions continue until the time is used
up.  Every timed span is scaled by the host's speed (bench/calibrate.py).  With
`--trace 0` it reports the end-to-end metrics named in BENCHMARK.json; with
`--trace 1` it alternates plain and traced repetitions and reports the
per-layer metrics, including the tracing overhead.  Human-readable lines come
first; the last line of stdout is one JSON object.  Output checks that fail
make the result `"correct": false` and the exit code 1.

`--anchors` adds the fixed inputs that show the known defects (they take
minutes and fail today); `--out FILE` also writes the result with its
provenance; `--record` stores this run's outputs as the reference that later
runs must reproduce.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"

SETUP_PROBES = 9  # interpreter starts per run: the worker and import-only ones
MIN_REPS = 2  # per kind of repetition (plain, traced)
CHILD_TIMEOUT_S = 150
ANCHOR_TIMEOUT_S = 900
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("VPAL_FACTOR_BUDGET", None)  # it would override the workload's budget
    return env


def start_worker(setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker interpreter; return it and its set-up seconds, scaled
    by the host's speed read just before and just after."""
    argv = [sys.executable, str(WORKER)] + (["--setup-only"] if setup_only else [])
    before = calibrate.reading()
    started = time.monotonic()
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env()
    )
    line = proc.stdout.readline()
    if not line:
        proc.wait()
        raise BenchError(f"worker exited {proc.returncode} before it was ready")
    setup = json.loads(line)["ready"] - started
    return proc, setup * calibrate.scale(before, calibrate.reading())


def setup_probe() -> float:
    """Set-up seconds of one interpreter that only imports `vpal.cli`."""
    proc, setup = start_worker(setup_only=True)
    proc.communicate(timeout=CHILD_TIMEOUT_S)
    return setup


def stop_worker(proc: subprocess.Popen) -> None:
    with contextlib.suppress(BrokenPipeError):
        proc.stdin.close()
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def run_repetition(proc: subprocess.Popen, request: dict) -> dict:
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise BenchError("worker ended without a result")
    rep = json.loads(line)
    if "error" in rep:
        raise BenchError(rep["error"])
    return rep


def tail(latencies: list[float]) -> tuple[int, float] | None:
    """(q, value) for the highest whole percentile q that still has at least
    TAIL_BEYOND samples above it (nearest rank), or None if there is none."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_BEYOND:
            return q, ordered[rank - 1]
    return None


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, load1: float) -> dict:
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = "missing"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "sympy": sympy_version,
        "nproc": os.cpu_count(),
        "load1_at_start": load1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "anchors": args.anchors,
    }


def command_key(argv: list[str]) -> str:
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()[:24]


def compare_reference(commands: list[dict], reps: list[dict], reference: dict) -> tuple[int, list[str]]:
    """Outputs must repeat across repetitions and match the recorded ones.

    A command that failed when recorded (exit 3 or UNVERIFIED rows) may now
    succeed; its independent checks still apply.  Returns (commands compared
    with the reference, problems)."""
    problems = []
    compared = 0
    recorded = reference.get("commands", {})
    known_hits = reference.get("scan_hits", {})
    for i, command in enumerate(commands):
        label = " ".join(command["argv"])[:80]
        seen = {(rep["commands"][i]["code"], rep["commands"][i]["sha256"]) for rep in reps}
        if len(seen) > 1:
            problems.append(f"{label}: output differs between repetitions")
        code, digest = next(iter(seen))
        ref = recorded.get(command_key(command["argv"]))
        if ref is not None:
            compared += 1
            if not ref["failed"] and (code, digest) != (ref["exit"], ref["sha256"]):
                problems.append(f"{label}: output differs from the reference")
        check = command["check"]
        if check["kind"] == "scan" and check["prop"] in known_hits:
            limit, hits = known_hits[check["prop"]]
            if check["until"] <= limit:
                expected = [n for n in hits if n <= check["until"]]
                if reps[0]["commands"][i]["hits"] != expected:
                    problems.append(f"{label}: hit list differs from the reference")
    return compared, problems


def record_reference(commands: list[dict], rep: dict, workload: str) -> None:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    table = reference.setdefault("commands", {})
    for command, result in zip(commands, rep["commands"]):
        table[command_key(command["argv"])] = {
            "cmd": " ".join(command["argv"])[:80],
            "exit": result["code"],
            "sha256": result["sha256"],
            "failed": result["failed"] > 0,
        }
        if workload == "scan" and command["check"]["until"] == workloads.SCAN_BAND[1]:
            reference.setdefault("scan_hits", {})[command["check"]["prop"]] = [
                command["check"]["until"],
                result["hits"],
            ]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def repetitions(args, commands: list[dict], deadline: float) -> tuple[list[float], list[dict], list[dict]]:
    """Interpreter set-up times, plain repetitions and traced repetitions.

    One worker imports `vpal.cli` and forks a cold child per repetition.
    Repetitions run until the next one would pass the deadline, with at
    least MIN_REPS of each kind.  Import-only interpreters, for set-up time,
    are due at even intervals over the run and start at the first end of a
    repetition after they are due, so that their median spans the host's
    changes of speed.  Only the first repetition
    checks its outputs; the others must reproduce its digests."""
    single = args.anchors or args.record
    timeout = ANCHOR_TIMEOUT_S if args.anchors else CHILD_TIMEOUT_S
    probe_every = max(0.0, deadline - time.monotonic()) / SETUP_PROBES
    next_probe = time.monotonic() + probe_every
    proc, setup = start_worker(setup_only=False)
    setups = [setup]
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    try:
        while True:
            kind = traced if args.trace and len(traced) < len(plain) else plain
            request = {
                "root": str(ROOT), "commands": commands, "trace": kind is traced,
                "check": not plain, "timeout": timeout,
            }
            started = time.monotonic()
            kind.append(run_repetition(proc, request))
            if not request["check"]:  # the checking repetition is no guide to the others
                longest = max(longest, time.monotonic() - started)
            while len(setups) < SETUP_PROBES and time.monotonic() >= next_probe:
                setups.append(setup_probe())
                next_probe += probe_every
            wanted = 1 if single else MIN_REPS
            enough = len(plain) >= wanted and (not args.trace or len(traced) >= wanted)
            if enough and (single or time.monotonic() + longest > deadline):
                return setups, plain, traced
    finally:
        stop_worker(proc)


def per_command_s(reps: list[dict]) -> list[float]:
    """Each command's latency: the median over the repetitions of its time
    scaled by the host's speed around it (see calibrate.py).

    The commands are deterministic and every repetition starts cold, so the
    repetitions differ only by how much the host slowed them."""
    return [
        statistics.median(rep["commands"][i]["s"] * rep["commands"][i]["scale"] for rep in reps)
        for i in range(len(reps[0]["commands"]))
    ]


def host_scale(reps: list[dict]) -> float:
    """Median factor by which the repetitions' times were scaled."""
    return statistics.median(c["scale"] for rep in reps for c in rep["commands"])


def end_to_end(commands, setups, plain) -> dict:
    latencies = per_command_s(plain)
    done = sum(c["items"] for c in commands) - sum(r["failed"] for r in plain[0]["commands"])
    each = f"each command's scaled median of {len(plain)} repetitions"
    scaled = f"median host scale {host_scale(plain):.3f}"
    return {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} scaled interpreter starts"),
        "items_per_s": (done / sum(latencies), f"{done} completed items over the sum of {each}; {scaled}"),
        "cmd_p50_ms": (statistics.median(latencies) * 1000, f"median over {len(latencies)} commands of {each}"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in plain), f"median of {len(plain)} repetitions"),
    }


def per_layer(spec, plain, traced) -> dict:
    """Median over traced repetitions of every per-layer figure."""
    note = f"median of {len(traced)} traced repetitions"
    figures = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        figures[name] = (statistics.median(rep["trace"].get(name, 0) for rep in traced), note)
    figures["cli.stdout_bytes"] = (sum(r["bytes"] for r in plain[0]["commands"]), "per repetition")
    figures["trace.wall_s"] = (statistics.median(sum(r["s"] for r in rep["commands"]) for rep in traced), note)
    figures["trace.overhead_frac"] = (
        sum(per_command_s(traced)) / sum(per_command_s(plain)) - 1,
        f"traced over plain command time, each command's scaled median ({len(traced)} traced, {len(plain)} plain), minus 1",
    )
    return figures


def measure(args) -> dict:
    deadline = time.monotonic() + args.seconds  # input generation counts too
    if not (ROOT / "src" / "vpal" / "cli.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load1 = os.getloadavg()[0]
    commands = workloads.commands(args.workload, args.seed, args.anchors)
    if args.record and args.workload == "scan":
        # the hit list of every property up to the band's top, for other seeds
        commands += [workloads.search_command(p, workloads.SCAN_BAND[1]) for p in workloads.SCAN_PROPERTIES]
    setups, plain, traced = repetitions(args, commands, deadline)

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    compared, problems = compare_reference(commands, plain + traced, reference)
    problems = sorted(set(problems + plain[0]["problems"]))
    if not args.anchors:  # the time-boxed inputs are chosen so that none fails
        problems += [
            f"{' '.join(c['argv'])[:80]}: {r['failed']} items failed"
            for c, r in zip(commands, plain[0]["commands"])
            if r["failed"]
        ]
    if args.record:
        record_reference(commands, plain[0], args.workload)

    reps = len(plain) + len(traced)
    attempted = sum(c["items"] for c in commands) * reps
    failed = sum(r["failed"] for r in plain[0]["commands"]) * reps
    if args.trace:
        figures = per_layer(spec, plain, traced)
    else:
        figures = end_to_end(commands, setups, plain)
        found = tail(per_command_s(plain))
        figures["cmd_tail_ms"] = (
            (found[1] * 1000, f"p{found[0]} over {len(commands)} commands") if found
            else (None, f"{len(commands)} commands per repetition are too few for a tail")
        )
        figures["fail_frac"] = (failed / attempted, f"{failed} of {attempted} items failed")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(cmd_tail_ms="ms", fail_frac="ratio")
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} plain and {len(traced)} traced "
          f"repetitions of {len(commands)} commands, {sum(c['items'] for c in commands)} items each")
    for name, (value, note) in figures.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>14s} {units[name]:6s} ({note})")
    print(f"  checks: {len(problems)} problems; {compared} of {len(commands)} commands "
          f"have a reference output")
    for problem in problems[:20]:
        print(f"    {problem}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": figures[name][0], "unit": units[name]} for name in wanted},
    }
    if args.out:
        report = {
            "provenance": provenance(args, load1),
            "figures": {name: {"value": v, "unit": units[name], "note": n} for name, (v, n) in figures.items()},
            "problems": problems,
            "command_s": [
                {"cmd": " ".join(c["argv"])[:80], "s": s} for c, s in zip(commands, per_command_s(plain))
            ],
        }
        Path(args.out).write_text(json.dumps({**report, **result}, indent=1) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--anchors", action="store_true", help="add the known-defect inputs")
    parser.add_argument("--out", help="also write the result, with provenance, to this file")
    parser.add_argument("--record", action="store_true", help="store outputs as the reference")
    args = parser.parse_args(argv)
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
