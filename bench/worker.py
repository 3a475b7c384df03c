"""Repetitions of a benchmark workload, each in a cold process.

    python3 bench/worker.py [--setup-only] < requests

The first thing the interpreter does is import `vpal.cli`; the monotonic
time at which that import returns is printed as `{"ready": ...}`, so the
caller can time set-up from the moment it started the process.  With
`--setup-only` the worker stops there.

Otherwise it serves repetitions: for each request line
{"root", "commands", "trace", "check", "timeout"} on stdin it forks a child
from the interpreter as it stood right after the import, before any command
ran.  The child therefore starts as cold as a fresh `vpal` process (empty
caches, nothing computed) without paying the import again.  It runs each
command through `vpal.cli.main` one after another with stdout captured,
reading the host's speed (calibrate.py) before the first command and after
each one, checks the outputs after timing, prints one JSON line and exits.  The child
is killed if it runs past `timeout` seconds.  End of input ends the worker.
"""

import sys
import time

import vpal.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (imported after the timed import)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
from tracing import VpalTracer  # noqa: E402


def run_command(argv: list[str]) -> tuple[int, float, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = vpal.cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, time.perf_counter() - start, out.getvalue()


def repetition(request: dict) -> dict:
    commands = request["commands"]
    tracer = VpalTracer() if request["trace"] else None
    results = []
    if tracer:
        tracer.install()
    before = calibrate.reading()
    try:
        for command in commands:
            if tracer:
                tracer.new_command()
            code, seconds, out = run_command(command["argv"])
            after = calibrate.reading()
            results.append((code, seconds, calibrate.scale(before, after), out))
            before = after
    finally:
        if tracer:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    records, facts, problems = [], [], []
    for command, (code, seconds, scale, out) in zip(commands, results):
        failed, fact, found = checks.inspect(command, code, out) if request["check"] else (None, {}, [])
        data = out.encode()
        records.append(
            {
                "code": code,
                "s": seconds,
                "scale": scale,
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
                "failed": failed,
                "hits": fact.get("hits"),
            }
        )
        facts.append(fact)
        problems += [f"{' '.join(command['argv'])[:80]}: {p}" for p in found]
    problems += checks.across(facts)
    return {
        "rss_mb": rss_mb,
        "commands": records,
        "problems": problems,
        "trace": tracer.metrics() if tracer else None,
    }


def serve(request: dict) -> None:
    """Run one repetition in a forked child and print its JSON line."""
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            signal.alarm(max(1, round(request["timeout"])))
            print(json.dumps(repetition(request)), flush=True)
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGALRM:
        print(json.dumps({"error": f"repetition exceeded {request['timeout']:.0f} s"}), flush=True)
    elif os.waitstatus_to_exitcode(status) != 0:
        print(json.dumps({"error": f"repetition exited {os.waitstatus_to_exitcode(status)}"}), flush=True)


def main() -> int:
    print(json.dumps({"ready": READY}), flush=True)
    if "--setup-only" in sys.argv:
        return 0
    for line in sys.stdin:
        request = json.loads(line)
        src = os.path.realpath(os.path.join(request["root"], "src"))
        if not os.path.realpath(vpal.cli.__file__).startswith(src + os.sep):
            print(json.dumps({"error": f"vpal imported from {vpal.cli.__file__}, not from {src}"}), flush=True)
            continue
        serve(request)
    return 0


if __name__ == "__main__":
    sys.exit(main())
