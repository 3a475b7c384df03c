"""Tests of the benchmark's own machinery: input generation and tracing."""

import json
import sys
import types
from pathlib import Path

import pytest

import tracing
import workloads
from tracing import Spec, Tracer, VpalTracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    first = [c["argv"] for c in workloads.commands(workload, 3)]
    assert first == [c["argv"] for c in workloads.commands(workload, 3)]
    assert first != [c["argv"] for c in workloads.commands(workload, 4)]


def test_anchors_only_add_commands():
    for workload in workloads.WORKLOADS:
        plain = workloads.commands(workload, 1)
        anchored = workloads.commands(workload, 1, anchors=True)
        assert anchored[: len(plain)] == plain


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


FAKE_SOURCE = """
def leaf():
    clock.t += 2

def mid():
    clock.t += 1
    leaf()
    clock.t += 3
    leaf()

def top():
    clock.t += 5
    mid()
    clock.t += 1

def numbers():
    for i in range(3):
        clock.t += 1
        yield i

def total():
    return sum(numbers())
"""


@pytest.fixture
def fake_package():
    """fakepkg.a defines the functions; fakepkg.b imports two of them by name."""
    clock = FakeClock()
    package = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    a.clock = clock
    exec(FAKE_SOURCE, a.__dict__)
    b = types.ModuleType("fakepkg.b")
    b.leaf, b.renamed_top = a.leaf, a.top
    modules = {"fakepkg": package, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(modules)
    yield clock, a, b
    for name in modules:
        del sys.modules[name]


def fake_tracer(clock, *names, consume=()):
    specs = [Spec("fakepkg.a", n, f"a.{n}", consume=n in consume) for n in names]
    return Tracer(specs, "fakepkg", clock)


def test_self_time_on_nested_spans(fake_package):
    clock, a, b = fake_package
    tracer = fake_tracer(clock, "top", "mid", "leaf")
    tracer.install()
    try:
        b.renamed_top()
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals == {"a.top": [1, 6.0], "a.mid": [1, 4.0], "a.leaf": [2, 4.0]}
    assert sum(own for _, own in totals.values()) == clock.t


def test_install_patches_every_importing_module_and_restores(fake_package):
    clock, a, b = fake_package
    before = {m: dict(vars(m)) for m in (a, b)}
    tracer = fake_tracer(clock, "top", "leaf")
    tracer.install()
    try:
        assert b.leaf is a.leaf is not before[a]["leaf"]
        assert b.renamed_top is a.top is not before[a]["top"]
        b.leaf()
    finally:
        tracer.uninstall()
    assert tracer.totals()["a.leaf"][0] == 1
    for module, saved in before.items():
        assert all(vars(module)[key] is value for key, value in saved.items())


def test_generator_work_counted_inside_its_span(fake_package):
    clock, a, _ = fake_package
    tracer = fake_tracer(clock, "total", "numbers", consume=("numbers",))
    tracer.install()
    try:
        assert a.total() == 3
    finally:
        tracer.uninstall()
    assert tracer.totals() == {"a.numbers": [1, 3.0], "a.total": [1, 0.0]}


def vpal_modules():
    return {name: m for name, m in sys.modules.items() if name == "vpal" or name.startswith("vpal.")}


def test_vpal_tracer_patches_every_binding_and_restores():
    import vpal.cli  # noqa: F401  (imports every layer)

    before = {name: dict(vars(m)) for name, m in vpal_modules().items()}
    originals = {
        id(getattr(sys.modules[spec.module], spec.attr)): spec.name for spec in tracing.VPAL_SPECS
    }
    tracer = VpalTracer()
    tracer.install()
    try:
        # factorize is bound in numbers and imported by name elsewhere
        assert sys.modules["vpal.characteristic"].factorize is sys.modules["vpal.numbers"].factorize
        for name, module in vpal_modules().items():
            left = [key for key, value in vars(module).items() if id(value) in originals]
            assert not left, f"{name} still holds untraced {left}"
    finally:
        tracer.uninstall()
    for name, saved in before.items():
        module = sys.modules[name]
        assert all(vars(module)[key] is value for key, value in saved.items()), name


def test_every_declared_layer_metric_is_produced(capsys):
    import vpal.cli

    tracer = VpalTracer()
    tracer.install()
    try:
        for argv in (
            ["search", "conj1", "--until", "300"],
            ["analyze", "126"],
            ["verify", "48", "--kmax", "3"],
            ["verify", "48", "--kmax", "3", "--accelerated"],
            ["spectrum", "periods", "--samples", "1,0,1,0"],
            ["spectrum", "of-indicator", "48"],
        ):
            tracer.new_command()
            assert vpal.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    produced = tracer.metrics()
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    added_by_runner = {"cli.stdout_bytes", "trace.wall_s", "trace.overhead_frac"}
    missing = [
        m["name"] for m in spec["per_layer"] if m["name"] not in set(produced) | added_by_runner
    ]
    counters_seen_only_on_failure = {"numbers.factorize.budget_exceeded", "oracle.unverified"}
    assert set(missing) <= counters_seen_only_on_failure
    assert len(tracer.commands) == 6
