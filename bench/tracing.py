"""Per-layer tracing applied from outside the library.

`Tracer.install()` replaces each function named in the spec list with a timing
wrapper, in every already-imported module of the package that holds a
reference to it, so that calls through `from .numbers import factorize` in
another module are seen too.  The wrapper sits outside any `lru_cache`, so a
cache hit counts as a call.  A generator function named with `consume=True`
is drained inside its span, so its work is charged to it.  `uninstall()` puts
every original back.

Spans are aggregated as they close: per traced command, and per function and
direct caller, the call count and self time (the span's duration minus the
durations of the spans it directly caused).  Self times therefore add up
exactly to the time spent in the outermost spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Spec:
    """One function to trace: `module.attr`, reported under `name`."""

    module: str
    attr: str
    name: str
    #: maps (args, kwargs) to a suffix that splits the span name
    variant: Callable | None = None
    #: drain the returned iterator inside the span
    consume: bool = False
    #: called as observe(tracer, args, kwargs, result, exc) before the span closes
    observe: Callable | None = None


class Tracer:
    def __init__(self, specs, package: str, clock=time.perf_counter):
        self.specs = tuple(specs)
        self.package = package
        self.clock = clock
        self.counters: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        #: per command: (name, parent name or None) -> [calls, self_s]
        self._current: dict[tuple, list] = {}
        self.commands: list[dict[tuple, list]] = [self._current]
        self._stack: list[list] = []  # open spans: [name, child_s, start]
        self._patched: list[tuple] = []  # (module, attribute, original)

    def new_command(self) -> None:
        """Start a fresh per-command aggregate; later spans are charged to it."""
        if self._current:
            self._current = {}
            self.commands.append(self._current)

    def totals(self, parent: str | None = None) -> dict[str, list]:
        """name -> [calls, self_s] summed over all commands; with `parent`,
        only spans whose direct parent has that name."""
        out: dict[str, list] = {}
        for command in self.commands:
            for (name, caller), (calls, own) in command.items():
                if parent is None or caller == parent:
                    entry = out.setdefault(name, [0, 0.0])
                    entry[0] += calls
                    entry[1] += own
        return out

    def _wrap(self, spec: Spec, fn: Callable) -> Callable:
        tracer, stack, clock = self, self._stack, self.clock
        base, variant, consume, observe = spec.name, spec.variant, spec.consume, spec.observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = base if variant is None else f"{base}.{variant(args, kwargs)}"
            frame = [name, 0.0, clock()]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
                    return iter(result)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                if observe is not None:
                    observe(tracer, args, kwargs, result, exc)
                duration = clock() - frame[2]
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                key = (name, parent[0] if parent is not None else None)
                entry = tracer._current.get(key)
                if entry is None:
                    entry = tracer._current[key] = [0, 0.0]
                entry[0] += 1
                entry[1] += duration - frame[1]

        return traced

    def _modules(self) -> list:
        prefix = self.package + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for spec in self.specs:
            original = getattr(sys.modules[spec.module], spec.attr)
            wrapper = self._wrap(spec, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)


# -- the vpal layers -----------------------------------------------------------


def _observe_factorize(tracer, args, kwargs, result, exc):
    n = args[0]
    tracer.distinct["numbers.factorize"].add(n)
    if exc is not None:
        if type(exc).__name__ == "BudgetExceeded":
            tracer.counters["numbers.factorize.budget_exceeded"] += 1
    else:
        tracer.counters["numbers.factorize.max_digits"] = max(
            tracer.counters["numbers.factorize.max_digits"], len(str(n))
        )


def _observe_repetition_order(tracer, args, kwargs, result, exc):
    tracer.distinct["numbers.repetition_order"].add(args[:3])


def _observe_solve(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counters["characteristic.solutions"] += len(result)


def _observe_assemble(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counters["characteristic.assembled"] += 1
        tracer.counters["characteristic.degenerate"] += bool(result.degenerate)


def _observe_expand(tracer, args, kwargs, result, exc):
    tracer.counters["indicator.expand_solution.subsets"] += 2 ** len(args[0].excluded)
    if result is not None:
        tracer.counters["indicator.terms"] += len(result.terms)


def _observe_flag(tracer, args, kwargs, result, exc):
    if type(result).__name__ == "Unverified":
        tracer.counters["oracle.unverified"] += 1


def _observe_transform(tracer, args, kwargs, result, exc):
    tracer.counters["spectrum.transform_terms"] += args[0].period ** 2


def _accelerated(args, kwargs) -> str:
    flag = kwargs.get("accelerated", args[3] if len(args) > 3 else False)
    return "accelerated" if flag else "direct"


VPAL_SPECS = (
    Spec("vpal.numbers", "factorize", "numbers.factorize", observe=_observe_factorize),
    Spec(
        "vpal.numbers",
        "repetition_order",
        "numbers.repetition_order",
        observe=_observe_repetition_order,
    ),
    Spec("vpal.numbers", "multiplicative_order", "numbers.multiplicative_order"),
    Spec("vpal.characteristic", "crucial_primes", "characteristic.crucial_primes"),
    Spec(
        "vpal.characteristic",
        "solve_characteristic",
        "characteristic.solve_characteristic",
        observe=_observe_solve,
    ),
    Spec(
        "vpal.characteristic",
        "assemble_constraints",
        "characteristic.assemble_constraints",
        observe=_observe_assemble,
    ),
    Spec("vpal.indicator", "analyze", "indicator.analyze"),
    Spec("vpal.indicator", "expand_solution", "indicator.expand_solution", observe=_observe_expand),
    Spec("vpal.oracle", "verify", "oracle.verify"),
    Spec(
        "vpal.oracle",
        "brute_force_flag",
        "oracle.brute_force_flag",
        variant=_accelerated,
        observe=_observe_flag,
    ),
    Spec("vpal.oracle", "search_iter", "oracle.search_iter", consume=True),
    Spec(
        "vpal.spectrum",
        "samples_to_spectrum",
        "spectrum.samples_to_spectrum",
        observe=_observe_transform,
    ),
    Spec("vpal.spectrum", "gcd_period", "spectrum.gcd_period", observe=_observe_transform),
    Spec("vpal.spectrum", "naive_fundamental_period", "spectrum.naive_fundamental_period"),
    Spec("vpal.spectrum", "net_coefficients", "spectrum.net_coefficients"),
    Spec("vpal.cli", "main", "cli.main"),
)


class VpalTracer(Tracer):
    """Tracer for the vpal layers."""

    def __init__(self, clock=time.perf_counter):
        super().__init__(VPAL_SPECS, "vpal", clock)

    def metrics(self) -> dict[str, float]:
        """Flat per-layer figures for everything traced so far; a function
        never called is absent."""
        totals = self.totals()
        out: dict[str, float] = {}
        for name, (calls, own) in totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = own
        for name, values in self.distinct.items():
            out[f"{name}.distinct"] = len(values)
        out.update(self.counters)
        assembled = out.pop("characteristic.assembled", 0)
        degenerate = out.pop("characteristic.degenerate", 0)
        out["characteristic.degenerate_frac"] = degenerate / assembled if assembled else 0.0
        under_order = self.totals(parent="numbers.multiplicative_order")
        out["numbers.factorize.order_s"] = under_order.get("numbers.factorize", [0, 0.0])[1]
        out["trace.self_sum_s"] = sum(own for _, own in totals.values())
        return out
