"""Per-layer spans and work counters, recorded from outside the package.

`Tracer.install()` wraps each public function in `TARGETS` and rebinds the
wrapper under every name that any `condstop` module binds the function to,
so calls made inside the package nest as well, for example
`is_equilibrium -> admissible` and `enumerate_periodic_equilibria -> evaluate
-> solve_linear`.  A span records its name, start, end, parent span and the
id of the CLI call it belongs to; spans stay in memory until `dump()`.

Counters are read from arguments and return values after the wrapped call
has ended, inside a `tracing.counters` span, so that bookkeeping is not
charged to the self time of any traced function.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# span name -> (module, function)
TARGETS = {
    "cli.main": ("condstop.cli", "main"),
    "modelio.read_json": ("condstop.modelio", "read_json"),
    "modelio.load_model": ("condstop.modelio", "load_model"),
    "modelio.load_pair": ("condstop.modelio", "load_pair"),
    "modelio.load_policy": ("condstop.modelio", "load_policy"),
    "modelio.dump_pair": ("condstop.modelio", "dump_pair"),
    "modelio.model_digest": ("condstop.modelio", "model_digest"),
    "model.unroll": ("condstop.model", "unroll"),
    "recursion.backward_solve": ("condstop.recursion", "backward_solve"),
    "recursion.verify_snell_pair": ("condstop.recursion", "verify_snell_pair"),
    "recursion.survival_identities": ("condstop.recursion", "survival_identities"),
    "policy.is_equilibrium": ("condstop.policy", "is_equilibrium"),
    "policy.admissible": ("condstop.policy", "admissible"),
    "policy.phi": ("condstop.policy", "phi"),
    "policy.enumerate_equilibria": ("condstop.policy", "enumerate_equilibria"),
    "policy.precommitted": ("condstop.policy", "precommitted"),
    "infinite.enumerate_periodic_equilibria": ("condstop.infinite", "enumerate_periodic_equilibria"),
    "infinite.evaluate": ("condstop.infinite", "evaluate"),
    "infinite.truncation_limit": ("condstop.infinite", "truncation_limit"),
    "infinite.is_periodic_equilibrium": ("condstop.infinite", "is_periodic_equilibrium"),
    "numeric.solve_linear": ("condstop.numeric", "solve_linear"),
}
COUNTER_SPAN = "tracing.counters"


def _den_bits(values) -> int:
    return max(
        (v.denominator.bit_length() for v in values if isinstance(v, Fraction)),
        default=0,
    )


def _free_states(model) -> int:
    return sum(1 for x in model.states if x in model.domain and x not in model.forced_stop)


def _count_unroll(c, args, kwargs, tree):
    c["model.atoms"] += sum(len(level) for level in tree.levels)


def _count_backward_solve(c, args, kwargs, result):
    pair = result[0]
    bits = max(_den_bits(pair.values.values()), _den_bits(pair.survival.values()))
    c["recursion.max_den_bits"] = max(c["recursion.max_den_bits"], bits)


def _count_enumerate(c, args, kwargs, found):
    flags = args[0].effective_flags()
    c["policy.enumerate.candidates"] += 2 ** sum(1 for flag in flags.values() if not flag)
    c["policy.enumerate.found"] += len(found)


def _count_precommitted(c, args, kwargs, result):
    c["policy.precommit.examined"] += result.candidates


def _count_census(c, args, kwargs, found):
    model, period = args[0], (args[1] if len(args) > 1 else kwargs["period"])
    c["infinite.census.candidates"] += 2 ** (period * _free_states(model))
    c["infinite.census.found"] += len(found)


def _count_solve_linear(c, args, kwargs, solution):
    c["numeric.solve_linear.unknowns"] += len(solution)


COUNT_HOOKS = {
    "model.unroll": _count_unroll,
    "recursion.backward_solve": _count_backward_solve,
    "policy.enumerate_equilibria": _count_enumerate,
    "policy.precommitted": _count_precommitted,
    "infinite.enumerate_periodic_equilibria": _count_census,
    "numeric.solve_linear": _count_solve_linear,
}
# span names whose raised exceptions are counted as `<name>.failed`
FAILURE_COUNTED = ("infinite.evaluate",)


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, call_id]
        self.counters: Counter = Counter()
        self.call_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.call_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, function):
        hook = COUNT_HOOKS.get(name)
        counts_failures = name in FAILURE_COUNTED
        counters = self.counters

        def traced(*args, **kwargs):
            index = self._open(name)
            counters[f"{name}.calls"] += 1
            try:
                result = function(*args, **kwargs)
            except BaseException:
                self._close(index)
                if counts_failures:
                    counters[f"{name}.failed"] += 1
                raise
            self._close(index)
            if hook is not None:
                index = self._open(COUNTER_SPAN)
                hook(counters, args, kwargs, result)
                self._close(index)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "condstop" or n.startswith("condstop.")]
        for name, (module_name, attribute) in TARGETS.items():
            original = getattr(sys.modules[module_name], attribute)
            wrapper = self._wrap(name, original)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, bound, original))
                        setattr(module, bound, wrapper)

    def uninstall(self) -> None:
        for module, bound, original in reversed(self._patches):
            setattr(module, bound, original)
        self._patches.clear()

    def self_times(self, first_span: int, scales: list[float]) -> dict[str, float]:
        """Total self time per span name, over spans from `first_span` on,
        each multiplied by the scale of the CLI call it belongs to."""
        child_time: defaultdict[int, float] = defaultdict(float)
        spans = self.spans[first_span:]
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for offset, (name, start, end, _, call_id) in enumerate(spans):
            totals[name] += (end - start - child_time[first_span + offset]) * scales[call_id]
        return dict(totals)

    def dump(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
