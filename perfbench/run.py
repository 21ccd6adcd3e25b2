"""condstop benchmark: CLI latency on four workloads, with per-layer spans.

    python3 perfbench/run.py --workload chain-deep --seed 1 --seconds 25 --trace 0

One process, one thread, closed loop: each operation is a CLI subcommand run
in-process as `condstop.cli.main([..., "--json"])` with stdout captured, one
call at a time.  Timings therefore include argument parsing, model loading,
the solver and JSON encoding, but not interpreter start-up, which is part of
`setup_s`.  Every report is checked against the answer recorded for its call
(`answers.py`, `reference.json`); a non-zero exit or a wrong answer counts as
failed and makes the run incorrect.

Workloads (inputs are written by `inputs.py`):

  chain-deep       two-state chain at horizon 13, exact: solve, verify --pair
                   --policy, truncate --max-horizon 12 --window 3.  One huge
                   instance: unroll, the recursion kernel, is_equilibrium and
                   serialising a 2.4 MB pair.
  chain-float      the same calls with --float --eps 1e-9.
  tree-corpus      240 random trees: solve, enumerate, precommit each.  Many
                   small instances: per-call overhead, model parsing, the
                   2^free enumeration loop and the stopping-time search.
  periodic-census  enumerate --period p on minnie-donald for p = 1..6, and 12
                   random 4-state chains at periods 1 and 2.  The only
                   workload that reaches evaluate and solve_linear in bulk.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` a separate run alternates untraced and traced passes and reports
per-layer self times, work counters and the tracing overhead.  Earlier lines
give per-operation latencies and every metric with its unit and sample count.

Every time is scaled to a reference host speed (see `calibrate`), so that
runs made while the host's other tenants are busy stay comparable; the
unscaled pass time is printed beside the scaled one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import answers
import inputs
import tracing

HERE = Path(__file__).resolve().parent
WORK = inputs.ROOT / ".bench_work"
DEFAULT_SEED = inputs.TREE_POOL_SEED
SETUP_REPEATS = {"full": 3, "smoke": 1}

# The host's speed swings by up to 2x within seconds when its other tenants
# are busy.  Every time is therefore scaled to a reference speed: multiplied
# by CALIBRATION_REFERENCE_S over the time `calibrate()` takes around it.
CALIBRATION_LOOPS = 12000
CALIBRATION_REFERENCE_S = 0.033  # calibrate() on an idle Intel Xeon, Python 3.11.7
SEGMENT_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s.p50": "s",
    "models_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SELF_TIMED = (
    "model.unroll",
    "recursion.backward_solve",
    "recursion.verify_snell_pair",
    "recursion.survival_identities",
    "policy.is_equilibrium",
    "policy.admissible",
    "policy.phi",
    "policy.enumerate_equilibria",
    "policy.precommitted",
    "infinite.enumerate_periodic_equilibria",
    "infinite.evaluate",
    "numeric.solve_linear",
    "infinite.truncation_limit",
    "infinite.is_periodic_equilibrium",
    "modelio.read_json",
    "modelio.load_model",
    "modelio.load_pair",
    "modelio.load_policy",
    "modelio.dump_pair",
    "modelio.model_digest",
    "cli.main",
)
COUNTER_UNITS = {
    "model.atoms": "count",
    "recursion.max_den_bits": "bit",
    "policy.admissible.calls": "count",
    "policy.enumerate.candidates": "count",
    "policy.enumerate.found": "count",
    "policy.precommit.examined": "count",
    "infinite.census.candidates": "count",
    "infinite.census.found": "count",
    "infinite.evaluate.calls": "count",
    "infinite.evaluate.failed": "count",
    "numeric.solve_linear.calls": "count",
    "numeric.solve_linear.unknowns": "count",
    "cli.report_bytes": "byte",
}
YIELDS = {  # found / candidates
    "policy.enumerate.yield": ("policy.enumerate.found", "policy.enumerate.candidates"),
    "infinite.census.yield": ("infinite.census.found", "infinite.census.candidates"),
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SELF_TIMED}
    units.update(COUNTER_UNITS)
    units.update({name: "ratio" for name in YIELDS})
    units["tracing.overhead_s"] = "s"
    return units


def calibrate() -> float:
    """Time a fixed pure-Python Fraction loop: the host's speed right now."""
    start = time.perf_counter()
    third, table = Fraction(1, 3), {}
    for i in range(CALIBRATION_LOOPS):
        table[i] = third * i + Fraction(i, 7)
    return time.perf_counter() - start


def scale_between(before: float, after: float) -> float:
    return CALIBRATION_REFERENCE_S / ((before + after) / 2)


def set_up(workload: str, seed: int, size: str, out: Path) -> tuple[float, float]:
    """Run set-up in a fresh interpreter; return its wall and scaled time."""
    command = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
               "--seed", str(seed), "--size", size, "--out", str(out)]
    before = calibrate()
    start = time.perf_counter()
    completed = subprocess.run(command, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    if completed.returncode != 0:
        raise SystemExit(f"error: set-up exited with {completed.returncode}")
    return wall, wall * scale_between(before, calibrate())


@dataclass
class Call:
    wall: float
    code: object
    stdout: str
    scale: float = 1.0

    @property
    def scaled(self) -> float:
        return self.wall * self.scale


def run_pass(cli, calls: list[dict], tracer=None) -> list[Call]:
    """Make every call once, timing each and scaling it to reference speed.

    Calls are grouped into segments of at least SEGMENT_S; a segment's scale
    is CALIBRATION_REFERENCE_S over the mean of the calibrations timed just
    before and just after it.
    """
    results: list[Call] = []
    gc.collect()
    before, segment, segment_start = calibrate(), [], time.perf_counter()
    for call_id, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = call_id
        buffer = io.StringIO()
        began = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            try:
                code = cli.main(call["argv"])
            except Exception as exc:  # a crash is a failed call, not a failed run
                code = f"{type(exc).__name__}: {exc}"
        result = Call(time.perf_counter() - began, code, buffer.getvalue())
        results.append(result)
        segment.append(result)
        if time.perf_counter() - segment_start >= SEGMENT_S or call_id == len(calls) - 1:
            after = calibrate()
            for done in segment:
                done.scale = scale_between(before, after)
            before, segment, segment_start = after, [], time.perf_counter()
    return results


class Gate:
    """Checks every report against its recorded answer and tallies failures."""

    def __init__(self, reference: dict, eps: float):
        self.answers = reference["answers"]
        self.eps = eps
        self.attempted = 0
        self.failed = 0

    def check(self, calls: list[dict], results: list[Call]) -> None:
        for call, result in zip(calls, results):
            self.attempted += 1
            entry = self.answers.get(call["key"])
            if result.code != 0:
                problem = f"exit {result.code}"
            elif entry is None:
                problem = "no recorded answer"
            elif not answers.matches(json.loads(result.stdout), entry, self.eps):
                problem = "answer differs from the recorded one"
            else:
                continue
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {call['key']}: {problem}", file=sys.stderr)


def report_bytes(stdout: str) -> int:
    """Size of a report, leaving out the run-dependent digits of its timing."""
    field = '"timing_seconds": '
    start = stdout.rfind(field)
    if start < 0:
        return len(stdout)
    start += len(field)
    return len(stdout) - (stdout.index("\n", start) - start)


def quantile_line(name: str, samples: list[float], unit: str) -> str:
    """Median, plus p90 when at least ten samples lie beyond it."""
    line = f"{name}.p50 = {statistics.median(samples):.6f} {unit}"
    if len(samples) >= 2:
        p90 = statistics.quantiles(samples, n=10)[8]
        if sum(1 for x in samples if x > p90) >= 10:
            line += f", {name}.p90 = {p90:.6f} {unit}"
    return line + f" (n={len(samples)})"


def measure(cli, plan: dict, gate: Gate, seconds: float) -> dict:
    calls = plan["calls"]
    passes, walls, op_times = [], [], defaultdict(list)
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        results = run_pass(cli, calls)
        gate.check(calls, results)
        passes.append(sum(r.scaled for r in results))
        walls.append(sum(r.wall for r in results))
        for call, result in zip(calls, results):
            op_times[call["op"]].append(result.scaled)
    for op, samples in sorted(op_times.items()):
        print(quantile_line(f"{op}_s", samples, "s"))
    print(quantile_line("pass_s", passes, "s"))
    print(quantile_line("unscaled pass_s", walls, "s"))
    pass_p50 = statistics.median(passes)
    return {"pass_s.p50": pass_p50, "models_per_s": plan["models"] / pass_p50}


def measure_traced(cli, plan: dict, gate: Gate, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes; report per-layer metrics."""
    calls = plan["calls"]
    tracer = tracing.Tracer()
    plain, traced, self_times, counters = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        results = run_pass(cli, calls)
        gate.check(calls, results)
        plain.append(sum(r.scaled for r in results))

        first_span = len(tracer.spans)
        tracer.counters.clear()
        tracer.install()
        try:
            results = run_pass(cli, calls, tracer)
        finally:
            tracer.uninstall()
        gate.check(calls, results)
        traced.append(sum(r.scaled for r in results))
        self_times.append(tracer.self_times(first_span, [r.scale for r in results]))
        tracer.counters["cli.report_bytes"] = sum(report_bytes(r.stdout) for r in results)
        counters.append(dict(tracer.counters))
    tracer.dump(spans_path)

    if any(c != counters[0] for c in counters):
        print("FAILED counters differ between traced passes", file=sys.stderr)
        gate.failed += 1
    counts = counters[0]
    metrics = {
        f"{name}.self_s": statistics.median(t.get(name, 0.0) for t in self_times)
        for name in SELF_TIMED
    }
    metrics.update({name: counts.get(name, 0) for name in COUNTER_UNITS})
    for name, (found, candidates) in YIELDS.items():
        metrics[name] = counts.get(found, 0) / counts[candidates] if counts.get(candidates) else 0.0
    metrics["tracing.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(quantile_line("untraced pass_s", plain, "s"))
    print(quantile_line("traced pass_s", traced, "s"))
    print(f"{'span':<42} {'calls':>8} {'self_s (median pass)':>22}")
    names = {name for t in self_times for name in t}
    for name in sorted(names, key=lambda n: -statistics.median(t.get(n, 0.0) for t in self_times)):
        median = statistics.median(t.get(name, 0.0) for t in self_times)
        print(f"{name:<42} {counts.get(name + '.calls', ''):>8} {median:>22.6f}")
    print(f"spans written to {spans_path}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="condstop benchmark")
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full",
                        help="'smoke' runs one pass at toy size, for the benchmark's tests")
    args = parser.parse_args(argv)

    condstop = inputs.import_condstop()
    from condstop import cli

    out = WORK / f"{args.workload}-{args.size}"
    setups = [set_up(args.workload, args.seed, args.size, out)
              for _ in range(SETUP_REPEATS[args.size])]
    plan = json.loads((out / "calls.json").read_text(encoding="utf-8"))
    reference = json.loads(inputs.REFERENCE_PATH.read_text(encoding="utf-8"))
    gate = Gate(reference, float(inputs.FLOAT_EPS))
    seconds = args.seconds if args.size == "full" else 0.0

    print(f"condstop {condstop.__version__}, workload {args.workload}, seed {args.seed}, "
          f"size {args.size}, {len(plan['calls'])} calls per pass")
    if args.trace:
        metrics = measure_traced(cli, plan, gate, seconds, out / "spans.jsonl")
        units = per_layer_units()
    else:
        metrics = measure(cli, plan, gate, seconds)
        metrics["setup_s"] = statistics.median(scaled for _, scaled in setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
        print(f"setup_s = {metrics['setup_s']:.6f} s, unscaled "
              f"{statistics.median(wall for wall, _ in setups):.6f} s (median of {len(setups)})")
    print(f"attempted {gate.attempted}, failed {gate.failed}, "
          f"fail_ratio {gate.failed / gate.attempted:.6f}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit}")

    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
