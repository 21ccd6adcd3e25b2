"""The benchmark's own tests: smoke-size runs of every workload, both modes.

    python3 -m pytest -q perfbench

Each run here is one pass at toy size (`--size smoke`): horizon 6, 5 trees,
periods up to 3.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import inputs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return completed


def last_json(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_reports_every_metric_and_passes_the_gate(workload, trace):
    result = last_json(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["tree-corpus", "periodic-census"])
def test_counters_repeat_exactly_for_one_seed(workload):
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

    def counters():
        metrics = last_json(run_bench(workload, 1))["metrics"]
        return json.dumps({k: v["value"] for k, v in metrics.items() if units[k] != "s"},
                          sort_keys=True)

    assert counters() == counters()


def test_another_seed_changes_the_seeded_inputs():
    reference = json.loads(inputs.REFERENCE_PATH.read_text(encoding="utf-8"))
    for pairs, count in ((reference["tree_pairs"], 240), (reference["chain_pairs"], 12)):
        assert inputs.pick(pairs, count, 1) != inputs.pick(pairs, count, 2)
        assert inputs.pick(pairs, count, 1) == inputs.pick(pairs, count, 1)


def test_gate_checks_exact_answers_exactly():
    report = {"results": {"V0": "13/2", "stopping_times_examined": 9}, "verification": {}}
    entry = answers.record(report, None)
    fewer = {"results": {"V0": "13/2", "stopping_times_examined": 3}, "verification": {}}
    assert answers.matches(fewer, entry, 1e-9)
    wrong = {"results": {"V0": "13/3", "stopping_times_examined": 9}, "verification": {}}
    assert not answers.matches(wrong, entry, 1e-9)


def test_gate_checks_floats_within_eps_and_decisions_exactly():
    def report(value, region):
        return {"results": {"V0": repr(value), "policy": {"regions": {"0": region}}},
                "verification": {"is_equilibrium": True}}

    entry = answers.record(report(0.99, ["1"]), 1e-9)
    assert answers.matches(report(0.99 + 1e-12, ["1"]), entry, 1e-9)
    assert not answers.matches(report(0.99 + 1e-6, ["1"]), entry, 1e-9)
    assert not answers.matches(report(0.99, ["1", "2"]), entry, 1e-9)


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("chain-deep", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
