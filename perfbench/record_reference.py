"""Record `reference.json`: the answer to every call the benchmark can make.

    python3 perfbench/record_reference.py

Runs every member of the tree and chain pools, the Minnie-Donald census and
both chain workloads at both sizes, and stores for each call the digest of
its answer (see `answers.py`), plus each pool model's digest.  Pool members
are then sorted by the cost measured here (best of ten, scaled as in
`run.py`) and paired with their neighbour, cheapest pair first;
`inputs.pick` takes one of each pair.

Run it only on a commit whose answers are known to be right: the benchmark
treats whatever it records as correct.
"""

from __future__ import annotations

import json
import sys

import answers
import inputs
import run

REPEATS = 10


def record_calls(cli, calls: list[dict], eps: float | None, store: dict, repeats: int = 1):
    """Record each call's answer; return each call's best scaled time."""
    best: dict[str, float] = {}
    for _ in range(repeats):
        for call, result in zip(calls, run.run_pass(cli, calls)):
            if result.code != 0:
                raise SystemExit(f"error: {call['key']} exited with {result.code}")
            entry = answers.record(json.loads(result.stdout), eps)
            if store.setdefault(call["key"], entry) != entry:
                raise SystemExit(f"error: {call['key']} gave different answers on repeated runs")
            best[call["key"]] = min(best.get(call["key"], result.scaled), result.scaled)
    return best


def cost_pairs(size: int, calls: list[dict], best: dict) -> list[list[int]]:
    cost = [0.0] * size
    for call in calls:
        cost[int(call["key"].split("/")[1])] += best[call["key"]]
    order = sorted(range(size), key=cost.__getitem__)
    return [order[i:i + 2] for i in range(0, size, 2)]


def main() -> int:
    inputs.import_condstop()
    from condstop import cli

    out = inputs.ROOT / ".bench_work" / "record"
    out.mkdir(parents=True, exist_ok=True)
    store: dict = {}
    reference = {"answers": store, "models": {}}

    for kind, pool in (("tree", inputs.tree_pool()), ("chain", inputs.chain_pool())):
        for index, model in enumerate(pool):
            reference["models"][f"{kind}/{index}"] = inputs.short_digest(model)
        calls = inputs.pool_calls(kind, pool, range(len(pool)), out, None)
        best = record_calls(cli, calls, None, store, REPEATS)
        reference[f"{kind}_pairs"] = cost_pairs(len(pool), calls, best)
        print(f"{kind} pool: {len(pool)} models, {len(calls)} calls", file=sys.stderr)

    max_period = max(size["max_period"] for size in inputs.SIZES.values())
    record_calls(cli, inputs.minnie_donald_calls(out, max_period), None, store)
    for workload, eps in (("chain-deep", None), ("chain-float", float(inputs.FLOAT_EPS))):
        for size in inputs.SIZES.values():
            calls = inputs.chain_calls(workload, out, size["horizon"])
            record_calls(cli, calls, eps, store)
    print(f"{len(store)} answers recorded", file=sys.stderr)

    inputs.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
