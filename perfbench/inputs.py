"""Workload inputs for the condstop benchmark.

Run as a script, this module is the benchmark's set-up step: a fresh
interpreter imports condstop, writes one workload's model, pair and policy
files into a work directory, and writes the list of CLI calls a pass makes
(`calls.json`).  `run.py` times that whole process as `setup_s`.

    python3 perfbench/inputs.py --workload tree-corpus --seed 7 --out DIR

Seeded inputs come from fixed pools drawn with the seeds of
`tests/conftest.py` (20240817 for trees, 4711 for chains), so every input has
an answer recorded in `reference.json`.  Pool members are paired by the cost
measured when the references were recorded, and `--seed` takes one member of
each pair: another seed gives other inputs but the same amount of work, which
keeps run-to-run spread low.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("chain-deep", "chain-float", "tree-corpus", "periodic-census")
TREE_POOL_SEED = 20240817
CHAIN_POOL_SEED = 4711
TREE_POOL_SIZE = 480
CHAIN_POOL_SIZE = 24
FLOAT_EPS = "1e-9"

# "full" is the measured benchmark; "smoke" runs every workload once at toy
# size, for the benchmark's own tests.
SIZES = {
    "full": {"horizon": 13, "trees": 240, "max_period": 6, "chains": 12},
    "smoke": {"horizon": 6, "trees": 5, "max_period": 3, "chains": 2},
}
CHAIN_PERIODS = (1, 2)


def import_condstop():
    """Import condstop from this checkout's `src`, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "condstop" / "__init__.py").is_file():
        raise SystemExit(f"error: no condstop sources under {src}")
    sys.path.insert(0, str(src))
    import condstop

    if Path(condstop.__file__).resolve().parent != src / "condstop":
        raise SystemExit(f"error: imported condstop from {condstop.__file__}, not {src}")
    return condstop


def tree_pool():
    from condstop.random_models import random_tree

    rng = random.Random(TREE_POOL_SEED)
    return [random_tree(rng) for _ in range(TREE_POOL_SIZE)]


def chain_pool():
    from condstop.random_models import random_markov_model

    rng = random.Random(CHAIN_POOL_SEED)
    return [random_markov_model(rng, n_states=4) for _ in range(CHAIN_POOL_SIZE)]


def pick(pairs, count: int, seed: int) -> list[int]:
    """One member of each of the first `count` cost-matched pairs."""
    rng = random.Random(seed)
    return [pair[rng.randrange(2)] for pair in pairs[:count]]


def short_digest(model) -> str:
    from condstop.modelio import model_digest

    return model_digest(model)[:16]


def _write_json(path: Path, document) -> None:
    path.write_text(json.dumps(document, sort_keys=True), encoding="utf-8")


def _write_model(path: Path, model, expected_digest: str | None = None) -> str:
    from condstop.modelio import dump_model

    if expected_digest is not None and short_digest(model) != expected_digest:
        raise SystemExit(
            f"error: generated input {path.name} differs from the one the references "
            "were recorded for; the generators in condstop.random_models changed"
        )
    _write_json(path, dump_model(model))
    return str(path)


def _call(op: str, key: str, argv: list[str]) -> dict:
    return {"op": op, "key": key, "argv": argv + ["--json"]}


def chain_calls(workload: str, out: Path, horizon: int) -> list[dict]:
    """solve, verify --pair --policy, truncate on the two-state chain."""
    from condstop import cli
    from condstop.catalog import two_state_model

    model = _write_model(out / "two-state.json", two_state_model())
    mode = ["--float", "--eps", FLOAT_EPS] if workload == "chain-float" else []
    prefix = f"{workload}/h{horizon}"
    solve = ["solve", "--model", model, "--horizon", str(horizon)] + mode
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(solve + ["--json"])
    if code != 0:
        raise SystemExit(f"error: set-up solve exited with {code}")
    results = json.loads(buffer.getvalue())["results"]
    pair, policy = out / "pair.json", out / "policy.json"
    _write_json(pair, results["pair"])
    _write_json(policy, results["policy"])
    verify = ["verify", "--model", model, "--horizon", str(horizon),
              "--pair", str(pair), "--policy", str(policy)] + mode
    truncate = ["truncate", "--model", model, "--max-horizon", str(horizon - 1),
                "--window", "3"] + mode
    return [
        _call("solve", f"{prefix}/solve", solve),
        _call("verify", f"{prefix}/verify", verify),
        _call("truncate", f"{prefix}/truncate", truncate),
    ]


def pool_calls(kind: str, pool: list, indices, out: Path, digests: dict | None) -> list[dict]:
    """Calls for the chosen members of a tree or chain pool."""
    calls = []
    for index in indices:
        key = f"{kind}/{index}"
        expected = None if digests is None else digests[key]
        model = _write_model(out / f"{kind}-{index}.json", pool[index], expected)
        if kind == "tree":
            for op in ("solve", "enumerate", "precommit"):
                calls.append(_call(op, f"{key}/{op}", [op, "--model", model]))
        else:
            for p in CHAIN_PERIODS:
                calls.append(_call("enumerate", f"{key}/p{p}/enumerate",
                                   ["enumerate", "--model", model, "--period", str(p)]))
    return calls


def minnie_donald_calls(out: Path, max_period: int) -> list[dict]:
    from condstop.catalog import minnie_donald_model

    model = _write_model(out / "minnie-donald.json", minnie_donald_model())
    return [
        _call("enumerate", f"minnie-donald/p{p}/enumerate",
              ["enumerate", "--model", model, "--period", str(p)])
        for p in range(1, max_period + 1)
    ]


def write_inputs(workload: str, seed: int, size_name: str, out: Path) -> None:
    """Write one workload's inputs and its call list under `out`."""
    size = SIZES[size_name]
    reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    out.mkdir(parents=True, exist_ok=True)
    if workload in ("chain-deep", "chain-float"):
        calls, models = chain_calls(workload, out, size["horizon"]), 1
    elif workload == "tree-corpus":
        chosen = pick(reference["tree_pairs"], size["trees"], seed)
        calls = pool_calls("tree", tree_pool(), chosen, out, reference["models"])
        models = size["trees"]
    elif workload == "periodic-census":
        chosen = pick(reference["chain_pairs"], size["chains"], seed)
        calls = minnie_donald_calls(out, size["max_period"])
        calls += pool_calls("chain", chain_pool(), chosen, out, reference["models"])
        models = 1 + size["chains"]
    else:
        raise SystemExit(f"error: unknown workload {workload!r}")
    plan = {"workload": workload, "seed": seed, "size": size_name,
            "models": models, "calls": calls}
    _write_json(out / "calls.json", plan)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    import_condstop()
    write_inputs(args.workload, args.seed, args.size, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
