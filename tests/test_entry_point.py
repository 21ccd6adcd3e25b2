"""The command line as a real process: `solve` writes a chain's pair and
policy documents, and `verify` reads them back.

Each check runs `condstop` in a subprocess.  By default that is
`python -m condstop.cli` under this interpreter, with the imported package on
its path, so the checks run wherever the tests do.  With
`CONDSTOP_INSTALLED_SCRIPT=1` in the environment they run the installed
`condstop` console script instead, and a missing script fails every check.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import condstop

INSTALLED = os.environ.get("CONDSTOP_INSTALLED_SCRIPT") == "1"


def command() -> list:
    if not INSTALLED:
        return [sys.executable, "-m", "condstop.cli"]
    script = shutil.which("condstop")
    if script is None:
        pytest.fail("CONDSTOP_INSTALLED_SCRIPT=1 but no condstop script is on PATH")
    return [script]


def environment() -> dict:
    env = dict(os.environ)
    if not INSTALLED:
        package_root = str(Path(condstop.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run(directory, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*command(), *args], cwd=directory, env=environment(), capture_output=True, text=True
    )


def solve_to_documents(directory, model_args, prefix):
    """`solve --json`, its pair and policy written to `<prefix>pair.json` and
    `<prefix>policy.json`."""
    solved = run(directory, "solve", *model_args, "--json")
    assert solved.returncode == 0, solved.stderr
    results = json.loads(solved.stdout)["results"]
    for name in ("pair", "policy"):
        (directory / f"{prefix}{name}.json").write_text(json.dumps(results[name]))


TWO_STATE = ("--model", "two-state", "--horizon", "8")


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A directory holding the two-state chain's solved `pair.json` and
    `policy.json` at horizon 8."""
    directory = tmp_path_factory.mktemp("entry-point")
    solve_to_documents(directory, TWO_STATE, "")
    return directory


def verify(directory, *args, json_report=True) -> subprocess.CompletedProcess:
    return run(directory, "verify", *args, *(("--json",) if json_report else ()))


def test_solved_pair_and_policy_verify(solved):
    done = verify(solved, *TWO_STATE, "--pair", "pair.json", "--policy", "policy.json")
    assert done.returncode == 0, done.stderr


def edited_pair(directory, name, edit):
    pair = json.loads((directory / "pair.json").read_text())
    edit(pair, max(pair["V"]))
    (directory / name).write_text(json.dumps(pair))


def test_bumped_value_fails_verification(solved):
    def bump(pair, atom):
        pair["V"][atom] = str(Fraction(pair["V"][atom]) + 1)

    edited_pair(solved, "bumped.json", bump)
    done = verify(solved, *TWO_STATE, "--pair", "bumped.json", "--policy", "policy.json")
    assert done.returncode == 1, done.stderr


def test_boolean_survival_entry_is_refused(solved):
    def to_true(pair, atom):
        pair["S"][atom] = True

    edited_pair(solved, "true.json", to_true)
    done = verify(solved, *TWO_STATE, "--pair", "true.json", "--policy", "policy.json")
    assert done.returncode == 2, done.stderr


def test_policy_without_a_region_for_some_time_is_refused(solved):
    policy = json.loads((solved / "policy.json").read_text())
    del policy["regions"]["3"]
    (solved / "missing.json").write_text(json.dumps(policy))
    done = verify(solved, *TWO_STATE, "--policy", "missing.json", json_report=False)
    assert done.returncode == 3, done.stderr


def test_states_named_with_colons_solve_and_verify(tmp_path):
    row = {"x": "1/3", "a:b": "1/3", "c:d": "1/3"}
    model = {
        "type": "markov", "states": ["x", "a:b", "c:d"], "initial": "a:b",
        "transitions": {"x": {"x": "1"}, "a:b": row, "c:d": row},
        "domain": ["a:b", "c:d"], "payoff": {"a:b": "1", "c:d": "6/5"},
        "discount": "9/10", "horizon": 6,
    }
    (tmp_path / "colon.json").write_text(json.dumps(model))
    solve_to_documents(tmp_path, ("--model", "colon.json"), "colon-")
    done = verify(tmp_path, "--model", "colon.json",
                  "--pair", "colon-pair.json", "--policy", "colon-policy.json")
    assert done.returncode == 0, done.stderr
