"""The command line as a real process: the subcommands on the builtins,
refusals with their exit codes, reports that do not depend on input order,
a report piped into `head`, byte-stable `--json`, and `solve` writing a
chain's pair and policy documents for `verify` to read back.

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


def run(directory, *args, timeout=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*command(), *args], cwd=directory, env=environment(), capture_output=True, text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize(
    "args",
    [
        ("example", "binomial"),
        ("solve", "--model", "two-state", "--horizon", "8"),
        ("precommit", "--model", "two-state", "--horizon", "8"),
        ("enumerate", "--model", "minnie-donald", "--period", "7"),
        ("enumerate", "--model", "two-state", "--period", "12"),
        ("truncate", "--model", "two-state", "--max-horizon", "10", "--window", "3"),
        ("solve", "--model", "binomial", "--float", "--eps", "0.5"),
    ],
    ids=["example-binomial", "solve-two-state-h8", "precommit-two-state-h8",
         "enumerate-minnie-donald-p7", "enumerate-two-state-p12", "truncate-two-state",
         "solve-binomial-float-eps"],
)
def test_command_reports(tmp_path, args):
    done = run(tmp_path, *args, "--json")
    assert done.returncode == 0, done.stderr
    json.loads(done.stdout)


@pytest.mark.parametrize("flags", [(), ("--float",)], ids=["exact", "float"])
def test_minnie_donald_has_two_equilibria_of_period_four(tmp_path, flags):
    done = run(tmp_path, "enumerate", "--model", "minnie-donald", "--period", "4", *flags, "--json")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["count"] == 2


def test_repeated_policy_key_exits_two(tmp_path):
    (tmp_path / "dup.json").write_text('{"decisions": {"root": 1, "root": 0}}')
    assert run(tmp_path, "phi", "--model", "binomial", "--policy", "dup.json", "--json").returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("truncate", "--model", "two-state", "--max-horizon", "10", "--horizon", "3", "--json"),
        ("solve", "--model", "binomial", "--eps", "0.5"),
    ],
    ids=["horizon-ignored", "eps-without-float"],
)
def test_option_that_does_not_apply_exits_three(tmp_path, args):
    assert run(tmp_path, *args).returncode == 3


def test_huge_decimal_exponent_exits_two_in_time(tmp_path):
    model = condstop.dump_model(condstop.two_state_model())
    model["payoff"]["1"] = "1e10000000"
    (tmp_path / "big.json").write_text(json.dumps(model))
    assert run(tmp_path, "solve", "--model", "big.json", "--horizon", "2", timeout=20).returncode == 2


def test_float_census_ignores_row_key_order(tmp_path):
    model = {
        "type": "markov", "states": [0, 1, 2], "initial": 1,
        "transitions": {"0": {"1": "5/11", "2": "4/11", "0": "2/11"},
                        "1": {"0": "1/6", "1": "5/12", "2": "5/12"}, "2": {"0": "1"}},
        "domain": [0, 1, 2], "payoff": {"0": "19/3", "1": "13", "2": "-1"},
        "discount": "18/25", "horizon": "infinite",
    }
    (tmp_path / "rows.json").write_text(json.dumps(model))
    model["transitions"] = {x: dict(reversed(list(r.items()))) for x, r in model["transitions"].items()}
    (tmp_path / "reversed.json").write_text(json.dumps(model))
    reports = []
    for name in ("rows.json", "reversed.json"):
        done = run(tmp_path, "enumerate", "--model", name, "--period", "2", "--float", "--json")
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        reports.append((report["results"], report["model_digest"]))
    assert reports[0] == reports[1]


def test_deep_tree_listed_deepest_first_solves(tmp_path):
    nodes = [{"id": "n0", "prob": "1", "in_domain": True, "payoff": "1"}] + [
        {"id": f"n{i}", "parent": f"n{i - 1}", "prob": "1", "in_domain": True, "payoff": str(i % 7)}
        for i in range(1, 3000)
    ]
    (tmp_path / "deep.json").write_text(json.dumps({"type": "tree", "nodes": nodes[::-1]}))
    done = run(tmp_path, "solve", "--model", "deep.json", "--json")
    assert done.returncode == 0, done.stderr


def test_report_piped_into_head_leaves_stderr_empty(tmp_path):
    with open(tmp_path / "err.txt", "w") as err, subprocess.Popen(
        [*command(), "solve", "--model", "two-state", "--horizon", "12", "--json"],
        cwd=tmp_path, env=environment(), stdout=subprocess.PIPE, stderr=err,
    ) as solver:
        head = subprocess.run(
            ["head", "-n", "1"], stdin=solver.stdout, capture_output=True, timeout=120
        )
        solver.stdout.close()
        code = solver.wait(timeout=120)
    assert (head.returncode, head.stdout) == (0, b"{\n")
    assert code == 0
    assert (tmp_path / "err.txt").read_text() == ""


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "--model", "two-state", "--horizon", "10"),
        ("solve", "--model", "two-state", "--horizon", "10", "--float"),
        ("enumerate", "--model", "minnie-donald", "--period", "4"),
    ],
    ids=["solve-two-state-h10", "solve-two-state-h10-float", "enumerate-minnie-donald-p4"],
)
def test_json_report_is_sorted_and_indented(tmp_path, args):
    done = run(tmp_path, *args, "--json")
    assert done.returncode == 0, done.stderr
    assert done.stdout == json.dumps(json.loads(done.stdout), sort_keys=True, indent=2) + "\n"


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
