"""End-to-end drives of the command-line interface."""

import builtins
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from condstop import backward_solve, binomial_tree, cli, dump_model, dump_pair, two_state_model
from condstop import policy as policy_module
from condstop.cli import main
from condstop.model import Atom, AtomTree, MarkovModel
from condstop.modelio import load_model, model_digest
from condstop.numeric import EXACT, float_mode


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(dump_model(binomial_tree())))
    return str(path)


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(dump_model(two_state_model())))
    return str(path)


class TestSolve:
    def test_binomial_human_output(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "binomial")
        assert code == 0
        assert "V_0 = 13/2" in out
        assert "S_0 = 1" in out
        assert "theta_0 = 0" in out
        assert "equilibrium: yes" in out
        assert "model digest:" in out

    def test_model_file_round_trip_matches_builtin(self, capsys, tree_file):
        code, out, _ = run(capsys, "solve", "--model", tree_file)
        assert code == 0
        assert "V_0 = 13/2" in out

    def test_unrolled_chain_reports_regions(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "two-state", "--horizon", "4")
        assert code == 0
        assert "stop regions by time:" in out

    def test_infinite_chain_needs_horizon(self, capsys):
        code, _, err = run(capsys, "solve", "--model", "two-state")
        assert code == 3
        assert "--horizon" in err

    def test_float_mode(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "binomial", "--float")
        assert code == 0
        assert "6.5" in out

    def test_json_report_shape(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "binomial", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["V0"] == "13/2"
        assert doc["results"]["theta0"] == 0
        assert doc["verification"]["is_equilibrium"] is True
        assert len(doc["model_digest"]) == 64
        assert doc["command"][0] == "solve"


class TestPrecommit:
    def test_binomial(self, capsys):
        code, out, _ = run(capsys, "precommit", "--model", "binomial")
        assert code == 0
        assert "precommitted value = 22/3" in out
        assert "du" in out and "dd" in out

    def test_size_guard_via_environment(self, capsys, monkeypatch):
        # The guard bounds the equilibrium censuses only; precommit sweeps.
        monkeypatch.setenv("CONDSTOP_SIZE_GUARD", "1")
        code, out, err = run(capsys, "precommit", "--model", "binomial")
        assert code == 0 and err == ""
        assert "precommitted value = 22/3" in out

    def test_garbage_guard_warns_and_proceeds(self, capsys, monkeypatch):
        monkeypatch.setenv("CONDSTOP_SIZE_GUARD", "many")
        code, out, err = run(capsys, "enumerate", "--model", "binomial")
        assert code == 0
        assert "warning" in err

    @pytest.mark.parametrize(
        "argv",
        [["enumerate", "--model", "binomial"],
         ["enumerate", "--model", "minnie-donald", "--period", "1"]],
        ids=["tree-census", "periodic-census"],
    )
    @pytest.mark.parametrize("guard", ["0", "-3"])
    def test_guard_below_one_warns_and_proceeds(self, capsys, monkeypatch, argv, guard):
        # every census makes at least one sweep or candidate, so such a guard could only refuse
        monkeypatch.setenv("CONDSTOP_SIZE_GUARD", guard)
        code, out, err = run(capsys, *argv)
        assert code == 0 and "equilibria found:" in out
        assert err == f"warning: ignoring CONDSTOP_SIZE_GUARD='{guard}' below 1\n"

    def test_long_chain_answers(self, capsys):
        # Far too many stopping times to list one by one: the exhaustive
        # search exited 4 here.
        argv = ["precommit", "--model", "two-state", "--horizon", "8", "--json"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["stopping_times_examined"] == 3


class TestPhi:
    def test_tree_step_lists_changed_atoms(self, capsys, tmp_path, tree_file):
        tree = binomial_tree()
        stop_all = {aid: 1 for aid in tree.atom_ids()}
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps({"decisions": stop_all}))
        code, out, _ = run(
            capsys, "phi", "--model", tree_file, "--policy", str(policy_path)
        )
        assert code == 0
        assert "changed atoms: {root}" in out

    def test_fixed_point_reported(self, capsys, tmp_path, tree_file):
        _, policy = backward_solve(binomial_tree())
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps({"decisions": dict(policy.decisions)}))
        code, out, _ = run(
            capsys, "phi", "--model", tree_file, "--policy", str(policy_path)
        )
        assert code == 0
        assert "fixed point: no change" in out

    def test_markov_step(self, capsys, tmp_path):
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(
            json.dumps({"period": 1, "regions": {"0": [0, 1, 2]}})
        )
        code, out, _ = run(
            capsys,
            "phi", "--model", "two-state", "--period", "1",
            "--policy", str(policy_path),
        )
        assert code == 0
        assert "phase 0" in out

    @pytest.mark.parametrize("key", ["+0", "00", "1_0", "-1"])
    def test_region_keys_must_be_canonical(self, capsys, tmp_path, key):
        # "+0" and "00" used to alias phase 0 and "1_0" to time 10.
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(
            '{"period": 1, "regions": {"0": [0, 2], "%s": [0, 1, 2]}}' % key
        )
        code, out, err = run(
            capsys,
            "phi", "--model", "two-state", "--period", "1",
            "--policy", str(policy_path),
        )
        assert code == 2 and out == ""
        assert err == f"error: policy: region key {key!r} is not a canonical non-negative integer\n"

    def test_repeated_region_key_is_rejected(self, capsys, tmp_path):
        # The second "0" used to override the first, and phi ran on {0, 1, 2}.
        policy_path = tmp_path / "policy.json"
        policy_path.write_text('{"period": 1, "regions": {"0": [0, 2], "0": [0, 1, 2]}}')
        code, out, err = run(
            capsys,
            "phi", "--model", "two-state", "--period", "1",
            "--policy", str(policy_path),
        )
        assert code == 2 and out == ""
        assert err == f"error: {policy_path}: duplicate key '0'\n"

    def test_changed_phases_in_numeric_order(self, capsys, tmp_path):
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(
            json.dumps({"period": 12, "regions": {str(p): [0, 1] for p in range(12)}})
        )
        code, out, _ = run(
            capsys,
            "phi", "--model", "two-state", "--period", "12",
            "--policy", str(policy_path),
        )
        assert code == 0
        phases = [str(p) for p in range(12)]
        assert f"changed phases: {phases}\n" in out
        assert [line.split(":")[0] for line in out.splitlines() if line.startswith("  phase")] == [
            f"  phase {p}" for p in range(12)
        ]

    def test_period_mismatch(self, capsys, tmp_path):
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(
            json.dumps({"period": 2, "regions": {"0": [0, 1, 2], "1": [0, 1, 2]}})
        )
        code, _, err = run(
            capsys,
            "phi", "--model", "two-state", "--period", "4",
            "--policy", str(policy_path),
        )
        assert code == 2
        assert "disagrees" in err


class TestEnumerate:
    def test_binomial_tree(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--model", "binomial")
        assert code == 0
        assert "equilibria found: 1" in out
        assert "root value 13/2" in out

    def test_one_sweep_per_equilibrium(self, capsys, monkeypatch):
        calls = []
        sweep = policy_module._sweep
        monkeypatch.setattr(policy_module, "_sweep", lambda *args: calls.append(1) or sweep(*args))
        code, out, _ = run(capsys, "enumerate", "--model", "binomial", "--json")
        assert code == 0
        assert len(calls) == json.loads(out)["results"]["count"] == 1

    def test_path_tree_answers_at_the_default_guard(self, capsys, tmp_path):
        # 22 free atoms but one equilibrium, found by one sweep.
        atoms = [Atom(f"a{t}", t, f"a{t - 1}" if t else None, F(1), True, F(t)) for t in range(23)]
        path = tmp_path / "path.json"
        path.write_text(json.dumps(dump_model(AtomTree(atoms))))
        code, out, _ = run(capsys, "enumerate", "--model", str(path))
        assert code == 0
        assert "equilibria found: 1" in out

    def test_two_state_period_one(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--model", "two-state", "--period", "1"
        )
        assert code == 0
        assert "equilibria found: 2" in out
        assert "99/100" in out
        assert "36/35" in out

    def test_two_state_period_twelve_lists_phases_in_order(self, capsys):
        # State 2 stops at every phase, so 12 slots stay open, not 24.
        code, out, _ = run(
            capsys, "enumerate", "--model", "two-state", "--period", "12"
        )
        assert code == 0
        assert "equilibria found: 2" in out
        phases = [line.split(":")[0] for line in out.splitlines() if line.startswith("  phase")]
        assert phases == [f"  phase {p}" for p in range(12)] * 2

    def test_forced_stop_state_never_deviates(self, capsys, tmp_path):
        # Continuing beats stopping at forced state 2, which must stop anyway.
        model = MarkovModel(
            states=(0, 1, 2, 3),
            initial=1,
            transitions={
                0: {0: F(1)},
                1: {1: F(1, 2), 2: F(1, 2)},
                2: {3: F(1, 2), 0: F(1, 2)},
                3: {3: F(1)},
            },
            domain=frozenset({1, 2, 3}),
            forced_stop=frozenset({2, 3}),
            payoff={1: F(1), 2: F(0), 3: F(10)},
            discount=F(9, 10),
        )
        path = tmp_path / "forced.json"
        path.write_text(json.dumps(dump_model(model)))
        code, out, _ = run(capsys, "enumerate", "--model", str(path), "--period", "1")
        assert code == 0
        assert "equilibria found: 1" in out
        assert "  phase 0: {0, 1, 2, 3}" in out

    def test_period_on_a_tree_is_a_model_error(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--model", "binomial", "--period", "2"
        )
        assert code == 3
        assert "chain models only" in err

    def test_size_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("CONDSTOP_SIZE_GUARD", "1")
        code, _, err = run(
            capsys, "enumerate", "--model", "two-state", "--period", "1"
        )
        assert code == 4
        assert "raise the guard" in err


class TestVerify:
    def test_good_pair_and_policy(self, capsys, tmp_path, tree_file):
        pair, policy = backward_solve(binomial_tree())
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(json.dumps(dump_pair(pair)))
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps({"decisions": dict(policy.decisions)}))
        code, out, _ = run(
            capsys,
            "verify", "--model", tree_file,
            "--pair", str(pair_path), "--policy", str(policy_path),
        )
        assert code == 0
        assert "equilibrium: pass" in out
        assert "FAIL" not in out

    def test_tampered_pair_fails(self, capsys, tmp_path, tree_file):
        pair, _ = backward_solve(binomial_tree())
        doc = dump_pair(pair)
        doc["V"]["root"] = "7"
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "verify", "--model", tree_file, "--pair", str(pair_path)
        )
        assert code == 1
        assert "FAIL" in out

    def test_non_equilibrium_policy_fails(self, capsys, tree_file, tmp_path):
        tree = binomial_tree()
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(
            json.dumps({"decisions": {aid: 1 for aid in tree.atom_ids()}})
        )
        code, out, _ = run(
            capsys, "verify", "--model", tree_file, "--policy", str(policy_path)
        )
        assert code == 1
        assert "deviation at root" in out

    @pytest.mark.parametrize(
        "survival", [{"uu": None}, {"u": "0", "d": "0"}], ids=["missing", "zero"]
    )
    def test_pair_failing_bounds_with_policy(self, capsys, tmp_path, tree_file, survival):
        pair, policy = backward_solve(binomial_tree())
        doc = dump_pair(pair)
        for aid, s in survival.items():
            if s is None:
                del doc["S"][aid]
            else:
                doc["S"][aid] = s
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(json.dumps(doc))
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps({"decisions": dict(policy.decisions)}))
        code, out, err = run(
            capsys,
            "verify", "--model", tree_file,
            "--pair", str(pair_path), "--policy", str(policy_path), "--json",
        )
        assert code == 1
        assert err == ""
        identities = json.loads(out)["verification"]["survival_identities"]
        assert identities["admissibility"]["passed"]
        assert identities["survival_three_case"] == {
            "passed": False, "failures": [["root", "skipped: pair fails bounds"]]
        }

    def test_float_solve_and_verify_agree_on_a_near_tie(self, capsys, tmp_path):
        # The root payoff ties the child's within eps times the payoff scale,
        # so solve and verify must both stop there.
        nodes = [
            {"id": "r", "parent": None, "prob": "1", "in_domain": True, "payoff": "1000"},
            {"id": "a", "parent": "r", "prob": "1/2", "in_domain": True,
             "payoff": "1000.0000005"},
            {"id": "b", "parent": "r", "prob": "1/2", "in_domain": False, "payoff": None},
        ]
        model_path = tmp_path / "tree.json"
        model_path.write_text(json.dumps({"type": "tree", "nodes": nodes}))
        code, out, _ = run(capsys, "solve", "--model", str(model_path), "--float", "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["theta0"] == 1
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(json.dumps(results["pair"]))
        code, out, _ = run(
            capsys, "verify", "--model", str(model_path), "--float", "--pair", str(pair_path)
        )
        assert code == 0
        assert "FAIL" not in out

    def test_requires_something_to_check(self, capsys, tree_file):
        code, _, err = run(capsys, "verify", "--model", tree_file)
        assert code == 2
        assert "--pair" in err
        # checked before the model: an infinite-horizon chain needs no --horizon here
        assert run(capsys, "verify", "--model", "minnie-donald") == (
            2, "", "error: verify requires --pair and/or --policy\n"
        )


class TestTruncate:
    def test_two_state_stabilizes(self, capsys):
        code, out, _ = run(
            capsys, "truncate", "--model", "two-state", "--max-horizon", "10"
        )
        assert code == 0
        assert "stable" in out
        assert "candidate" in out

    def test_unstable_cycle_still_exits_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "truncate", "--model", "minnie-donald",
            "--max-horizon", "9", "--window", "4",
        )
        assert code == 0
        assert "unstable" in out

    def test_an_undecided_trap_stops_as_in_the_census(self, capsys, tmp_path):
        # At discount 1, state 2 loops forever and the chain never reaches
        # it: no truncation decides it, and continuing there never stops.
        doc = {
            "type": "markov", "states": [0, 1, 2], "initial": 1,
            "transitions": {"0": {"0": "1"}, "1": {"1": "1/2", "0": "1/2"}, "2": {"2": "1"}},
            "domain": [1, 2], "payoff": {"1": "1", "2": "-1"}, "discount": "1",
        }
        path = tmp_path / "trap.json"
        path.write_text(json.dumps(doc))
        argv = ["--model", str(path), "--json"]
        code, out, _ = run(capsys, "truncate", *argv, "--max-horizon", "10", "--window", "3")
        report = json.loads(out)
        assert code == 0 and report["verification"] == {"candidate_fixed_point": True}
        code, out, _ = run(capsys, "enumerate", *argv, "--period", "1")
        (survivor,) = json.loads(out)["results"]["equilibria"]
        assert code == 0 and report["results"]["candidate"] == survivor["policy"]

    @pytest.mark.parametrize(
        "argv", [("--max-horizon", "0"), ("--window", "5", "--max-horizon", "3")]
    )
    def test_argument_errors_exit_two(self, capsys, argv):
        code, out, err = run(capsys, "truncate", "--model", "two-state", *argv)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""


class TestExamples:
    def test_binomial_battery(self, capsys):
        code, out, _ = run(capsys, "example", "binomial")
        assert code == 0
        assert "22/3" in out
        assert "13/2" in out

    def test_two_state_battery(self, capsys):
        code, out, _ = run(capsys, "example", "two-state")
        assert code == 0
        assert "99/100" in out
        assert "36/35" in out

    def test_minnie_donald_battery(self, capsys):
        code, out, _ = run(capsys, "example", "minnie-donald")
        assert code == 0
        assert "parameter conditions: all hold" in out
        assert "time-homogeneous equilibria: 0" in out
        assert "period-4 equilibria (distinct a.s.): 2" in out


class TestErrorChannels:
    def test_unreadable_model_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run(capsys, "solve", "--model", str(path))
        assert code == 2
        assert "invalid JSON" in err

    def test_repeated_key_in_model_file(self, capsys, tmp_path):
        text = json.dumps(dump_model(two_state_model()))
        path = tmp_path / "chain.json"
        path.write_text(text.replace('"1": "1"', '"1": "1", "1": "6/5"', 1))
        code, out, err = run(capsys, "enumerate", "--model", str(path), "--period", "1")
        assert code == 2 and out == ""
        assert err == f"error: {path}: duplicate key '1'\n"

    def test_missing_model_file(self, capsys, tmp_path):
        path = tmp_path / "none.json"
        code, _, err = run(capsys, "solve", "--model", str(path))
        assert code == 2
        assert err == f"error: {path}: No such file or directory\n"

    def test_model_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "solve", "--model", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: not UTF-8 text (invalid start byte at byte 0)\n"

    def test_directory_as_model_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "solve", "--model", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"error: {tmp_path}: Is a directory\n"

    def test_float_payload_rejected_in_exact_mode(self, capsys, tmp_path):
        doc = dump_model(binomial_tree())
        doc["nodes"][0]["payoff"] = 2.0
        path = tmp_path / "floaty.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", "--model", str(path))
        assert code == 2

    @pytest.mark.parametrize("horizon", ["true", "1.0", '"1"'])
    def test_tree_horizon_that_is_not_an_integer_exits_two(self, capsys, tmp_path, horizon):
        nodes = [{"id": "r", "prob": "1", "in_domain": True, "payoff": "1"},
                 {"id": "a", "parent": "r", "prob": "1", "in_domain": True, "payoff": "2"}]
        path = tmp_path / "tree.json"
        path.write_text(f'{{"type": "tree", "horizon": {horizon}, "nodes": {json.dumps(nodes)}}}')
        code, out, err = run(capsys, "solve", "--model", str(path))
        assert (code, out) == (2, "")
        message = f"tree model: horizon must be an integer, got {json.loads(horizon)!r}"
        assert err == f"error: {message}\n"

    def test_float_overflow_in_a_model_exits_two(self, capsys, tmp_path):
        doc = dump_model(two_state_model())
        doc["payoff"]["1"] = "1e400"
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--model", str(path), "--horizon", "3", "--float")
        assert (code, out) == (2, "")
        assert err == "error: payoff['1']: '1e400' is out of range for a float\n"
        assert run(capsys, "solve", "--model", str(path), "--horizon", "3")[0] == 0

    def test_float_overflow_in_a_pair_exits_two(self, capsys, tmp_path):
        pair, _ = backward_solve(binomial_tree())
        doc = dump_pair(pair)
        doc["V"]["root"] = "1e400"
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        argv = ["verify", "--model", "binomial", "--pair", str(path)]
        code, out, err = run(capsys, *argv, "--float")
        assert (code, out) == (2, "")
        assert err == "error: V['root']: '1e400' is out of range for a float\n"
        assert run(capsys, *argv)[0] == 1

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1", "0"])
    def test_bad_eps_exits_two(self, capsys, eps):
        code, out, err = run(capsys, "solve", "--model", "binomial", "--float", "--eps", eps)
        assert code == 2
        assert err.startswith("error: --eps") and "Traceback" not in err
        assert out == ""
        # a bad value is unparsable input with or without --float
        assert run(capsys, "solve", "--model", "binomial", "--eps", eps)[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--model", "binomial"],
            ["enumerate", "--model", "minnie-donald", "--period", "2"],
            ["example", "binomial"],
        ],
    )
    def test_eps_without_float_is_refused(self, capsys, argv):
        message = "error: exact mode compares without tolerance; --eps 0.5 does not apply\n"
        assert run(capsys, *argv, "--eps", "0.5") == (3, "", message)
        assert run(capsys, *argv, "--float", "--eps", "0.5", "--json")[0] == 0
        assert run(capsys, *argv)[0] == 0

    def test_float_alone_keeps_the_default_eps(self):
        parser = cli.build_parser()
        assert cli._mode(parser.parse_args(["solve", "--model", "binomial", "--float"])) == (
            float_mode(1e-9)
        )
        assert cli._mode(parser.parse_args(["solve", "--model", "binomial"])) is EXACT

    def test_argparse_rejections_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve"])  # --model is required
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["example", "unknown-name"])
        assert excinfo.value.code == 2

    def test_float_row_that_sums_to_one_only_in_file_order(self, capsys, tmp_path):
        # 0.3 + 0.1 + 0.6 is 1.0, but a row adds its exit mass last:
        # (0.3 + 0.6) + 0.1 is 0.9999999999999999, outside eps 1e-20.  Every
        # command refuses the row, the infinite-horizon ones too.
        model, policy = float_row_chain(tmp_path, horizon=3), tmp_path / "policy.json"
        policy.write_text(json.dumps({"regions": {"0": [0]}}))
        (tmp_path / "unbounded").mkdir()
        unbounded = float_row_chain(tmp_path / "unbounded")
        periodic = tmp_path / "periodic.json"
        periodic.write_text(json.dumps({"period": 1, "regions": {"0": [0, 1, 2]}}))
        census = ["enumerate", "--model", unbounded, "--period", "1"]
        phi = ["phi", "--model", unbounded, "--period", "1", "--policy", str(periodic)]
        for command in (["solve", "--model", model], census, phi):
            assert run(capsys, *command, "--float")[0] == 0
        for command in (
            ["solve", "--model", model],
            ["verify", "--model", model, "--policy", str(policy)],
            ["precommit", "--model", model],
            census,
            phi,
        ):
            assert run(capsys, *command, "--float", "--eps", "1e-20") == (3, "", FLOAT_ROW_ERROR)

    def test_truncate_checks_the_float_row_too(self, capsys, tmp_path):
        model = float_row_chain(tmp_path)
        argv = ["truncate", "--model", model, "--max-horizon", "5", "--window", "2", "--float"]
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, *argv, "--eps", "1e-20") == (3, "", FLOAT_ROW_ERROR)

    def test_float_checks_ignore_a_compensated_sum(self, capsys, tmp_path, monkeypatch):
        # Python 3.12's sum() compensates float rounding and totals the row's
        # (0.3 + 0.6) + 0.1 to 1.0; the check adds left to right on every version.
        plain_sum = builtins.sum

        def compensated_sum(values, start=0):
            values = list(values)
            if values and all(type(v) is float for v in values):
                return math.fsum([start, *values])
            return plain_sum(values, start)

        assert compensated_sum([0.3, 0.6, 0.1]) == 1.0
        model = float_row_chain(tmp_path, horizon=3)
        (tmp_path / "unbounded").mkdir()
        unbounded = float_row_chain(tmp_path / "unbounded")
        with monkeypatch.context() as patched:
            patched.setattr(builtins, "sum", compensated_sum)
            for argv in (
                ["solve", "--model", model],
                ["precommit", "--model", model],
                ["truncate", "--model", unbounded, "--max-horizon", "5", "--window", "2"],
            ):
                outcome = run(capsys, *argv, "--float", "--eps", "1e-20")
                assert outcome == (3, "", FLOAT_ROW_ERROR)

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["truncate", "--max-horizon", "5"], "truncate sweeps the horizons 1..--max-horizon"),
            (["enumerate", "--period", "2"], "--period works on the infinite-horizon chain"),
            (["phi", "--period", "1"], "--period works on the infinite-horizon chain"),
        ],
    )
    def test_a_horizon_the_command_ignores_is_refused(self, capsys, tmp_path, argv, reason):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"period": 1, "regions": {"0": [0, 2]}}))
        argv = [*argv, "--model", "two-state"]
        if argv[0] == "phi":
            argv += ["--policy", str(policy)]
        message = f"error: {reason}; --horizon 3 does not apply\n"
        assert run(capsys, *argv, "--horizon", "3") == (3, "", message)
        assert run(capsys, *argv)[0] == 0

    def test_truncate_on_a_finite_chain_is_a_model_error(self, capsys, tmp_path):
        # As for `enumerate --period`: a model error, not unparsable input.
        model = float_row_chain(tmp_path, horizon=3)
        message = "error: this operation requires an infinite-horizon model\n"
        for argv in (
            ["truncate", "--max-horizon", "5", "--window", "2"],
            ["enumerate", "--period", "1"],
        ):
            assert run(capsys, *argv, "--model", model) == (3, "", message)

    def test_example_reads_the_horizon(self, capsys):
        assert run(capsys, "example", "two-state", "--horizon", "0") == (
            3, "", "error: horizon must be a positive integer\n"
        )
        assert run(capsys, "example", "binomial", "--horizon", "5") == (
            3, "", "error: tree model has horizon 2; --horizon 5 conflicts\n"
        )
        assert run(capsys, "example", "binomial", "--horizon", "2")[0] == 0
        code, out, _ = run(capsys, "example", "two-state", "--horizon", "3", "--json")
        assert code == 0
        assert set(json.loads(out)["results"]["solve_regions"]["regions"]) == {"0", "1", "2", "3"}

    @pytest.mark.parametrize("horizon", ["-5", "0", "4"])
    def test_minnie_donald_example_rejects_a_horizon(self, capsys, horizon):
        assert run(capsys, "example", "minnie-donald", "--horizon", horizon, "--json") == (
            3, "", "error: the minnie-donald example is about the infinite-horizon chain; "
            f"--horizon {horizon} does not apply\n"
        )

    def test_closed_stdout_exits_with_the_command_code(self):
        # The reader takes one line of a 260 kB report and closes the pipe.
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with subprocess.Popen(
            [sys.executable, "-m", "condstop.cli", "solve", "--model", "two-state",
             "--horizon", "10", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as process:
            assert process.stdout.readline() == b"{\n"
            process.stdout.close()
            stderr = process.stderr.read().decode()
            code = process.wait(timeout=120)
        assert code == 0
        assert stderr == ""  # no BrokenPipeError traceback


def chain_with(**changes):
    """The two-state chain document with some top-level entries replaced."""
    return {**dump_model(two_state_model()), **changes}


def chain_with_row(key, row):
    doc = dump_model(two_state_model())
    doc["transitions"][key] = row
    return doc


class TestRefusals:
    """Refusals of the exit-code contract: each pins the code, the whole
    `error:` line and an empty stdout."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            (chain_with(transitions=[]), "markov model: 'transitions' must be an object"),
            (chain_with_row("1", ["1"]), "transitions['1'] must be an object"),
            (chain_with(payoff=["1"]), "markov model: 'payoff' must be an object"),
            (chain_with(domain={"1": 1}), "markov model: 'domain' must be a list"),
            (chain_with(forced_stop="2"), "markov model: 'forced_stop' must be a list"),
            (chain_with(states=[]), "markov model: 'states' must be a non-empty list"),
            (chain_with(domain=[1, True]), "domain: True is not a state"),
            (chain_with(domain=[1.5, 2]), "domain: 1.5 is not a state"),
            ({"type": "tree", "nodes": [["root"]]}, "tree model: node 0 must be an object"),
            (chain_with(payoff={"1": "1e10000000", "2": "1"}),
             "payoff['1']: bad rational literal '1e10000000': exponent beyond 4300 in magnitude"),
        ],
    )
    def test_malformed_model_files_exit_two(self, capsys, tmp_path, doc, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        argv = ["solve", "--model", str(path), "--horizon", "2"]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "flag, doc, message",
        [
            ("--pair", [1], "pair document must be a JSON object"),
            ("--policy", {"regions": ["0"]}, "policy: 'regions' must be an object"),
            ("--policy", {"regions": {"0": 1}}, "policy: region '0' must be a list of states"),
        ],
    )
    def test_malformed_pair_and_policy_files_exit_two(self, capsys, tmp_path, flag, doc, message):
        path = tmp_path / "document.json"
        path.write_text(json.dumps(doc))
        argv = ["verify", "--model", "two-state", "--horizon", "2", flag, str(path)]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_period_on_a_tree_is_a_model_error(self, capsys, tmp_path):
        _, policy = backward_solve(binomial_tree())
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"decisions": dict(policy.decisions)}))
        argv = ["phi", "--model", "binomial", "--policy", str(path), "--period", "1"]
        assert run(capsys, *argv) == (3, "", "error: --period applies to chain models only\n")

    def test_period_needs_a_periodic_policy(self, capsys, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"regions": {"0": [0, 2]}}))
        argv = ["phi", "--model", "two-state", "--policy", str(path), "--period", "1"]
        assert run(capsys, *argv) == (
            2, "", "error: --period needs a policy document with a 'period' field\n"
        )

    def test_truncate_on_a_tree_is_a_model_error(self, capsys):
        argv = ["truncate", "--model", "binomial", "--max-horizon", "4"]
        assert run(capsys, *argv) == (3, "", "error: truncate applies to chain models only\n")

    @pytest.mark.parametrize("report", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize(
        "payoff",
        [
            "1e4300",  # 4,301 digits: the model digest cannot write it
            "1e4299",  # the digest can, but a value computed from it has more digits
        ],
    )
    def test_numbers_past_the_digit_limit_exit_three(self, capsys, tmp_path, payoff, report):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(chain_with(payoff={"1": "1", "2": payoff})))
        argv = ["solve", "--model", str(path), "--horizon", "2", *report]
        assert run(capsys, *argv) == (
            3, "", "error: cannot write a number of more than 4300 digits\n"
        )


FLOAT_ROW_ERROR = "error: row of 0 does not sum to 1\n"


def float_row_chain(tmp_path, **horizon):
    """States 0, 1, 2 with domain {0, 2}, both domain rows 0.3/0.1/0.6 and 1
    absorbing: the rows sum to 1 in file order but not with the exit mass last."""
    row = {"0": "0.3", "1": "0.1", "2": "0.6"}
    doc = {
        "type": "markov", "states": [0, 1, 2], "initial": 0, "domain": [0, 2],
        "transitions": {"0": row, "1": {"1": "1"}, "2": row},
        "payoff": {"0": "1", "2": "2"}, "discount": "9/10", **horizon,
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    return str(path)


def tie_tree_file(tmp_path):
    """Root and child both pay 1: two equilibria, as the root is indifferent."""
    tree = AtomTree([Atom("r", 0, None, F(1), True, F(1)), Atom("c", 1, "r", F(1), True, F(1))])
    path = tmp_path / "tie.json"
    path.write_text(json.dumps(dump_model(tree)))
    return str(path)


class TestSizeGuardMessages:
    @pytest.mark.parametrize(
        "argv, needed",
        [
            (["enumerate", "--model", "minnie-donald", "--period", "6"], 28),
            (["enumerate", "--model", "two-state", "--period", "6"], 28),
            (["enumerate", "--model", tie_tree_file], 2),
        ],
        ids=["periodic-census", "two-state-census", "tree-census"],
    )
    def test_each_guard_words_what_it_counts(
        self, capsys, monkeypatch, tmp_path, argv, needed
    ):
        # Both censuses count candidates made and queued (search nodes,
        # sweeps): `needed` is the smallest guard that answers.
        argv = [a(tmp_path) if callable(a) else a for a in argv]
        monkeypatch.setenv("CONDSTOP_SIZE_GUARD", str(needed))
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setenv("CONDSTOP_SIZE_GUARD", str(needed - 1))
        assert run(capsys, *argv) == (4, "", (
            f"error: enumeration needs at least {needed} candidates, above the guard of "
            f"{needed - 1}; raise the guard (CONDSTOP_SIZE_GUARD) to proceed\n"
        ))

    def test_minnie_donald_period_eleven_answers_at_the_default_guard(self, capsys):
        # 2^22 candidates over its open slots, but the search makes 1,101.
        code, out, _ = run(capsys, "enumerate", "--model", "minnie-donald", "--period", "11")
        assert code == 0 and "equilibria found: 0\n" in out


class TestParserReuse:
    def test_one_parser_per_process_keeps_no_state(self, capsys, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            _, floated, _ = run(capsys, "solve", "--model", "binomial", "--float", "--json")
            with pytest.raises(SystemExit):
                main(["solve"])
            _, exact, _ = run(capsys, "solve", "--model", "binomial", "--json")
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1
        assert json.loads(floated)["results"]["V0"] == "6.5"
        assert json.loads(exact)["results"]["V0"] == "13/2"


class TestJsonDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--model", "binomial", "--json"),
            ("enumerate", "--model", "two-state", "--period", "1", "--json"),
            ("example", "two-state", "--json"),
        ],
    )
    def test_repeat_runs_agree_modulo_timing(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1.pop("timing_seconds"), doc2.pop("timing_seconds")
        assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def reports_of(capsys, path, documents, *argv):
    """The `--json` report, timing removed, of each document written in turn
    to the same `path` (so the reports name the same file)."""
    reports = []
    for document in documents:
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, *argv, "--model", str(path), "--json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        report.pop("timing_seconds")
        reports.append(report)
    return reports


class TestInputOrder:
    def test_row_key_order_cannot_change_a_float_census(self, capsys, tmp_path):
        row = {"1": "5/11", "2": "4/11", "0": "2/11"}
        chain = {
            "type": "markov",
            "states": [0, 1, 2],
            "initial": 1,
            "transitions": {"0": row, "1": {"0": "1/6", "1": "5/12", "2": "5/12"}, "2": {"0": "1"}},
            "domain": [0, 1, 2],
            "payoff": {"0": "19/3", "1": "13", "2": "-1"},
            "discount": "18/25",
            "horizon": "infinite",
        }
        twin = {**chain, "transitions": {
            x: dict(reversed(list(r.items()))) for x, r in chain["transitions"].items()
        }}
        ordered, reversed_rows = reports_of(
            capsys, tmp_path / "chain.json", [chain, twin], "enumerate", "--period", "2", "--float"
        )
        assert ordered["results"]["count"] > 0
        assert ordered == reversed_rows

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--horizon", "3"],
            ["enumerate", "--period", "1"],
            ["phi", "--period", "1", "--policy", "POLICY"],
            ["truncate", "--max-horizon", "5", "--window", "2"],
        ],
        ids=["solve", "enumerate", "phi", "truncate"],
    )
    def test_row_key_order_cannot_change_the_row_check(self, capsys, tmp_path, argv):
        # Row 1 adds to 1.0 in its key order 0.1 + 0.2 + 0.7, to
        # 0.9999999999999999 reversed, and so with its exit mass 0.1 last.
        chain = {
            "type": "markov", "states": [0, 1, 2], "initial": 1, "domain": [1, 2],
            "transitions": {"0": {"0": "1"}, "1": {"0": "0.1", "1": "0.2", "2": "0.7"},
                            "2": {"1": "0.5", "2": "0.5"}},
            "payoff": {"1": "1", "2": "2"}, "discount": "9/10", "horizon": "infinite",
        }
        twin = {**chain, "transitions": {
            x: dict(reversed(list(r.items()))) for x, r in chain["transitions"].items()
        }}
        assert model_digest(load_model(chain)) == model_digest(load_model(twin))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"period": 1, "regions": {"0": [0, 1, 2]}}))
        argv = [str(policy) if arg == "POLICY" else arg for arg in argv]
        path, outcomes = tmp_path / "chain.json", []
        for document in (chain, twin):
            path.write_text(json.dumps(document))
            outcomes.append(run(capsys, *argv, "--model", str(path), "--float", "--eps", "1e-17"))
        assert outcomes[0] == outcomes[1] == (3, "", "error: row of 1 does not sum to 1\n")

    def test_a_deep_path_solves_in_either_node_order(self, capsys, tmp_path):
        nodes = [{"id": "n0", "prob": "1", "in_domain": True, "payoff": "1"}]
        nodes += [
            {"id": f"n{i}", "parent": f"n{i - 1}", "prob": "1", "in_domain": True,
             "payoff": str(i % 7)}
            for i in range(1, 3000)
        ]
        root_first, deepest_first = reports_of(
            capsys, tmp_path / "path.json",
            [{"type": "tree", "nodes": nodes}, {"type": "tree", "nodes": nodes[::-1]}],
            "solve",
        )
        assert root_first == deepest_first


class TestPinnedReports:
    """sha256 of `solve --json` with the timing zeroed: any change to the
    report's bytes, its numbers or its key order shows here."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--model", "two-state", "--horizon", "8"),
             "8147c6f80439ac56a58ed01d1e3f16cd140e67bb0cd6abd79e089ad74348fb69"),
            (("--model", "two-state", "--horizon", "8", "--float"),
             "aa41170af3244070a5d7c437333600e40facdbc2668ca6d707ef09f3ce4e4e75"),
            (("--model", "binomial"),
             "153e3c9c626bc261dd6d6282a64e68cf86c5523ea872304b94765b85de8b8ff6"),
        ],
    )
    def test_solve_report_bytes(self, capsys, argv, digest):
        code, out, _ = run(capsys, "solve", *argv, "--json")
        assert code == 0
        out = re.sub(r'"timing_seconds": [0-9.e-]+', '"timing_seconds": 0', out)
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # sha256 of the `enumerate --period p --json` reports, timing lines
    # removed, of Minnie-Donald at periods 1-6 and then each chain of the
    # `chain_pool` fixture at periods 1 and 2.
    CENSUS_SHA256 = {
        ("exact", "all"): "e3d3fda3b234a0455b40b9d970bbf08fb90882d11b89cdcff30709e0e8b1a454",
        ("exact", "early"): "88fdeb689e73e8f2d155bc0a6157850f560040255a65a9dc662565f879ad79a0",
        ("float", "all"): "f114e96172f29f0d3496c79ebf5fe4b5b74c784aa46a26e896ba68a09e730bb4",
        ("float", "early"): "001c48d702c6b0b0c6612c1c57bdd297da4ede60504e82bf784589d5a3408aec",
    }

    @pytest.mark.parametrize("preference", ["all", "early"])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_census_report_bytes(self, capsys, monkeypatch, tmp_path, chain_pool, mode, preference):
        monkeypatch.chdir(tmp_path)
        calls = [("minnie-donald", period) for period in range(1, 7)]
        for i, chain in enumerate(chain_pool):
            name = f"chain{i:02d}.json"
            Path(name).write_text(json.dumps(dump_model(chain)))
            calls += [(name, 1), (name, 2)]
        flags = ["--float"] if mode == "float" else []
        flags += [] if preference == "all" else ["--preference", preference]
        digest = hashlib.sha256()
        for model, period in calls:
            argv = ["enumerate", "--model", model, "--period", str(period), *flags, "--json"]
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            text, timings = re.subn(r'^  "timing_seconds": [^\n]*\n', "", out, flags=re.MULTILINE)
            assert timings == 1
            digest.update(text.encode("utf-8"))
        assert digest.hexdigest() == self.CENSUS_SHA256[mode, preference]

    # sha256 of the `solve`, `enumerate` and `precommit --json` reports,
    # timing lines removed, of each tree of the `tree_corpus` fixture.
    TREE_SHA256 = {
        "exact": "2a398f6aedb2d72655dd274f4018115a878b7daf809876a6aaed54ae6b8fc602",
        "float": "d2acf2774295ee2fcb7cd61eabd651b2edd41f036ef3c07b0b547d3c42f0bf04",
    }

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_tree_report_bytes(self, capsys, monkeypatch, tmp_path, tree_corpus, mode):
        monkeypatch.chdir(tmp_path)
        flags = ["--float"] if mode == "float" else []
        digest = hashlib.sha256()
        for i, tree in enumerate(tree_corpus):
            name = f"tree{i:03d}.json"
            Path(name).write_text(json.dumps(dump_model(tree)))
            for command in ("solve", "enumerate", "precommit"):
                code, out, err = run(capsys, command, "--model", name, *flags, "--json")
                assert (code, err) == (0, "")
                text, timings = re.subn(r'^  "timing_seconds": [^\n]*\n', "", out, flags=re.MULTILINE)
                assert timings == 1
                digest.update(text.encode("utf-8"))
        assert digest.hexdigest() == self.TREE_SHA256[mode]


class TestJsonReportsRoundTrip:
    """Every subcommand's `--json` report is exactly the text that
    `json.dumps(..., sort_keys=True, indent=2)` writes for it."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("solve", "--model", "binomial"), 0),
            (("solve", "--model", "binomial", "--float"), 0),
            (("solve", "--model", "two-state", "--horizon", "8"), 0),
            (("solve", "--model", "two-state", "--horizon", "8", "--float"), 0),
            (("verify", "--model", "binomial", "--pair", "{pair}", "--policy", "{policy}"), 0),
            (("verify", "--model", "binomial", "--pair", "{tampered}", "--policy", "{policy}"), 1),
            (("precommit", "--model", "binomial"), 0),
            (("phi", "--model", "binomial", "--policy", "{policy}"), 0),
            (("enumerate", "--model", "binomial"), 0),
            (("enumerate", "--model", "minnie-donald", "--period", "4"), 0),
            (("truncate", "--model", "two-state", "--max-horizon", "10", "--window", "3"), 0),
            (("example", "binomial"), 0),
            (("example", "two-state"), 0),
            (("example", "minnie-donald"), 0),
        ],
    )
    def test_report_is_its_own_indented_dump(self, capsys, tmp_path, argv, expected):
        pair, policy = backward_solve(binomial_tree())
        tampered = dump_pair(pair)
        tampered["V"]["root"] = "7"
        documents = {
            "pair": dump_pair(pair),
            "tampered": tampered,
            "policy": {"decisions": dict(policy.decisions)},
        }
        paths = {name: str(tmp_path / f"{name}.json") for name in documents}
        for name, document in documents.items():
            Path(paths[name]).write_text(json.dumps(document))
        code, out, _ = run(capsys, *(arg.format(**paths) for arg in argv), "--json")
        assert code == expected
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


class TestFloatNearTie:
    """State 1's payoff 1 and its J, 1 + 1e-12 when it continues and
    1 + 1e-12/3 when it stops, differ by far less than the default eps: float
    mode classifies both as ties at scale 1, exact mode continues."""

    CHAIN = {
        "type": "markov", "states": [0, 1, 2], "initial": 1, "domain": [1, 2],
        "forced_stop": [2],
        "transitions": {"0": {"0": "1"}, "1": {"1": "1/2", "2": "1/4", "0": "1/4"},
                        "2": {"2": "1"}},
        "payoff": {"1": "1", "2": "1.000000000001"}, "discount": "1", "horizon": "infinite",
    }

    def _results(self, capsys, tmp_path, *argv):
        model, policy = tmp_path / "chain.json", tmp_path / "policy.json"
        model.write_text(json.dumps(self.CHAIN))
        policy.write_text(json.dumps({"period": 1, "regions": {"0": [0, 1, 2]}}))
        argv = [str(policy) if arg == "POLICY" else arg for arg in argv]
        code, out, err = run(capsys, *argv, "--model", str(model), "--json")
        assert (code, err) == (0, "")
        return json.loads(out)["results"]

    def _census(self, capsys, tmp_path, *flags):
        results = self._results(capsys, tmp_path, "enumerate", "--period", "1", *flags)
        return [eq["policy"]["regions"]["0"] for eq in results["equilibria"]]

    def test_float_census_keeps_both_bits(self, capsys, tmp_path):
        assert self._census(capsys, tmp_path, "--float") == [[0, 2], [0, 1, 2]]
        assert self._census(capsys, tmp_path, "--float", "--preference", "early") == [[0, 1, 2]]
        assert self._census(capsys, tmp_path) == [[0, 2]]
        assert self._census(capsys, tmp_path, "--preference", "early") == [[0, 2]]

    def test_phi_keeps_the_old_bit_in_float_mode(self, capsys, tmp_path):
        argv = ("phi", "--period", "1", "--policy", "POLICY")
        assert self._results(capsys, tmp_path, *argv, "--float")["changed"] == {}
        assert self._results(capsys, tmp_path, *argv)["changed"] == {
            "0": {"added": [], "removed": ["1"]}
        }


class TestFloatSingularSystem:
    # 0.99999999999999999 rounds to 1.0, so in floats the exit-hitting system
    # of state 0, (1 - 0.99999999999999999) q = 1e-17, has a zero pivot.
    CHAIN = {
        "type": "markov", "states": [0, 1, 2], "initial": 0, "domain": [0, 2],
        "transitions": {"0": {"0": "0.99999999999999999", "1": "1e-17", "2": "0"},
                        "1": {"1": "1"}, "2": {"2": "1"}},
        "payoff": {"0": "1", "2": "5"}, "discount": "1", "horizon": "infinite",
    }
    COMMANDS = {
        "enumerate": ["enumerate", "--period", "1"],
        "phi": ["phi", "--period", "1", "--policy", "POLICY"],
    }

    def _run(self, capsys, tmp_path, command, *flags):
        model, policy = tmp_path / "chain.json", tmp_path / "policy.json"
        model.write_text(json.dumps(self.CHAIN))
        policy.write_text(json.dumps({"period": 1, "regions": {"0": [1, 2]}}))
        argv = [str(policy) if arg == "POLICY" else arg for arg in self.COMMANDS[command]]
        return run(capsys, *argv, "--model", str(model), *flags)

    @pytest.mark.parametrize("report", [[], ["--json"]], ids=["human", "json"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exits_three_with_one_error_line(self, capsys, tmp_path, command, report):
        assert self._run(capsys, tmp_path, command, "--float", *report) == (
            3,
            "",
            "error: float arithmetic made a linear system singular (singular at column 0); "
            "run without --float to solve it exactly\n",
        )

    def test_exact_mode_answers(self, capsys, tmp_path):
        code, out, _ = self._run(capsys, tmp_path, "enumerate", "--json")
        assert code == 0 and json.loads(out)["results"]["count"] == 1
        assert self._run(capsys, tmp_path, "phi") == (
            3,
            "",
            "error: inadmissible policy: continuation almost surely leaves the domain "
            "before stopping at atom '(phase 0, state 0)'\n",
        )
