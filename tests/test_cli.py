"""End-to-end drives of the command-line interface."""

import json

import pytest

from condstop import backward_solve, binomial_tree, dump_model, dump_pair, two_state_model
from condstop.cli import main


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
        monkeypatch.setenv("CONDSTOP_SIZE_GUARD", "1")
        code, _, err = run(capsys, "precommit", "--model", "binomial")
        assert code == 4
        assert "CONDSTOP_SIZE_GUARD" in err

    def test_garbage_guard_warns_and_proceeds(self, capsys, monkeypatch):
        monkeypatch.setenv("CONDSTOP_SIZE_GUARD", "many")
        code, out, err = run(capsys, "precommit", "--model", "binomial")
        assert code == 0
        assert "warning" in err


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

    def test_two_state_period_one(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--model", "two-state", "--period", "1"
        )
        assert code == 0
        assert "equilibria found: 2" in out
        assert "99/100" in out
        assert "36/35" in out

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

    def test_requires_something_to_check(self, capsys, tree_file):
        code, _, err = run(capsys, "verify", "--model", tree_file)
        assert code == 2
        assert "--pair" in err


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

    def test_missing_model_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "--model", str(tmp_path / "none.json"))
        assert code == 2

    def test_float_payload_rejected_in_exact_mode(self, capsys, tmp_path):
        doc = dump_model(binomial_tree())
        doc["nodes"][0]["payoff"] = 2.0
        path = tmp_path / "floaty.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", "--model", str(path))
        assert code == 2

    def test_argparse_rejections_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve"])  # --model is required
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["example", "unknown-name"])
        assert excinfo.value.code == 2


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
