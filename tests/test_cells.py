"""Chain `solve` on the (time, state) cells, against the unrolled tree.

The oracle is the tree path that `solve` ran before: `unroll`, then
`backward_solve` and `is_equilibrium` on the tree, reported through
`_policy_document` and `dump_pair`.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condstop import cli, model as model_module, policy as policy_module, recursion
from condstop.catalog import builtin_model
from condstop.model import _checked_cells, unroll
from condstop.modelio import dump_model, dump_pair, load_model
from condstop.numeric import EXACT, float_mode, format_scalar
from condstop.policy import StoppingPolicy, admissible, is_equilibrium
from condstop.random_models import random_markov_model
from condstop.recursion import backward_solve


def solve_by_unroll(model, horizon):
    """The `results` and `verification` of `solve`, computed on the unrolled tree."""
    tree = unroll(model, horizon)
    pair, policy = backward_solve(tree)
    root = tree.root.id
    results = {
        "V0": format_scalar(pair.values[root]),
        "S0": format_scalar(pair.survival[root]),
        "theta0": policy.bit(root),
        "policy": cli._policy_document(tree, policy),
        "pair": dump_pair(pair),
    }
    return results, {"is_equilibrium": bool(is_equilibrium(tree, policy))}


def solve_report(model_arg, horizon, floats):
    argv = ["solve", "--model", model_arg, "--json"]
    if horizon is not None:
        argv += ["--horizon", str(horizon)]
    if floats:
        argv.append("--float")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    doc = json.loads(out.getvalue())
    assert code == (0 if doc["verification"]["is_equilibrium"] else 1)
    return doc["results"], doc["verification"]


def chain_file(tmp_path, model):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(dump_model(model)))
    return str(path)


def assert_solves_like_the_oracle(tmp_path, model, horizons, floats):
    path = chain_file(tmp_path, model)
    oracle_model = load_model(dump_model(model), mode=float_mode()) if floats else model
    for horizon in horizons:
        reported = solve_report(path, horizon, floats)
        assert reported == solve_by_unroll(oracle_model, horizon)


@pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
class TestSolveAgainstTheUnrolledTree:
    def test_corpus_chains(self, tmp_path, markov_corpus, floats):
        for model in markov_corpus:
            assert_solves_like_the_oracle(tmp_path, model, [None], floats)

    def test_pool_chains(self, tmp_path, chain_pool, floats):
        for model in chain_pool:
            assert_solves_like_the_oracle(tmp_path, model, range(1, 7), floats)

    @pytest.mark.parametrize("name", ["two-state", "minnie-donald"])
    def test_builtins(self, name, floats):
        model = builtin_model(name, mode=float_mode() if floats else EXACT)
        for horizon in range(1, 11):
            reported = solve_report(name, horizon, floats)
            assert reported == solve_by_unroll(model, horizon)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_states=st.integers(2, 5),
    horizon=st.integers(1, 5),
    floats=st.booleans(),
)
def test_solve_against_the_unrolled_tree_on_random_chains(
    tmp_path_factory, seed, n_states, horizon, floats
):
    model = random_markov_model(random.Random(seed), n_states=n_states)
    tmp_path = tmp_path_factory.mktemp("chain")
    assert_solves_like_the_oracle(tmp_path, model, [horizon], floats)


def cell_of(tree, atom_id):
    atom = tree.atom(atom_id)
    return atom.level, atom.state


def assert_same_verdict(model, horizon, rule):
    tree, cells = unroll(model, horizon), _checked_cells(model, horizon)
    on_tree = StoppingPolicy.from_state_rule(tree, rule)
    on_cells = StoppingPolicy.from_state_rule(cells, rule)
    tree_check, cells_check = is_equilibrium(tree, on_tree), is_equilibrium(cells, on_cells)
    assert bool(tree_check) == bool(cells_check)
    assert {cell_of(tree, a) for a in tree_check.deviations} == set(cells_check.deviations)
    tree_adm, cells_adm = admissible(tree, on_tree), admissible(cells, on_cells)
    assert (bool(tree_adm), tree_adm.reason) == (bool(cells_adm), cells_adm.reason)
    if not tree_adm:
        assert cell_of(tree, tree_adm.atom) == cells_adm.atom
    return bool(cells_check)


class TestEquilibriumCheckOnTheCells:
    @pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
    def test_random_state_rules(self, markov_corpus, chain_pool, floats):
        rng = random.Random(8)
        random_verdicts = []
        for model in [*markov_corpus, *chain_pool]:
            if floats:
                model = load_model(dump_model(model), mode=float_mode())
            horizon = rng.randint(1, 5)
            bits = {(t, x): rng.random() < 0.5 for t in range(horizon + 1) for x in model.states}
            random_verdicts.append(assert_same_verdict(model, horizon, lambda t, x: bits[(t, x)]))
            solved = backward_solve(_checked_cells(model, horizon))[1]
            assert assert_same_verdict(model, horizon, lambda t, x: solved.bit((t, x)))
        assert not all(random_verdicts)


def test_chain_solve_sweeps_the_cells_without_unrolling(capsys, monkeypatch):
    calls = {"unroll": 0, "_sweep": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for module in (cli, model_module):
        monkeypatch.setattr(module, "unroll", counted("unroll", model_module.unroll))
    sweep = counted("_sweep", policy_module._sweep)
    for module in (policy_module, recursion):
        monkeypatch.setattr(module, "_sweep", sweep)
    assert cli.main(["solve", "--model", "two-state", "--horizon", "6", "--json"]) == 0
    capsys.readouterr()
    assert calls == {"unroll": 0, "_sweep": 2}
