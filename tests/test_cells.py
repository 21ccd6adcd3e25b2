"""Chain `solve` and `verify` on the (time, state) cells, against the unrolled tree.

The oracle of `solve` is the tree path that it ran before: `unroll`, then
`backward_solve` and `is_equilibrium` on the tree, reported through
`_policy_document` and `dump_pair`.  The oracle of `verify` is the same call
with the cell projection forced off, which unrolls the chain and runs the
verifiers on the tree with the same parsed pair.
"""

import collections
import contextlib
import hashlib
import io
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cell_oracles import atom_to_cell, cell_pair_by_atoms, dump_cell_pair_by_atoms, expand
from condstop import cli, model as model_module, policy as policy_module, recursion
from condstop.catalog import builtin_model
from condstop.model import MarkovModel, _Cells, unroll
from condstop.modelio import (
    CellPairText, _indented, cell_pair, dump_model, dump_pair, load_model, load_pair,
)
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


def test_text_mode_solve_writes_no_per_atom_text(monkeypatch, capsys):
    """Without --json, chain `solve` never walks the atoms: `_Cells.columns`,
    the walk that lists them, is not called, and the report is the tree's."""
    walks = []
    columns = _Cells.columns
    monkeypatch.setattr(_Cells, "columns", lambda cells: walks.append(cells) or columns(cells))
    argv = ["solve", "--model", "two-state", "--horizon", "8"]
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    assert walks == []
    assert cli.main(argv + ["--json"]) == 0
    assert len(walks) == 1
    capsys.readouterr()
    monkeypatch.setattr(cli, "_as_cells", cli._as_tree)
    assert cli.main(argv) == 0
    tree_text = capsys.readouterr().out
    assert text[: text.rindex("(")] == tree_text[: tree_text.rindex("(")]


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
    tree, cells = unroll(model, horizon), _Cells(model, horizon)
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
            solved = backward_solve(_Cells(model, horizon))[1]
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


def test_final_level_cells_have_no_children():
    model = builtin_model("two-state")
    cells, tree = _Cells(model, 3), unroll(model, 3)
    assert all(cells.children(cell.id) == () for cell in cells.levels[-1])
    indicator = {atom.id: atom.in_domain for atom in tree.atoms()}
    on_tree = recursion.classical_snell(tree, indicator)
    on_cells = recursion.classical_snell(cells, {c.id: c.in_domain for c in cells.atoms()})
    assert {cell_of(tree, aid): value for aid, value in on_tree.items()} == on_cells
    pair, _ = backward_solve(cells)
    assert recursion.verify_snell_pair(cells, pair).passed


# `verify` on the cells, against the tree path: the same call with the cell
# projection forced off, which unrolls the chain and checks the parsed pair
# per atom.


def verify_output(argv):
    """(exit code, stdout, stderr) of `main(argv)` without the timing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    if text and "--json" in argv:
        doc = json.loads(text)
        del doc["timing_seconds"]
        text = json.dumps(doc, sort_keys=True)
    elif text:
        text = text[: text.rindex("(")]
    return code, text, err.getvalue()


def tree_path_output(monkeypatch, argv):
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_as_cells", cli._as_tree)
        return verify_output(argv)


def bump(entry):
    return str(Fraction(entry) + 1)


def written_pair(cells, pair):
    """The pair document that `solve` writes for a pair on the cells, read back."""
    return json.loads("".join(_indented(CellPairText(cells, pair))))


def solved_documents(model, horizon):
    """The pair and policy documents of `solve`, and each atom's cell."""
    cells = _Cells(model, horizon)
    pair, policy = backward_solve(cells)
    return written_pair(cells, pair), cli._policy_document(cells, policy), atom_to_cell(cells)


def _deepest_in_domain(pair, cell_of_atom):
    """An in-domain atom of the deepest level, of a cell with the most atoms."""
    size = {}
    for cell in cell_of_atom.values():
        size[cell.id] = size.get(cell.id, 0) + 1
    return max(
        pair["V"], key=lambda aid: (cell_of_atom[aid].level, size[cell_of_atom[aid].id], aid)
    )


def _cell_atoms(cell_of_atom, atom_id):
    cell = cell_of_atom[atom_id].id
    return [aid for aid, c in cell_of_atom.items() if c.id == cell]


def _set(table, atom_ids, entry):
    for aid in atom_ids:
        if entry is None:
            table.pop(aid, None)
        else:
            table[aid] = entry


def variant_documents(variant, pair, policy, cell_of_atom):
    """(pair document or None, policy document or None) for one input variant."""
    pair, policy = json.loads(json.dumps(pair)), json.loads(json.dumps(policy))
    atom = _deepest_in_domain(pair, cell_of_atom)
    members = _cell_atoms(cell_of_atom, atom)
    regions = policy["regions"]
    if variant == "solved":
        pass
    elif variant == "pair-only":
        policy = None
    elif variant == "policy-only":
        pair = None
    elif variant == "one-atom-V":
        pair["V"][atom] = bump(pair["V"][atom])
    elif variant == "one-atom-S":
        pair["S"][atom] = str(Fraction(pair["S"][atom]) / 2)
    elif variant == "cell-V":
        _set(pair["V"], members, bump(pair["V"][atom]))
    elif variant == "cell-V-missing":
        _set(pair["V"], members, None)
    elif variant == "cell-S-missing":
        _set(pair["S"], members, None)
    elif variant == "one-atom-S-missing":
        del pair["S"][members[-1]]
    elif variant in ("int-1", "true", "float-1.0"):
        raw = {"int-1": 1, "true": True, "float-1.0": 1.0}[variant]
        _set(pair["S"], [aid for aid, s in pair["S"].items() if s == "1"], raw)
    elif variant in ("one-int-1", "int-1-one-true", "int-1-one-float"):
        # the last atom, in walk order, of the chosen cell (S is "1" at the horizon)
        if variant != "one-int-1":
            _set(pair["S"], [aid for aid, s in pair["S"].items() if s == "1"], 1)
        pair["S"][members[-1]] = {"one-int-1": 1, "int-1-one-true": True}.get(variant, 1.0)
    elif variant == "exit-cell-bad-V":  # a V entry that no check reads
        exits = [aid for aid, c in cell_of_atom.items() if c.state is None]
        if exits:
            _set(pair["V"], _cell_atoms(cell_of_atom, exits[-1]), "1/0")
    elif variant == "unknown-atom-bad-literal":
        pair["V"]["no/such/atom"] = "1/0"
    elif variant == "unknown-atom":
        pair["S"]["no/such/atom"] = "1"
    elif variant == "region-missing-time":
        del regions[max(regions, key=int)]
    elif variant == "region-flipped":
        time, state = str(cell_of_atom[atom].level), str(cell_of_atom[atom].state)
        regions[time] = sorted(set(regions[time]) ^ {state})
    elif variant == "decisions":
        policy = {
            "decisions": {
                aid: int(not c.in_domain or str(c.state) in regions[str(c.level)])
                for aid, c in cell_of_atom.items()
            }
        }
    elif variant == "periodic":
        policy = {"period": 1, "regions": {"0": regions[max(regions, key=int)]}}
    else:
        raise AssertionError(variant)
    return pair, policy


VARIANTS = (
    "solved", "pair-only", "policy-only", "one-atom-V", "one-atom-S", "one-atom-S-missing",
    "cell-V", "cell-V-missing", "cell-S-missing", "int-1", "one-int-1", "true", "float-1.0",
    "int-1-one-true", "int-1-one-float", "exit-cell-bad-V", "unknown-atom-bad-literal",
    "unknown-atom", "region-missing-time", "region-flipped", "decisions", "periodic",
)
PER_CELL = {"solved", "pair-only", "policy-only", "cell-V", "int-1", "region-flipped", "periodic"}


def assert_verifies_like_the_tree_path(monkeypatch, tmp_path, model_arg, horizon, floats,
                                       documents, variant, human=False):
    pair, policy = variant_documents(variant, *documents)
    argv = ["verify", "--model", model_arg, "--horizon", str(horizon)]
    for flag, doc in (("--pair", pair), ("--policy", policy)):
        if doc is not None:
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(json.dumps(doc))
            argv += [flag, str(path)]
    if floats:
        argv.append("--float")
    if not human:
        argv.append("--json")
    unrolls = []
    with monkeypatch.context() as patched:
        patched.setattr(cli, "unroll", lambda *args: unrolls.append(args) or unroll(*args))
        reported = verify_output(argv)
    assert reported == tree_path_output(monkeypatch, argv), (variant, horizon)
    code = reported[0]
    if code == 1 or (code == 3 and variant == "decisions"):  # reported per atom, on the tree
        assert len(unrolls) == 1
    elif code in (2, 3):  # documents are parsed, and a region document applied, before any unroll
        assert not unrolls
    elif variant in PER_CELL:
        assert not unrolls
    return code


def verify_battery(monkeypatch, tmp_path, model_arg, model, horizons, floats, start,
                   varied=range(1, 11)):
    """The solved documents at every horizon, in `--json`; at each horizon in
    `varied`, one further variant, in turn, alternating the human and `--json`
    reports."""
    codes = []
    for k, horizon in enumerate(horizons):
        documents = solved_documents(model, horizon)
        args = (monkeypatch, tmp_path, model_arg, horizon, floats, documents)
        assert assert_verifies_like_the_tree_path(*args, "solved") == 0
        if horizon in varied:
            variant = VARIANTS[1 + (start + k) % (len(VARIANTS) - 1)]
            human = (start + k) % 2
            codes.append(assert_verifies_like_the_tree_path(*args, variant, human))
    return codes


def in_mode(model, floats):
    return load_model(dump_model(model), mode=float_mode()) if floats else model


@pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
class TestVerifyAgainstTheTreePath:
    def test_corpus_chains(self, monkeypatch, tmp_path, markov_corpus, floats):
        codes = []
        for i, model in enumerate(markov_corpus):
            path = chain_file(tmp_path, model)
            codes += verify_battery(
                monkeypatch, tmp_path, path, in_mode(model, floats), [model.horizon], floats, i
            )
        assert {0, 1, 2, 3} <= set(codes)

    def test_pool_chains(self, monkeypatch, tmp_path, chain_pool, floats):
        codes = []
        for i, model in enumerate(chain_pool):
            path = chain_file(tmp_path, model)
            codes += verify_battery(
                monkeypatch, tmp_path, path, in_mode(model, floats), range(1, 7), floats, 4 * i,
                varied=range(1, 5),
            )
        assert {0, 1, 2, 3} <= set(codes)

    @pytest.mark.parametrize("name", ["two-state", "minnie-donald"])
    def test_builtins(self, monkeypatch, tmp_path, name, floats):
        model = builtin_model(name, mode=float_mode() if floats else EXACT)
        verify_battery(monkeypatch, tmp_path, name, model, range(1, 11), floats, 0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant_on_two_state(self, monkeypatch, tmp_path, variant, floats):
        model = builtin_model("two-state", mode=float_mode() if floats else EXACT)
        documents = solved_documents(model, 5)
        for human in (False, True):
            assert_verifies_like_the_tree_path(
                monkeypatch, tmp_path, "two-state", 5, floats, documents, variant, human
            )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_states=st.integers(2, 5),
    horizon=st.integers(1, 5),
    floats=st.booleans(),
    variant=st.sampled_from(VARIANTS),
    human=st.booleans(),
)
def test_verify_against_the_tree_path_on_random_chains(
    tmp_path_factory, seed, n_states, horizon, floats, variant, human
):
    model = random_markov_model(random.Random(seed), n_states=n_states)
    tmp_path = tmp_path_factory.mktemp("chain")
    path = chain_file(tmp_path, model)
    documents = solved_documents(in_mode(model, floats), horizon)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_verifies_like_the_tree_path(
            monkeypatch, tmp_path, path, horizon, floats, documents, variant, human
        )


def test_chain_verify_unrolls_only_to_report_a_failure(tmp_path, monkeypatch):
    # and parses the pair once, on the cells and on the tree path alike
    calls = {"unroll": 0, "load_pair": 0}
    unroll = model_module.unroll

    def counted(*args, **kwargs):
        calls["unroll"] += 1
        return unroll(*args, **kwargs)

    def counted_load(*args, **kwargs):
        calls["load_pair"] += 1
        return load_pair(*args, **kwargs)

    for module in (cli, model_module):
        monkeypatch.setattr(module, "unroll", counted)
    monkeypatch.setattr(cli, "load_pair", counted_load)
    model = builtin_model("two-state")
    pair, policy, cell_of_atom = solved_documents(model, 6)
    for variant, code, unrolls in (("solved", 0, 0), ("one-atom-V", 1, 1)):
        calls["unroll"] = calls["load_pair"] = 0
        docs = variant_documents(variant, pair, policy, cell_of_atom)
        argv = ["verify", "--model", "two-state", "--horizon", "6"]
        for flag, doc in zip(("--pair", "--policy"), docs):
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(json.dumps(doc))
            argv += [flag, str(path)]
        assert verify_output(argv)[0] == code
        assert calls == {"unroll": unrolls, "load_pair": 1}


class TestCellPair:
    """`cell_pair` against the pair document `CellPairText` writes."""

    def setup_method(self):
        self.cells = _Cells(builtin_model("two-state"), 4)
        self.pair, _ = backward_solve(self.cells)
        self.document = written_pair(self.cells, self.pair)
        self.cell_of_atom = atom_to_cell(self.cells)

    def project(self, document):
        return cell_pair(self.cells, load_pair(json.loads(json.dumps(document))))

    def shared_cell(self, table):
        """The atoms of a cell with several atoms, all keyed in `table`."""
        members = {}
        for aid, cell in self.cell_of_atom.items():
            if aid in self.document[table]:
                members.setdefault(cell.id, []).append(aid)
        return max(members.values(), key=len)

    def test_cell_constant_pair(self):
        projected = self.project(self.document)
        assert projected.values == dict(self.pair.values)
        assert projected.survival == dict(self.pair.survival)

    def test_equal_entries_written_apart(self):
        atoms = self.shared_cell("V")
        entry = Fraction(self.document["V"][atoms[-1]])
        self.document["V"][atoms[-1]] = f"{2 * entry.numerator}/{2 * entry.denominator}"
        assert self.project(self.document).values == dict(self.pair.values)

    def test_one_differing_atom(self):
        atoms = self.shared_cell("V")
        self.document["V"][atoms[-1]] = bump(self.document["V"][atoms[-1]])
        assert self.project(self.document) is None

    def test_entry_missing_at_every_atom_of_a_cell(self):
        atoms = self.shared_cell("V")
        for aid in atoms:
            del self.document["V"][aid]
        projected = self.project(self.document)
        assert self.cell_of_atom[atoms[0]].id not in projected.values
        assert projected.survival == dict(self.pair.survival)

    def test_entry_missing_at_some_atoms_of_a_cell(self):
        atoms = self.shared_cell("S")
        del self.document["S"][atoms[0]]
        assert self.project(self.document) is None

    def test_unknown_key_is_ignored(self):
        self.document["V"]["no/such/atom"] = "7"
        self.document["S"]["no/such/atom"] = "2"
        projected = self.project(self.document)
        assert projected.values == dict(self.pair.values)
        assert projected.survival == dict(self.pair.survival)


# The columnar walk and the pair readers and writers on it, against the
# atom-by-atom oracles in `cell_oracles`, on random chains whose state names
# need escaping in atom ids (`%`, `/`, `!`) or in JSON (`é`, `"`, `\`, a tab),
# or are prefixes of one another.  JSON escaping changes the order of `é`
# against `a`, of `"` and a tab against `1`, and of `\` against a tab, so the
# writer must sort the raw ids; the examples put each such pair first.

NAMES = ("1", "10", "1.5", "!", "%", "%2F", "a/b", "a", "x!", "é", '"', "\\", "\t")


def renamed(model, names):
    name = dict(zip(model.states, names))
    return MarkovModel(
        states=tuple(name[x] for x in model.states),
        initial=name[model.initial],
        transitions={name[x]: {name[y]: p for y, p in row.items()}
                     for x, row in model.transitions.items()},
        domain=frozenset(name[x] for x in model.domain),
        payoff={name[x]: g for x, g in model.payoff.items()},
        discount=model.discount,
        mode=model.mode,
    )


def perturbed_documents(document, cells, rng):
    """(name, pair document) for each perturbation `cell_pair` must judge as
    the oracle does."""
    cell_of = atom_to_cell(cells)
    variants = [("solved", document)]

    def variant(name, change):
        changed = json.loads(json.dumps(document))
        change(changed)
        variants.append((name, changed))

    table = rng.choice(["V", "S"]) if document["V"] else "S"
    size = collections.Counter(cell.id for cell in cell_of.values())
    keyed = sorted(document[table])
    atom = rng.choice([aid for aid in keyed if size[cell_of[aid].id] > 1] or keyed)
    members = [aid for aid, c in cell_of.items() if c.id == cell_of[atom].id]
    literal = Fraction(document[table][atom])
    variant("one-atom-changed", lambda d: d[table].update({atom: str(literal + 1)}))
    apart = f"{2 * literal.numerator}/{2 * literal.denominator}"
    variant("written-apart", lambda d: d[table].update({atom: apart}))
    variant("dropped-at-one-atom", lambda d: d[table].pop(atom))
    variant("dropped-at-every-atom", lambda d: [d[table].pop(aid) for aid in members])
    variant("unknown-key", lambda d: d[table].update({"no/such/atom": "7"}))
    return variants


def entries(pair):
    return None if pair is None else (list(pair.values.items()), list(pair.survival.items()))


def names_first(*first):
    return [*first, *(name for name in NAMES if name not in first)]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_states=st.integers(2, 5),
    horizon=st.integers(1, 6),
    floats=st.booleans(),
    names=st.permutations(NAMES),
)
@example(seed=0, n_states=2, horizon=3, floats=False, names=names_first("é", "a"))
@example(seed=0, n_states=2, horizon=3, floats=False, names=names_first('"', "1"))
@example(seed=0, n_states=2, horizon=3, floats=True, names=names_first("\\", "\t"))
@example(seed=0, n_states=2, horizon=3, floats=False, names=names_first("\t", "1"))
def test_columns_and_pair_documents_against_the_atom_oracles(
    seed, n_states, horizon, floats, names
):
    rng = random.Random(seed)
    model = in_mode(renamed(random_markov_model(rng, n_states=n_states), names), floats)
    cells = _Cells(model, horizon)
    tree = unroll(model, horizon)
    for t, ((ids, cidx, atoms), triples) in enumerate(zip(cells.columns(), expand(cells))):
        assert ids == [aid for aid, _, _ in triples]
        assert [cells.levels[t][k].id for k in cidx] == [cell.id for _, _, cell in triples]
        assert list(atoms) == [cell for _, _, cell in triples]
        assert [(a.id, a.parent) for a in tree.levels[t]] == [(a, p) for a, p, _ in triples]

    pair, _ = backward_solve(cells)
    written = "".join(_indented({"results": {"pair": CellPairText(cells, pair)}}))
    oracle = {"results": {"pair": dump_cell_pair_by_atoms(cells, pair)}}
    assert written == json.dumps(oracle, sort_keys=True, indent=2)
    document = json.loads(written)["results"]["pair"]
    for name, changed in perturbed_documents(document, cells, rng):
        loaded = load_pair(changed, mode=model.mode)
        assert entries(cell_pair(cells, loaded)) == entries(cell_pair_by_atoms(cells, loaded)), name


# The byte-stable `--json` contract at full size: the chain-deep reports of
# the benchmark (two-state at horizon 13), pinned by sha256 without their
# timing line.

TIMING_LINE = re.compile(r'^  "timing_seconds": [^\n]*\n', re.MULTILINE)

CHAIN_DEEP_SHA256 = {
    ("exact", "solve"): "9858f457b4f62a7ffcf91224d50f3a9f9f5e55e192d45509f3cbd9dcbb3404ac",
    ("exact", "verify"): "3bbb7d7e1adc6f95ea7b2a96922e0eeb84bf039ac12fea2fbfba1e31d120c008",
    ("float", "solve"): "de97409457825d0872b6cfdf2c04d3b1dd7f80bcb1ceb8a6acc5de6ab7d26836",
    ("float", "verify"): "27b7ee6d09061e9cad1f1c6faa5c10581fec411e17872df5b48d5fff2b83ea24",
}


def report_sha256(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    text, timings = TIMING_LINE.subn("", out.getvalue())
    assert timings == 1
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), text


@pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
def test_chain_deep_reports_are_pinned(monkeypatch, tmp_path, floats):
    monkeypatch.chdir(tmp_path)
    mode = ["--float", "--eps", "1e-9"] if floats else []
    base = ["--model", "two-state", "--horizon", "13", *mode, "--json"]
    digest, text = report_sha256(["solve", *base])
    results = json.loads(text)["results"]
    for name in ("pair", "policy"):
        (tmp_path / f"{name}.json").write_text(json.dumps(results[name]))
    verified, _ = report_sha256(["verify", *base, "--pair", "pair.json", "--policy", "policy.json"])
    key = "float" if floats else "exact"
    assert (digest, verified) == (CHAIN_DEEP_SHA256[key, "solve"], CHAIN_DEEP_SHA256[key, "verify"])
