import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condstop.catalog import binomial_tree, minnie_donald_model, two_state_model
from condstop.cli import main
from condstop.infinite import reachable_pairs
from condstop.model import (
    EXIT_SEGMENT,
    Atom,
    AtomTree,
    MarkovModel,
    ModelError,
    effective_horizon,
    _Cells,
    _state_segment,
    unroll,
)
from condstop.modelio import dump_model, load_model
from condstop.numeric import float_mode
from condstop.random_models import random_markov_model, random_tree

from cell_oracles import atom_to_cell
from tree_oracles import effective_horizon_by_ancestors

F = Fraction


def chain(*specs):
    """A single-path tree from (id, in_domain, payoff) triples."""
    atoms = []
    parent = None
    for level, (atom_id, dom, pay) in enumerate(specs):
        atoms.append(Atom(atom_id, level, parent, F(1), dom, pay))
        parent = atom_id
    return AtomTree(atoms)


class TestAtomTree:
    def test_binomial_shape(self):
        tree = binomial_tree()
        assert tree.horizon == 2
        assert [len(level) for level in tree.levels] == [1, 2, 4]
        assert tree.root.id == "root"
        assert [a.id for a in tree.children("d")] == ["du", "dd"]
        assert tree.prob("du") == F(1, 4)
        assert [a.id for a in tree.ancestors("uu")] == ["u", "root"]
        assert "uu" in tree and "xx" not in tree

    def test_effective_flags(self):
        tree = binomial_tree()
        flags = tree.effective_flags()
        # Horizon atoms are always flagged; earlier atoms only when they
        # have no in-domain children.
        assert all(flags[a.id] for a in tree.levels[2])
        assert not flags["root"] and not flags["u"] and not flags["d"]
        assert effective_horizon(tree) == flags

    def test_no_in_domain_children_flags_propagate(self):
        atoms = [
            Atom("r", 0, None, F(1), True, F(1)),
            Atom("m", 1, "r", F(1), False, None),
            Atom("l", 2, "m", F(1), False, None),
        ]
        flags = AtomTree(atoms).effective_flags()
        # r's only child leaves the domain, so r is effectively terminal.
        assert flags == {"r": True, "m": True, "l": True}

    @pytest.mark.parametrize(
        "atoms",
        [
            # duplicate id
            [Atom("r", 0, None, F(1), True, F(1)), Atom("r", 0, None, F(1), True, F(1))],
            # two roots
            [Atom("r", 0, None, F(1), True, F(1)), Atom("s", 0, None, F(1), True, F(1))],
            # child on a non-adjacent level
            [Atom("r", 0, None, F(1), True, F(1)), Atom("c", 2, "r", F(1), True, F(1))],
            # branch probabilities do not sum to one
            [
                Atom("r", 0, None, F(1), True, F(1)),
                Atom("a", 1, "r", F(1, 3), True, F(1)),
                Atom("b", 1, "r", F(1, 3), True, F(1)),
            ],
            # re-enters the domain below an out-of-domain parent
            [
                Atom("r", 0, None, F(1), True, F(1)),
                Atom("a", 1, "r", F(1), False, None),
                Atom("b", 2, "a", F(1), True, F(1)),
            ],
            # out-of-domain root
            [Atom("r", 0, None, F(1), False, None)],
            # interior atom with no children
            [
                Atom("r", 0, None, F(1), True, F(1)),
                Atom("a", 1, "r", F(1, 2), True, F(1)),
                Atom("b", 1, "r", F(1, 2), True, F(1)),
                Atom("aa", 2, "a", F(1), True, F(1)),
            ],
        ],
    )
    def test_invalid_trees(self, atoms):
        with pytest.raises(ModelError):
            AtomTree(atoms)

    def test_empty(self):
        with pytest.raises(ModelError):
            AtomTree([])


class TestEffectiveHorizonAgainstAncestorRule:
    """The local flag rule against the rule that also flags every atom below
    a flagged one: equal, since no atom re-enters the domain."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32))
    def test_random_trees(self, seed):
        tree = random_tree(random.Random(seed), max_depth=5, all_in_domain=False)
        assert effective_horizon(tree) == effective_horizon_by_ancestors(tree)

    @settings(max_examples=100, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32), n_states=st.integers(2, 5), horizon=st.integers(1, 4))
    def test_unrolled_chains_and_their_cells(self, seed, n_states, horizon):
        model = random_markov_model(random.Random(seed), n_states=n_states)
        tree, cells = unroll(model, horizon), _Cells(model, horizon)
        flags = effective_horizon_by_ancestors(tree)
        assert effective_horizon(tree) == flags
        cell_flags, cell_of = cells.effective_flags(), atom_to_cell(cells)
        assert cell_of.keys() == flags.keys()
        assert all(cell_flags[cell_of[aid].id] == flag for aid, flag in flags.items())


class TestExactModeTakesOnlyRationals:
    """In exact mode a tree or chain refuses, at construction, any
    probability, payoff or discount that is not an int or a Fraction."""

    @staticmethod
    def floated(tree, field):
        """The tree's atoms with `field` a float below the root."""
        return [
            replace(a, **{field: float(getattr(a, field))})
            if a.level and getattr(a, field) is not None else a
            for a in tree.atoms()
        ]

    def test_float_payoffs(self):
        # Exact Dinkelbach sweeps on these float payoffs never ended.
        atoms = self.floated(random_tree(random.Random(4)), "payoff")
        with pytest.raises(ModelError, match="exact mode takes ints and Fractions, got "):
            AtomTree(atoms)
        assert AtomTree(atoms, float_mode()).horizon >= 1

    def test_float_probabilities(self):
        atoms = self.floated(binomial_tree(), "branch_prob")
        with pytest.raises(ModelError, match=r"atom 'u': exact mode .* got 0\.5"):
            AtomTree(atoms)

    @pytest.mark.parametrize(
        "field, convert",
        [
            ("transitions", lambda rows: {x: {y: float(p) for y, p in row.items()}
                                          for x, row in rows.items()}),
            ("payoff", lambda payoff: {x: float(g) for x, g in payoff.items()}),
            ("discount", float),
            ("transitions", lambda rows: {x: {y: bool(p) if p == 1 else p for y, p in row.items()}
                                          for x, row in rows.items()}),
        ],
        ids=["float-probabilities", "float-payoffs", "float-discount", "bool-probability"],
    )
    def test_chains(self, field, convert):
        # With float probabilities the exact census ended in an AttributeError.
        model = minnie_donald_model()
        with pytest.raises(ModelError, match="exact mode takes ints and Fractions, got "):
            replace(model, **{field: convert(getattr(model, field))})


class TestMarkovModel:
    def test_two_state_accessors(self):
        model = two_state_model()
        assert model.exit_states == frozenset({0})
        assert model.gain(0, 2) == F(6, 5)
        assert model.gain(2, 1) == F(81, 100)
        assert model.domain_successor_mass(1) == F(2, 3)
        assert {x for _, x in reachable_pairs(model, 1)} == {1, 2}

    def test_minnie_donald_reachability(self):
        model = minnie_donald_model()
        assert model.exit_states == frozenset({0})
        assert model.forced_stop == frozenset({3, 4})
        assert {x for _, x in reachable_pairs(model, 1)} == {1, 2, 3, 4}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial": 0},  # initial state outside the domain
            {"domain": frozenset({1, 2, 9})},
            {"payoff": {1: F(1)}},  # payoff missing a domain state
            {"discount": F(0)},
            {"discount": F(11, 10)},
            {"horizon": 0},
            {"forced_stop": frozenset({0})},
            {"transitions": {0: {0: F(1)}, 1: {1: F(1, 2)}, 2: {2: F(1)}}},
        ],
    )
    def test_invalid_models(self, kwargs):
        base = dict(
            states=(0, 1, 2),
            initial=1,
            transitions={
                0: {0: F(1)},
                1: {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)},
                2: {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)},
            },
            domain=frozenset({1, 2}),
            payoff={1: F(1), 2: F(6, 5)},
            discount=F(9, 10),
        )
        base.update(kwargs)
        with pytest.raises(ModelError):
            MarkovModel(**base)


def unroll_by_paths(model, horizon):
    """Oracle for `unroll`: the chain expanded atom by atom, each atom reading
    its state's transition row."""
    mode = model.mode
    segment = {x: _state_segment(x) for x in model.states}
    root = Atom(segment[model.initial], 0, None, mode.one, True, model.gain(0, model.initial),
                model.initial)
    atoms = [root]
    frontier = [root]
    for t in range(1, horizon + 1):
        next_frontier = []
        for atom in frontier:
            if atom.state is None:
                child = Atom(f"{atom.id}/{EXIT_SEGMENT}", t, atom.id, mode.one, False)
                atoms.append(child)
                next_frontier.append(child)
                continue
            row = model.transitions[atom.state]
            exit_mass = mode.zero
            for y in model.states:
                p = row.get(y, mode.zero)
                if not p > 0:
                    continue
                if y not in model.domain:
                    exit_mass += p
                    continue
                child = Atom(f"{atom.id}/{segment[y]}", t, atom.id, p, True, model.gain(t, y), y)
                atoms.append(child)
                next_frontier.append(child)
            if exit_mass > 0:
                child = Atom(f"{atom.id}/{EXIT_SEGMENT}", t, atom.id, exit_mass, False)
                atoms.append(child)
                next_frontier.append(child)
        frontier = next_frontier
    return AtomTree(atoms, mode=mode)


def tenths_rows(rng):
    """States, a domain and float rows of tenths, each row's keys in a random
    order: (states, domain, transitions)."""
    n = rng.randint(3, 5)
    states = tuple(range(n))
    domain = sorted(rng.sample(states, rng.randint(2, n)))
    transitions = {}
    for x in states:
        support = rng.sample(states, rng.randint(1, n))
        cuts = sorted(rng.sample(range(1, 10), len(support) - 1))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, 10])]
        transitions[x] = {y: part / 10 for y, part in zip(support, parts)}
    return states, domain, transitions


def tenths_verdict(states, domain, transitions):
    """The chain at eps 1e-20, or the message `MarkovModel` refuses it with."""
    try:
        return MarkovModel(
            states=states, initial=domain[0], transitions=transitions,
            domain=frozenset(domain), payoff={x: 1.0 for x in domain}, discount=0.9,
            mode=float_mode(1e-20),
        )
    except ModelError as exc:
        return str(exc)


def left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


def cell_order_total(row, states, domain):
    """A row added as a cell adds its children: the in-domain successors in
    state order, then the exit mass if there is any."""
    moves = [y for y in states if y in row]
    total = left_to_right(row[y] for y in moves if y in domain)
    exit_mass = left_to_right(row[y] for y in moves if y not in domain)
    return total + exit_mass if exit_mass > 0 else total


def assert_unrolls_like_the_oracle(model, horizon):
    tree, oracle = unroll(model, horizon), unroll_by_paths(model, horizon)
    # Atoms compare by every field (id, level, parent, probability, domain
    # flag, payoff, state); level tuples also pin their order.
    assert tree.levels == oracle.levels
    assert [type(a.payoff) for a in tree.atoms()] == [type(a.payoff) for a in oracle.atoms()]


class TestUnroll:
    @pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
    def test_equals_the_path_oracle(self, markov_corpus, chain_pool, floats):
        models = [*markov_corpus, *chain_pool, two_state_model(), minnie_donald_model()]
        if floats:
            models = [load_model(dump_model(m), mode=float_mode()) for m in models]
        for model in models:
            for horizon in range(1, 9):
                assert_unrolls_like_the_oracle(model, horizon)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_states=st.integers(2, 5),
        horizon=st.integers(1, 5),
        floats=st.booleans(),
    )
    def test_equals_the_path_oracle_on_random_chains(self, seed, n_states, horizon, floats):
        model = random_markov_model(random.Random(seed), n_states=n_states)
        if floats:
            model = load_model(dump_model(model), mode=float_mode())
        assert_unrolls_like_the_oracle(model, horizon)

    def test_a_row_is_added_as_its_cells_add_it(self):
        # Float rows of tenths in a random key order, at eps 1e-20.  A row is
        # accepted when its in-domain successors, in state order, then its exit
        # mass add to one, as an unrolled atom's children do; the first row in
        # state order that does not is named.  Key order and that order
        # disagree both ways on some chains.
        rng = random.Random(7)
        seen = set()
        for _ in range(300):
            states, domain, transitions = tenths_rows(rng)
            failing = [x for x in states if cell_order_total(transitions[x], states, domain) != 1.0]
            verdict = tenths_verdict(states, domain, transitions)
            if failing:
                assert verdict == f"row of {failing[0]!r} does not sum to 1"
            else:
                assert_unrolls_like_the_oracle(verdict, 4)
            in_key_order = all(left_to_right(row.values()) == 1.0 for row in transitions.values())
            seen.add((in_key_order, not failing))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_no_verdict_depends_on_row_key_order(self):
        # Every permutation of each row's keys, one row at a time, on float
        # chains of tenths at eps 1e-20; an accepted chain unrolls as the
        # path oracle does at horizons 1 to 5.
        rng = random.Random(20)
        accepted = 0
        for _ in range(200):
            states, domain, transitions = tenths_rows(rng)
            verdict = tenths_verdict(states, domain, transitions)
            refusal = verdict if isinstance(verdict, str) else None
            for x, row in transitions.items():
                for keys in itertools.permutations(row):
                    twin = tenths_verdict(states, domain, {**transitions, x: {y: row[y] for y in keys}})
                    assert (twin if isinstance(twin, str) else None) == refusal
            if refusal is None:
                accepted += 1
                for horizon in range(1, 6):
                    assert_unrolls_like_the_oracle(verdict, horizon)
        assert 0 < accepted < 200

    def test_two_state_structure(self):
        model = two_state_model()
        tree = unroll(model, 2)
        assert tree.horizon == 2
        assert tree.root.id == "1" and tree.root.state == 1
        kids = {a.id: a for a in tree.children("1")}
        # Exit mass (the transition to state 0) merges into one "!" atom.
        assert set(kids) == {"1/1", "1/2", f"1/{EXIT_SEGMENT}"}
        assert kids["1/1"].branch_prob == F(1, 3)
        assert kids["1/1"].in_domain and kids["1/1"].state == 1
        exit_atom = kids[f"1/{EXIT_SEGMENT}"]
        assert not exit_atom.in_domain and exit_atom.state is None
        assert exit_atom.branch_prob == F(1, 3)
        # Exit chains continue with probability one to the horizon.
        (tail,) = tree.children(exit_atom.id)
        assert tail.branch_prob == F(1) and not tail.in_domain

    def test_payoffs_are_discounted_gains(self):
        model = two_state_model()
        tree = unroll(model, 3)
        assert tree.atom("1").payoff == F(1)
        assert tree.atom("1/2").payoff == F(9, 10) * F(6, 5)
        assert tree.atom("1/2/2").payoff == F(81, 100) * F(6, 5)

    def test_horizon_resolution(self):
        model = two_state_model()
        with pytest.raises(ModelError):
            unroll(model)  # infinite model needs an explicit horizon
        with pytest.raises(ModelError):
            unroll(model, 0)
        assert unroll(model, 1).horizon == 1

    def test_atom_counts_follow_the_chain(self, markov_corpus):
        for model in markov_corpus[:6]:
            tree = unroll(model)
            # Levels partition the atoms and the level probabilities sum to 1.
            total = sum(len(level) for level in tree.levels)
            assert total == len(list(tree.atoms()))
            for level in tree.levels:
                assert sum(tree.prob(a.id) for a in level) == 1

    def test_flag_monotonicity(self, tree_corpus):
        for tree in tree_corpus[:40]:
            flags = tree.effective_flags()
            for atom in tree.atoms():
                if atom.parent is not None and flags[atom.parent]:
                    assert flags[atom.id]
                if not atom.in_domain:
                    assert flags[atom.id]


def named_chain(states, transitions, domain, horizon):
    """A chain with string state names and unit payoffs on the domain."""
    return MarkovModel(
        states=states,
        initial=states[0],
        transitions=transitions,
        domain=frozenset(domain),
        payoff={x: F(1) for x in domain},
        discount=F(1, 2),
        horizon=horizon,
    )


SLASHED = named_chain(
    ("x", "x/x"),
    {"x": {"x": F(1, 2), "x/x": F(1, 2)}, "x/x": {"x": F(1)}},
    domain=("x", "x/x"),
    horizon=2,
)
BANG = named_chain(
    ("a", EXIT_SEGMENT, "z"),
    {"a": {EXIT_SEGMENT: F(1, 2), "z": F(1, 2)}, EXIT_SEGMENT: {"a": F(1)}, "z": {"z": F(1)}},
    domain=("a", EXIT_SEGMENT),
    horizon=2,
)


class TestAtomIds:
    def test_slash_in_a_state_name_is_escaped(self):
        tree = unroll(SLASHED)
        assert sorted(tree.atom_ids()) == [
            "x", "x/x", "x/x%2Fx", "x/x%2Fx/x", "x/x/x", "x/x/x%2Fx",
        ]

    def test_state_named_like_the_exit_segment_is_escaped(self):
        tree = unroll(BANG)
        assert sorted(tree.atom_ids()) == ["a", "a/!", "a/!/!", "a/%21", "a/%21/a"]
        assert tree.atom("a/%21").state == EXIT_SEGMENT
        assert not tree.atom("a/!").in_domain

    def test_percent_is_escaped_before_slash(self):
        model = named_chain(
            ("p", "%2F", "/"),
            {"p": {"%2F": F(1, 2), "/": F(1, 2)}, "%2F": {"p": F(1)}, "/": {"p": F(1)}},
            domain=("p", "%2F", "/"),
            horizon=1,
        )
        assert sorted(unroll(model).atom_ids()) == ["p", "p/%252F", "p/%2F"]

    def test_none_is_not_a_state(self):
        # None marks the out-of-domain chain of the cells and the unrolled tree.
        with pytest.raises(ModelError, match="None cannot be a state"):
            named_chain(
                (None, 1), {None: {None: F(1)}, 1: {None: F(1)}}, domain=(None, 1), horizon=2
            )

    def test_states_that_print_alike_are_rejected(self):
        with pytest.raises(ModelError, match="states 1 and '1' collide as '1'"):
            named_chain((1, "1"), {1: {"1": F(1)}, "1": {1: F(1)}}, domain=(1, "1"), horizon=2)

    @pytest.mark.parametrize("model", [SLASHED, BANG], ids=["slashed", "bang"])
    def test_cli_solves_chains_with_such_names(self, capsys, tmp_path, model):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(dump_model(model)))
        assert main(["solve", "--model", str(path)]) == 0
        assert "equilibrium: yes" in capsys.readouterr().out
