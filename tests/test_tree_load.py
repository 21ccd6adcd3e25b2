"""The tree load path against its oracles: `load_model` on tree documents
against `tree_oracles.load_tree_by_walk`, `AtomTree`'s integer probability
checks against `TreeBySums`, and the benchmark's tree pool against the
digests its answers were recorded for."""

import json
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condstop import EXACT, float_mode, load_model, model_digest
from condstop.model import Atom, AtomTree
from condstop.modelio import dump_model
from condstop.numeric import sum_in_order, total_unless_one
from condstop.random_models import random_tree

from tree_oracles import TreeBySums, load_tree_by_walk

MODES = [EXACT, float_mode()]
MODE_IDS = ["exact", "float"]


def outcome(build):
    """The tree `build()` gives, as levels, children and digest, or its error."""
    try:
        tree = build()
    except Exception as exc:  # any type: the two paths must raise the same one
        return "error", type(exc).__name__, str(exc)
    children = {atom.id: [c.id for c in tree.children(atom.id)] for atom in tree.atoms()}
    return "tree", tree.levels, children, model_digest(tree)


def same_outcome(document, mode):
    got = outcome(lambda: load_model(document, mode))
    assert got == outcome(lambda: load_tree_by_walk(document, mode))
    return got


@st.composite
def valid_trees(draw):
    """A tree document: depth 1 to 3, one to three children per node, child
    probabilities w/W of random weights, some nodes out of the domain."""
    def literal(value):
        scale = draw(st.sampled_from([1, 1, 2]))
        return f"{value.numerator * scale}/{value.denominator * scale}"

    nodes = [{"id": "r", "prob": "1", "in_domain": True, "payoff": "3/2"}]
    frontier = [nodes[0]]
    for _ in range(draw(st.integers(1, 3))):
        below = []
        for parent in frontier:
            weights = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
            for j, weight in enumerate(weights):
                node = {"id": f"{parent['id']}{j}", "parent": parent["id"],
                        "prob": literal(Fraction(weight, sum(weights))),
                        "in_domain": parent["in_domain"] and draw(st.booleans())}
                if node["in_domain"]:
                    node["payoff"] = literal(Fraction(draw(st.integers(-9, 9)), 4))
                elif draw(st.booleans()):
                    node["payoff"] = None
                below.append(node)
        nodes += below
        frontier = below
    return {"type": "tree", "nodes": nodes}


def corrupt(draw, document):
    """One change that may break the document, chosen from every class of
    error the loader and `AtomTree` report, plus harmless ones."""
    nodes = document["nodes"]
    objects = [j for j, node in enumerate(nodes) if type(node) is dict]
    if not objects:
        return
    i = draw(st.sampled_from(objects))
    node, root = nodes[i], nodes[objects[0]]
    kind = draw(st.sampled_from([
        "off", "zero", "negative", "int", "bool", "float", "bad literal", "missing key",
        "not an object", "mapping", "empty id", "non-str id", "duplicate id", "list parent",
        "int parent", "cycle", "self parent", "unknown parent", "second root", "payoff",
        "no payoff", "in_domain", "re-enter", "root prob", "reorder", "horizon", "huge",
    ]))
    try:
        prob = Fraction(node.get("prob"))
    except (TypeError, ValueError, ZeroDivisionError):
        prob = None
    if kind in ("off", "negative") and prob is None:
        kind = "reorder"
    if kind == "off":
        k = draw(st.integers(1, 20))
        node["prob"] = str(prob + draw(st.sampled_from([1, -1])) * Fraction(1, 10**k))
    elif kind == "zero":
        node["prob"] = draw(st.sampled_from(["0", "0/3", "-0"]))
    elif kind == "negative":
        node["prob"] = str(-prob)
    elif kind == "int":
        node["prob"] = draw(st.sampled_from([1, 0, 2, -1]))
    elif kind == "bool":
        node[draw(st.sampled_from(["prob", "payoff"]))] = draw(st.booleans())
    elif kind == "float":
        node[draw(st.sampled_from(["prob", "payoff"]))] = draw(st.sampled_from([0.5, 1.0, 2.0]))
    elif kind == "bad literal":
        literal = draw(st.sampled_from(["x", "1/0", "", ["1"], {"n": 1}]))
        node[draw(st.sampled_from(["prob", "payoff"]))] = literal
    elif kind == "huge":
        node["payoff"] = "1e400"
    elif kind == "missing key":
        node.pop(draw(st.sampled_from(["id", "prob", "in_domain", "parent", "payoff"])), None)
    elif kind == "not an object":
        nodes[i] = draw(st.sampled_from([[node.get("id")], node.get("id"), 3, None]))
    elif kind == "mapping":
        nodes[i] = types.MappingProxyType(node)
    elif kind == "empty id":
        node["id"] = ""
    elif kind == "non-str id":
        node["id"] = draw(st.sampled_from([7, None, ["r"], True]))
    elif kind == "duplicate id":
        node["id"] = nodes[draw(st.sampled_from(objects))].get("id")
    elif kind == "list parent":
        node["parent"] = draw(st.sampled_from([["r"], {"r": 1}]))
    elif kind == "int parent":
        node["parent"] = 0
    elif kind == "cycle":
        root["parent"] = nodes[objects[-1]].get("id")
    elif kind == "self parent":
        node["parent"] = node.get("id")
    elif kind == "unknown parent":
        node["parent"] = "ghost"
    elif kind == "second root":
        node.pop("parent", None)
    elif kind == "payoff":
        node["payoff"] = "1"
    elif kind == "no payoff":
        node.pop("payoff", None)
    elif kind == "in_domain":
        node["in_domain"] = draw(st.sampled_from([not node.get("in_domain"), "yes", 1, None]))
    elif kind == "re-enter":
        node.update(in_domain=True, payoff="0")
    elif kind == "root prob":
        root["prob"] = draw(st.sampled_from(["1/2", "2", 1]))
    elif kind == "reorder":
        document["nodes"] = draw(st.permutations(nodes))
    elif kind == "horizon":
        # Only ints: the oracle accepted bool and float horizons that equal the depth.
        document["horizon"] = draw(st.sampled_from([None, 0, 1, 2, 3, 4]))


@st.composite
def tree_documents(draw):
    document = draw(valid_trees())
    for _ in range(draw(st.integers(0, 2))):
        corrupt(draw, document)
    return document


class TestTreeLoaderAgainstWalkOracle:
    """`load_model` on tree documents against `load_tree_by_walk`: the same
    tree, or the same error with the same message."""

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    @settings(max_examples=300, deadline=None, database=None)
    @given(document=tree_documents())
    def test_same_tree_or_same_error(self, mode, document):
        same_outcome(document, mode)

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_the_unbroken_trees_load(self, mode):
        rng = random.Random(3)
        for tree in (random_tree(rng) for _ in range(40)):
            document = json.loads(json.dumps(dump_model(tree)))
            assert same_outcome(document, mode)[0] == "tree"

    @pytest.mark.parametrize(
        "changes, error, message",
        [
            ({1: {"prob": "1/3"}}, "ModelError",
             "children of 'r' have probabilities summing to 5/6, not 1"),
            # The parent's sum is checked before its children's signs.
            ({1: {"prob": 0}}, "ModelError",
             "children of 'r' have probabilities summing to 1/2, not 1"),
            ({1: {"prob": "0"}, 2: {"prob": "1"}}, "ModelError",
             "atom 'u': branch probability must be positive"),
            ({1: {"parent": ["r"]}}, "ParseError", "node 'u': unknown parent ['r']"),
            ({1: {"parent": "u"}}, "ParseError", "node 'u': parent chain forms a cycle"),
            ({1: {"prob": 0.5}}, "ParseError",
             "node 'u' prob: expected a rational string, got float"),
            # Nodes are read one at a time, in the order they are listed.
            ({0: {"prob": "x"}, 1: {"parent": "ghost"}}, "ParseError",
             "node 'r' prob: bad rational literal 'x': Invalid literal for Fraction: 'x'"),
        ],
    )
    def test_pinned_messages(self, changes, error, message):
        document = {"type": "tree", "nodes": [
            {"id": "r", "prob": "1", "in_domain": True, "payoff": "3"},
            {"id": "u", "parent": "r", "prob": "1/2", "in_domain": True, "payoff": "1"},
            {"id": "d", "parent": "r", "prob": "1/2", "in_domain": True, "payoff": "1"},
        ]}
        for i, change in changes.items():
            document["nodes"][i].update(change)
        assert same_outcome(document, EXACT)[1:] == (error, message)

    def test_a_child_listed_before_its_parent(self):
        document = {"type": "tree", "nodes": [
            {"id": "uu", "parent": "u", "prob": "1", "in_domain": True, "payoff": "1"},
            {"id": "r", "prob": "1", "in_domain": True, "payoff": "3"},
            {"id": "u", "parent": "r", "prob": "1", "in_domain": True, "payoff": "2"},
        ]}
        tree = load_model(document)
        assert [[a.id for a in level] for level in tree.levels] == [["r"], ["u"], ["uu"]]
        assert same_outcome(document, EXACT)[0] == "tree"


class TestProbabilityChecksAgainstSums:
    """`total_unless_one` and `AtomTree`'s positivity check against the
    `Fraction` sums and comparisons they replace."""

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    @settings(max_examples=300, deadline=None, database=None)
    @given(values=st.lists(st.one_of(
        st.fractions(min_value=-2, max_value=2, max_denominator=12),
        st.integers(-1, 2),
        st.sampled_from([Fraction(1, 3), Fraction(1, 10**17), 0.5, 1 / 3, 1e-10]),
    ), min_size=1, max_size=5))
    def test_same_verdict_and_total(self, mode, values):
        total = sum_in_order(values)
        expected = None if mode.eq(total, mode.one) else total
        got = total_unless_one(values, mode)
        assert got == expected and str(got) == str(expected)

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize(
        "probs",
        [
            [1, 0], [Fraction(1, 2), Fraction(1, 2)], [Fraction(2, 3), Fraction(2, 3)],
            [Fraction(1, 3), 0.5], [0.3, 0.6, 0.1], [0.1, 0.6, 0.3], [True, Fraction(0)],
            [Fraction(-1, 2), Fraction(3, 2)], [1.0 - 1e-17, 1e-17],
        ],
    )
    def test_trees_built_from_atoms(self, mode, probs):
        atoms = [Atom("r", 0, None, mode.one, True, 1)]
        atoms += [Atom(f"c{j}", 1, "r", p, True, 0) for j, p in enumerate(probs)]
        assert outcome(lambda: AtomTree(atoms, mode)) == outcome(lambda: TreeBySums(atoms, mode))


def test_the_benchmark_tree_pool_keeps_its_digests():
    """Each of the 480 pool trees, written and loaded again, has the digest
    its benchmark answers were recorded for, and loads as the oracle does."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))["models"]
    rng = random.Random(20240817)
    for i in range(480):
        document = json.loads(json.dumps(dump_model(random_tree(rng))))
        loaded = load_model(document)
        assert model_digest(loaded)[:16] == reference[f"tree/{i}"]
        assert outcome(lambda: loaded) == outcome(lambda: load_tree_by_walk(document))
