"""Wire-format round trips and malformed-input rejection."""

import hashlib
import json
import random
import re
from fractions import Fraction
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condstop import cli, modelio, numeric
from condstop import (
    EXACT,
    AtomTree,
    ModelError,
    ParseError,
    PeriodicMarkovPolicy,
    PolicyError,
    SnellPair,
    StoppingPolicy,
    TimedRegions,
    backward_solve,
    binomial_tree,
    dump_model,
    dump_pair,
    dump_policy,
    float_mode,
    load_model,
    load_pair,
    load_policy,
    minnie_donald_model,
    model_digest,
    read_json,
    two_state_model,
    unroll,
)
from condstop.random_models import random_markov_model, random_tree


def reload(document):
    """Push a document through a JSON encode/decode cycle first, as the CLI does."""
    return json.loads(json.dumps(document))


class TestModelRoundTrip:
    def test_tree(self):
        tree = binomial_tree()
        doc = dump_model(tree)
        again = dump_model(load_model(reload(doc)))
        assert again == doc

    def test_markov(self):
        model = two_state_model()
        doc = dump_model(model)
        rebuilt = load_model(reload(doc))
        assert dump_model(rebuilt) == doc
        assert rebuilt.discount == F(9, 10)
        assert rebuilt.domain == frozenset({1, 2})

    def test_markov_with_forced_stops(self):
        model = minnie_donald_model()
        doc = dump_model(model)
        assert doc["forced_stop"] == [3, 4]
        rebuilt = load_model(reload(doc))
        assert rebuilt.forced_stop == frozenset({3, 4})
        assert dump_model(rebuilt) == doc

    def test_float_mode_round_trip_is_lossless(self):
        mode = float_mode()
        model = two_state_model(mode=mode)
        doc = dump_model(model)
        rebuilt = load_model(reload(doc), mode=mode)
        assert rebuilt.transitions == model.transitions
        assert rebuilt.payoff == model.payoff


# Model files written with literals other than the canonical `format_scalar`
# forms: a decimal, an unreduced ratio, padding, a negative zero, an exponent.
NONCANONICAL_TREE = {
    "type": "tree",
    "nodes": [
        {"id": "r", "prob": " 1 ", "in_domain": True, "payoff": " 3 "},
        {"id": "u", "parent": "r", "prob": "0.5", "in_domain": True, "payoff": "-0"},
        {"id": "d", "parent": "r", "prob": "2/4", "in_domain": True, "payoff": "1e-1"},
    ],
}
NONCANONICAL_CHAIN = {
    "type": "markov",
    "states": [1, "b"],
    "initial": 1,
    "transitions": {"1": {"1": "0.5", "b": "2/4"}, "b": {"1": "1e-1", "b": "0.9"}},
    "payoff": {"1": " 3 ", "b": "-0"},
    "discount": "9/10",
    "domain": [1, "b"],
    "horizon": 3,
}


def count_parses(monkeypatch) -> list:
    """Record every literal `parse_rational` is handed from now on."""
    parsed = []
    parse = numeric.parse_rational
    for module in (numeric, modelio):
        monkeypatch.setattr(module, "parse_rational", lambda v: parsed.append(v) or parse(v))
    return parsed


class TestModelDigest:
    def test_stable_across_round_trips(self):
        model = two_state_model()
        digest = model_digest(model)
        assert digest == model_digest(load_model(reload(dump_model(model))))
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_insensitive_to_document_key_order(self):
        doc = dump_model(two_state_model())
        shuffled = {key: doc[key] for key in sorted(doc, reverse=True)}
        assert model_digest(load_model(shuffled)) == model_digest(load_model(doc))

    def test_sensitive_to_content(self):
        base = model_digest(two_state_model())
        assert model_digest(two_state_model(a=F(13, 10))) != base
        assert model_digest(binomial_tree()) != base

    @pytest.mark.parametrize(
        "model, digest",
        [
            (binomial_tree, "f262cea5c044023e0f5aab388d65926ea2ff7a430e46d7fe393c53c6c8bb698a"),
            (two_state_model, "60ff7fc41a733165115305a7cbb6141a90aa9ec36bf2504fe806c80225f3a92e"),
            (minnie_donald_model,
             "52ecf8e9096b3cc8420c4e7bebe3ae1b49aac2cc2e83aee6f842a025472f9827"),
        ],
        ids=["binomial", "two-state", "minnie-donald"],
    )
    def test_pinned_builtins(self, model, digest):
        assert model_digest(model()) == digest

    @pytest.mark.parametrize(
        "document, digest",
        [
            (NONCANONICAL_TREE, "ca284fee5d12e8ab5cffa3c4ce4f6addb119d2fcea7ac8445fcf5c36a00dcd60"),
            (NONCANONICAL_CHAIN,
             "73ebcb86d893da75ad98dcd7b49d8c0c38d2096ccb327aa95b23c0cc773953df"),
        ],
        ids=["tree", "chain"],
    )
    def test_pinned_files_with_noncanonical_literals(self, tmp_path, document, digest):
        # The digest hashes the parsed numbers: "0.5" and "2/4" both as "1/2".
        path = tmp_path / "model.json"
        path.write_text(json.dumps(document))
        assert model_digest(load_model(read_json(str(path)))) == digest


BAD_TREE_DOCS = [
    # duplicate node ids
    {
        "type": "tree",
        "nodes": [
            {"id": "r", "prob": "1", "in_domain": True, "payoff": "1"},
            {"id": "r", "prob": "1", "in_domain": True, "payoff": "1"},
        ],
    },
    # unknown parent
    {
        "type": "tree",
        "nodes": [
            {"id": "r", "prob": "1", "in_domain": True, "payoff": "1"},
            {"id": "a", "parent": "ghost", "prob": "1", "in_domain": True, "payoff": "1"},
        ],
    },
    # parent chain forms a cycle
    {
        "type": "tree",
        "nodes": [
            {"id": "a", "parent": "b", "prob": "1", "in_domain": True, "payoff": "1"},
            {"id": "b", "parent": "a", "prob": "1", "in_domain": True, "payoff": "1"},
        ],
    },
    # missing 'prob'
    {"type": "tree", "nodes": [{"id": "r", "in_domain": True, "payoff": "1"}]},
    # in_domain must be a bool
    {"type": "tree", "nodes": [{"id": "r", "prob": "1", "in_domain": "yes", "payoff": "1"}]},
    # empty node list
    {"type": "tree", "nodes": []},
    # blank id
    {"type": "tree", "nodes": [{"id": "", "prob": "1", "in_domain": True, "payoff": "1"}]},
]


class TestMalformedModels:
    @pytest.mark.parametrize("doc", BAD_TREE_DOCS)
    def test_bad_tree_documents(self, doc):
        with pytest.raises(ParseError):
            load_model(doc)

    def test_unknown_type(self):
        with pytest.raises(ParseError):
            load_model({"type": "galton-watson"})
        with pytest.raises(ParseError):
            load_model(["not", "an", "object"])

    def test_float_scalars_are_rejected(self):
        doc = dump_model(binomial_tree())
        doc["nodes"][0]["payoff"] = 2.0
        with pytest.raises(ParseError):
            load_model(doc)

    def test_declared_horizon_must_match(self):
        doc = dump_model(binomial_tree())
        doc["horizon"] = 5
        with pytest.raises(ParseError):
            load_model(doc)

    @pytest.mark.parametrize("horizon", [True, 1.0, "1", [1]])
    def test_tree_bad_horizon_literal(self, horizon):
        # A depth-1 tree: `true` and `1.0` equal its depth, and were accepted.
        doc = {"type": "tree", "horizon": horizon, "nodes": [
            {"id": "r", "prob": "1", "in_domain": True, "payoff": "1"},
            {"id": "a", "parent": "r", "prob": "1", "in_domain": True, "payoff": "2"},
        ]}
        message = f"tree model: horizon must be an integer, got {horizon!r}"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_model(doc)
        for declared in (1, None):
            doc["horizon"] = declared
            assert load_model(doc).horizon == 1

    def test_markov_missing_keys(self):
        doc = dump_model(two_state_model())
        for key in ("states", "initial", "transitions", "payoff", "domain", "discount"):
            broken = {k: v for k, v in doc.items() if k != key}
            with pytest.raises(ParseError):
                load_model(broken)

    def test_markov_unknown_state_in_row(self):
        doc = dump_model(two_state_model())
        doc["transitions"]["1"]["7"] = "1/10"
        with pytest.raises(ParseError):
            load_model(doc)

    def test_markov_bad_horizon_literal(self):
        doc = dump_model(two_state_model())
        doc["horizon"] = "soon"
        with pytest.raises(ParseError):
            load_model(doc)
        doc["horizon"] = True
        with pytest.raises(ParseError):
            load_model(doc)

    def test_colliding_state_names(self):
        doc = dump_model(two_state_model())
        doc["states"] = [0, 1, "1"]
        with pytest.raises(ParseError):
            load_model(doc)

    def test_valid_document_with_invariant_violation_is_a_model_error(self):
        # Parsing succeeds; the model layer rejects the content.
        doc = dump_model(two_state_model())
        doc["transitions"]["1"]["1"] = "2/3"  # row no longer sums to one
        with pytest.raises(ModelError):
            load_model(doc)


class TestPolicyDocuments:
    def test_decisions_round_trip(self):
        tree = binomial_tree()
        _, policy = backward_solve(tree)
        doc = dump_policy(policy)
        rebuilt = load_policy(reload(doc))
        assert isinstance(rebuilt, StoppingPolicy)
        assert rebuilt.decisions == dict(policy.decisions)
        assert dump_policy(rebuilt) == doc

    def test_decisions_reject_non_bits(self):
        with pytest.raises(ParseError):
            load_policy({"decisions": {"root": 2}})
        with pytest.raises(ParseError):
            load_policy({"decisions": {"root": True}})
        with pytest.raises(ParseError):
            load_policy({"decisions": {}})

    def test_neither_form(self):
        with pytest.raises(ParseError):
            load_policy({"stop": "sometimes"})
        with pytest.raises(ParseError):
            load_policy("just stop")

    def test_regions_need_the_chain(self):
        doc = {"regions": {"0": [1, 2]}}
        with pytest.raises(ParseError):
            load_policy(doc)
        with pytest.raises(ParseError):
            load_policy(doc, model=binomial_tree())

    def test_timed_regions(self):
        model = two_state_model()
        doc = {"regions": {"0": [1], "1": [1, 2], "2": [0, 1, 2]}}
        rule = load_policy(doc, model=model)
        assert isinstance(rule, TimedRegions)
        assert rule.stops(1, 2) and not rule.stops(0, 2)
        with pytest.raises(PolicyError):
            rule.stops(3, 1)
        assert dump_policy(rule) == {"regions": {"0": [1], "1": [1, 2], "2": [0, 1, 2]}}

    def test_timed_regions_on_tree(self):
        model = two_state_model()
        tree = unroll(model, 2)
        rule = load_policy({"regions": {"0": [], "1": [2], "2": [1, 2]}}, model=model)
        bits = rule.on_tree(tree)
        assert bits.bit("1") == 0
        assert bits.bit("1/2") == 1 and bits.bit("1/1") == 0
        assert bits.bit("1/!") == 1  # out of the domain, pinned

    def test_on_tree_needs_every_level(self):
        model = two_state_model()
        tree = unroll(model, 2)
        rule = load_policy({"regions": {"0": [], "1": [2]}}, model=model)
        with pytest.raises(PolicyError):
            rule.on_tree(tree)

    def test_periodic_round_trip(self):
        model = two_state_model()
        doc = {"period": 2, "regions": {"0": [0, 1, 2], "1": [0, 2]}}
        policy = load_policy(reload(doc), model=model)
        assert isinstance(policy, PeriodicMarkovPolicy)
        assert policy.period == 2
        assert policy.regions[1] == frozenset({0, 2})
        assert dump_policy(policy) == doc

    def test_periodic_phase_coverage(self):
        model = two_state_model()
        with pytest.raises(ParseError):
            load_policy({"period": 2, "regions": {"0": [0, 1, 2]}}, model=model)
        with pytest.raises(ParseError):
            load_policy({"period": 0, "regions": {}}, model=model)

    def test_region_keys_must_be_integers(self):
        with pytest.raises(ParseError):
            load_policy({"regions": {"soon": [1]}}, model=two_state_model())

    def test_unknown_region_state(self):
        with pytest.raises(ParseError):
            load_policy({"regions": {"0": [9]}}, model=two_state_model())

    def test_dump_rejects_non_policies(self):
        with pytest.raises(TypeError):
            dump_policy({"root": 1})


class TestPairDocuments:
    def test_round_trip(self):
        tree = binomial_tree()
        pair, _ = backward_solve(tree)
        doc = dump_pair(pair)
        rebuilt = load_pair(reload(doc))
        assert rebuilt.values == dict(pair.values)
        assert rebuilt.survival == dict(pair.survival)
        assert dump_pair(rebuilt) == doc

    def test_rational_strings_on_the_wire(self):
        pair, _ = backward_solve(binomial_tree())
        doc = dump_pair(pair)
        assert doc["V"]["root"] == "13/2"
        assert all(isinstance(v, str) for v in doc["V"].values())

    def test_missing_half(self):
        with pytest.raises(ParseError):
            load_pair({"V": {"root": "1"}})
        with pytest.raises(ParseError):
            load_pair({"V": "nope", "S": {}})

    def test_float_values_rejected(self):
        with pytest.raises(ParseError):
            load_pair({"V": {"root": 6.5}, "S": {"root": "1"}})

    @pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
    @pytest.mark.parametrize(
        "literal, why",
        [
            (6.5, "expected a rational string, got float"),
            (1.0, "expected a rational string, got float"),
            (True, "not a number: True"),
        ],
    )
    def test_json_floats_and_bools_rejected_in_both_modes(self, mode, literal, why):
        with pytest.raises(ParseError) as err:
            load_pair({"V": {"root": "1"}, "S": {"root": literal}}, mode=mode)
        assert str(err.value) == f"S['root']: {why}"

    @pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
    @pytest.mark.parametrize(
        "survival, why",
        [
            ({"root": 1, "u": True}, "S['u']: not a number: True"),
            ({"root": "1", "u": 1.0}, "S['u']: expected a rational string, got float"),
        ],
        ids=["true-after-1", "1.0-after-string-1"],
    )
    def test_equal_literals_of_other_types_are_parsed_apart(self, mode, survival, why):
        with pytest.raises(ParseError) as err:
            load_pair({"V": {"root": "1"}, "S": survival}, mode=mode)
        assert str(err.value) == why

    @pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
    def test_one_parse_per_entry(self, monkeypatch, mode):
        # at most one: each distinct string literal is parsed once per document
        pair, _ = backward_solve(binomial_tree())
        doc = dump_pair(pair)
        parsed = count_parses(monkeypatch)
        rebuilt = load_pair(doc, mode=mode)
        literals = set(doc["V"].values()) | set(doc["S"].values())
        assert len(literals) < len(doc["V"]) + len(doc["S"])
        assert sorted(parsed) == sorted(literals)
        number = Fraction if mode.exact else float
        assert rebuilt.values == {aid: number(v) for aid, v in pair.values.items()}
        assert all(type(s) is number for s in rebuilt.survival.values())


class TestModelLiterals:
    @staticmethod
    def literals(document) -> list:
        """Every number entry of a model document, in document order."""
        if document["type"] == "tree":
            return [
                entry
                for node in document["nodes"]
                for entry in (node["payoff"], node["prob"])
                if entry is not None
            ]
        rows = document["transitions"].values()
        return [
            *(p for row in rows for p in row.values()),
            *document["payoff"].values(),
            document["discount"],
        ]

    @pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
    @pytest.mark.parametrize(
        "model",
        [unroll(two_state_model(), 4), minnie_donald_model()],
        ids=["tree", "chain"],
    )
    def test_one_parse_per_entry(self, monkeypatch, mode, model):
        # at most one: each distinct string literal is parsed once per document
        doc = reload(dump_model(model))
        literals = self.literals(doc)
        assert len(set(literals)) < len(literals)
        parsed = count_parses(monkeypatch)
        rebuilt = load_model(doc, mode=mode)
        assert sorted(parsed) == sorted(set(literals))
        number = Fraction if mode.exact else float
        expected = [numeric.format_scalar(number(Fraction(v))) for v in literals]
        assert self.literals(dump_model(rebuilt)) == expected

    @pytest.mark.parametrize(
        "document, message",
        [
            (
                {**NONCANONICAL_CHAIN, "payoff": {"1": "1", "b": True}},
                "payoff['b']: not a number: True",
            ),
            (
                {**NONCANONICAL_CHAIN, "payoff": {"1": 1, "b": 1.0}},
                "payoff['b']: expected a rational string, got float",
            ),
            (
                {**NONCANONICAL_CHAIN, "payoff": {"1": "x", "b": "x"}},
                "payoff['1']: bad rational literal 'x': Invalid literal for Fraction: 'x'",
            ),
            (
                {"type": "tree", "nodes": [
                    {"id": "r", "prob": "1", "in_domain": True, "payoff": "1/0"},
                    {"id": "u", "parent": "r", "prob": "1/0", "in_domain": True,
                     "payoff": "1"},
                ]},
                "node 'r' payoff: bad rational literal '1/0': Fraction(1, 0)",
            ),
        ],
        ids=["true-after-string-1", "1.0-after-1", "chain-first-bad", "tree-first-bad"],
    )
    @pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
    def test_first_bad_entry_raises_with_its_context(self, mode, document, message):
        with pytest.raises(ParseError) as err:
            load_model(reload(document), mode=mode)
        assert str(err.value) == message


class TestReadJson:
    def test_reads_documents(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dump_model(binomial_tree())))
        model = load_model(read_json(str(path)))
        assert isinstance(model, AtomTree)
        assert model.horizon == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_json(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_json(str(path))

    @pytest.mark.parametrize(
        "text",
        [
            '{"a": {"b": 1}, "c": [{"d": "x:y"}, {}]}',
            '{"a:b": "c:d", "e": {"f": ":::"}}',
            '[{"a": 1}, {"a": 2}, "::"]',
            '"just: a string"',
        ],
    )
    def test_documents_without_repeated_keys_read_as_json(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert read_json(str(path)) == json.loads(text)

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"a": 1, "a": 1}', "a"),
            ('{"a": {"b": 1, "c": 2, "b": 3}}', "b"),
            ('[{"x": "1:2", "y": {"z": 0, "z": 0}}]', "z"),  # colons in strings too
            ('{"k:": 1, "k:": 2}', "k:"),
        ],
    )
    def test_repeated_keys_are_rejected(self, tmp_path, text, key):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{path}: duplicate key '{key}'")):
            read_json(str(path))

    @pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"a": ', "}")])
    def test_deep_nesting_is_a_parse_error(self, tmp_path, opener, closer):
        path = tmp_path / "doc.json"
        path.write_text(opener * 100_000 + "1" + closer * 100_000)
        message = f"{path}: invalid JSON (nested too deeply)"
        with pytest.raises(ParseError, match=re.escape(message)):
            read_json(str(path))


def two_step_read_json(path: str):
    """The reader `read_json` replaces, kept as its oracle: one plain parse
    counting the members of each object, and a second parse pair by pair
    when the text has more ':' than members (a repeated key, or a colon
    inside a string)."""
    members = 0

    def count(obj: dict) -> dict:
        nonlocal members
        members += len(obj)
        return obj

    def unique(pairs: list) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise ParseError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
            document = json.loads(text, object_hook=count)
        if text.count(":") > members:
            document = json.loads(text, object_pairs_hook=unique)
        return document
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


KEYS = st.sampled_from(["a", "b", "a:b", ":", "k:", "", '"x":1'])
SCALARS = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.text(alphabet=":ab{}[],\" ", max_size=6),
)


def json_texts():
    """JSON texts whose objects may repeat keys at any depth, with colons in
    keys and strings, written member by member with varied spacing."""

    def objects(children):
        return st.lists(st.tuples(KEYS, children), max_size=4)

    return st.recursive(
        SCALARS.map(json.dumps),
        lambda children: st.one_of(
            st.lists(children, max_size=3).map(lambda items: "[" + ", ".join(items) + "]"),
            st.tuples(objects(children), st.sampled_from([":", " : ", ":  "])).map(
                lambda spec: "{" + ", ".join(
                    json.dumps(key) + spec[1] + value for key, value in spec[0]
                ) + "}"
            ),
        ),
        max_leaves=12,
    )


class TestReadJsonAgainstTwoStepReader:
    """`read_json`'s one parse against `two_step_read_json`."""

    @settings(max_examples=300, deadline=None)
    @given(json_texts())
    def test_same_value_or_same_message(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("doc") / "doc.json"
        path.write_text(text, encoding="utf-8")
        outcomes = []
        for reader in (read_json, two_step_read_json):
            try:
                outcomes.append(("value", reader(str(path))))
            except ParseError as exc:
                outcomes.append(("error", str(exc)))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "text", ['{"a": 1}', '{"a:": "b:c", "d": [{"e": ":"}]}', '{"a": 1, "a": 2}', "[1, 2]"]
    )
    def test_one_parse_per_file(self, tmp_path, monkeypatch, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(1) or loads(*a, **k))
        try:
            read_json(str(path))
        except ParseError:
            pass
        assert len(calls) == 1

    def test_a_repeated_key_before_a_syntax_error_is_named(self, tmp_path):
        # The object closes, and is checked, before the parser reaches the
        # error; the two-step reader reported "invalid JSON" here.
        path = tmp_path / "doc.json"
        path.write_text('[{"a": 1, "a": 2}, ')
        with pytest.raises(ParseError, match=re.escape(f"{path}: duplicate key 'a'")):
            read_json(str(path))
        with pytest.raises(ParseError, match="invalid JSON"):
            two_step_read_json(str(path))


class _Dict(dict):
    pass


class _List(list):
    pass


class _Str(str):
    pass


class _Int(int):
    pass


WRITER_KEYS = st.one_of(
    st.text(max_size=4),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.just((1, 2)),
)
WRITER_SCALARS = st.one_of(
    st.text(max_size=6),  # non-ASCII included
    st.integers(),
    st.sampled_from([4299, 4300]).map(lambda digits: -(10**digits)),  # 4,300 and 4,301 digits
    st.sampled_from([_Int(7), _Str("é"), object(), b"x"]),
    st.floats(),  # ±inf and NaN included
    st.booleans(),
    st.none(),
)


def writer_documents():
    """Nested dicts, lists and tuples, empty or not, with dict and list
    subclasses, keys of every JSON key type plus one that is not, and values
    json writes, or refuses to write."""
    return st.recursive(
        WRITER_SCALARS,
        lambda children: st.one_of(
            st.dictionaries(WRITER_KEYS, children, max_size=4),
            st.dictionaries(st.text(max_size=3), children, max_size=4).map(_Dict),
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.lists(children, max_size=4).map(_List),
        ),
        max_leaves=16,
    )


def written(write, document):
    try:
        return "text", write(document)
    except (TypeError, ValueError) as exc:
        return "error", type(exc), str(exc)


class TestIndentedWriterAgainstJsonDumps:
    """`modelio._indented`, which writes the `--json` reports, against its
    oracle `json.dumps(obj, sort_keys=True, indent=2)`."""

    @staticmethod
    def check(document):
        assert written(lambda d: "".join(modelio._indented(d)), document) == written(
            lambda d: json.dumps(d, sort_keys=True, indent=2), document
        )

    @settings(max_examples=400, deadline=None)
    @given(writer_documents())
    def test_same_text_or_same_error(self, document):
        self.check(document)

    @pytest.mark.parametrize(
        "document",
        [
            {"b": {}, "a": [], "c": ()},
            {"z": {"y": [1, "2", None]}, "x": _Dict(b=1.5, a=_List([True]))},
            [{}, [[]], _Dict(), _List()],
            {2: [1], 1.5: {"k": "é"}, True: None, float("inf"): 0},
            {None: [float("nan"), float("-inf")]},
            {"a": [1], 2: [2]},  # keys of mixed types
            {(1, 2): [1]},  # a key json refuses
            {"a": [object()]},  # a value json refuses
            {"a": {"b": 10**4300}},  # an int past str()'s digit limit
        ],
    )
    def test_examples(self, document):
        self.check(document)


class TestPrebuiltEncoders:
    """The writer and the digest reuse C encoders built once per process.
    They keep no cycle markers, so no marker that an error leaves behind can
    make the same object, written again, look circular."""

    def test_the_same_objects_again_after_errors(self):
        unserializable, too_long, shared = object(), [10**4300], [1, "x"]
        for _ in range(2):  # each refused the second time as the first
            for document in (
                {"a": unserializable}, [{"b": [unserializable]}],
                {"a": too_long}, {"b": {"c": too_long}},
                {"a": shared, "b": [shared, {"c": shared}], "d": {"e": shared}},
            ):
                TestIndentedWriterAgainstJsonDumps.check(document)

    def test_nan_and_non_str_keys_at_depth(self):
        TestIndentedWriterAgainstJsonDumps.check(
            {"x": [{1: float("nan"), 2.5: [float("-inf")], None: {True: -0.0, False: [None]}}],
             "y": {"z": {float("nan"): "é", -3: float("inf")}}}
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_digest_hashes_the_canonical_json(self, seed):
        rng = random.Random(seed)
        for model in (random_tree(rng), random_markov_model(rng), minnie_donald_model()):
            text = json.dumps(dump_model(model), sort_keys=True, separators=(",", ":"))
            assert model_digest(model) == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_no_encode_call_per_report(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("JSONEncoder.encode called")

        monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
        monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
        for argv in (["solve", "--model", "binomial", "--json"],
                     ["precommit", "--model", "binomial", "--json"],
                     ["enumerate", "--model", "two-state", "--period", "2", "--json"]):
            assert cli.main(argv) == 0
            assert json.loads(capsys.readouterr().out)["command"] == argv
