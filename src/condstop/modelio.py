"""JSON wire formats for models, policies, and value/survival pairs.

All numbers travel as rational strings ("22/3", "0.5", "3"); floats in files
are rejected so that exact runs stay exact.  States may be JSON integers or
strings; wherever JSON forces a string key (transition rows, payoff tables,
region maps), the key is matched against str(state).

Malformed input raises ParseError; input that parses but violates a model
invariant raises the model layer's own errors.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import compress, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import add
from typing import Any, Optional, Union

from .infinite import PeriodicMarkovPolicy
from .model import Atom, AtomTree, MarkovModel, State, _Cells
from .numeric import EXACT, NumericError, NumericMode, Scalar, format_scalar, parse_rational
from .policy import PolicyError, StoppingPolicy
from .recursion import SnellPair

Model = Union[AtomTree, MarkovModel]


class ParseError(ValueError):
    """The input file or document is not a valid wire-format object."""


@dataclass(frozen=True)
class TimedRegions:
    """A time-dependent Markov stopping rule: stop at time t iff the state
    lies in the region for t.  The finite-horizon cousin of a periodic policy."""

    regions: Mapping[int, frozenset]

    def stops(self, time: int, state: State) -> bool:
        if time not in self.regions:
            raise PolicyError(f"no stop region declared for time {time}")
        return state in self.regions[time]

    def on_tree(self, tree: AtomTree) -> StoppingPolicy:
        return StoppingPolicy.from_state_rule(tree, self.stops)


PolicyDocument = Union[StoppingPolicy, TimedRegions, PeriodicMarkovPolicy]


def _require(mapping: Mapping[str, Any], key: str, context: str, *names: Any) -> Any:
    """`mapping[key]`; a missing key raises ParseError in context `context.format(*names)`."""
    if key not in mapping:
        raise ParseError(f"{context.format(*names)}: missing required key {key!r}")
    return mapping[key]


class _Literals:
    """The numbers of one document, parsed from their literals.

    `number` parses a literal as a rational, or as a float in float mode,
    each distinct string literal once.  Entries of any other type are parsed
    one by one, so `1`, `true` and `1.0` never share a parse with each other
    or with `"1"`.  A bad literal raises ParseError at its first entry, whose
    context `context.format(*names)` is built only then.
    """

    def __init__(self, mode: NumericMode):
        self.exact = mode.exact
        self.parsed: dict[str, Scalar] = {}

    def number(self, value: Any, context: str, *names: Any) -> Scalar:
        if type(value) is str and value in self.parsed:
            return self.parsed[value]
        try:
            number = parse_rational(value)
            number = number if self.exact else float(number)
        except NumericError as exc:
            raise ParseError(f"{context.format(*names)}: {exc}") from exc
        except OverflowError:
            raise ParseError(
                f"{context.format(*names)}: {value!r} is out of range for a float"
            ) from None
        if type(value) is str:
            self.parsed[value] = number
        return number

    def table(self, entries: Mapping[str, Any], context: str) -> dict[str, Scalar]:
        """`number` of each entry, keyed as `entries`, in context
        `context.format(key)`; a literal seen before costs no call."""
        parsed = self.parsed
        return {
            key: parsed[entry] if type(entry) is str and entry in parsed
            else self.number(entry, context, key)
            for key, entry in entries.items()
        }


def _state_token(value: Any, context: str) -> State:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ParseError(f"{context}: states must be integers or strings, got {value!r}")
    return value


def _state_lookup(states: tuple) -> dict[str, State]:
    lookup: dict[str, State] = {}
    for state in states:
        key = str(state)
        if key in lookup:
            raise ParseError(f"states {lookup[key]!r} and {state!r} collide as {key!r}")
        lookup[key] = state
    return lookup


def _resolve(token: Any, lookup: Mapping[str, State], context: str) -> State:
    if isinstance(token, bool) or not isinstance(token, (int, str)):
        raise ParseError(f"{context}: {token!r} is not a state")
    key = str(token)
    if key not in lookup:
        raise ParseError(f"{context}: unknown state {token!r}")
    return lookup[key]


def load_model(document: Mapping[str, Any], mode: NumericMode = EXACT) -> Model:
    """Build a tree or chain model from its wire-format dictionary."""
    if not isinstance(document, Mapping):
        raise ParseError("model document must be a JSON object")
    kind = _require(document, "type", "model")
    if kind == "tree":
        return _load_tree(document, mode)
    if kind == "markov":
        return _load_markov(document, mode)
    raise ParseError(f"model: unknown type {kind!r}")


def _load_tree(document: Mapping[str, Any], mode: NumericMode) -> AtomTree:
    """Each node is checked once: its keys and literals here, the tree's
    invariants in `AtomTree`."""
    nodes = _require(document, "nodes", "tree model")
    if not isinstance(nodes, list) or not nodes:
        raise ParseError("tree model: 'nodes' must be a non-empty list")
    raw: dict[str, Mapping[str, Any]] = {}
    for i, node in enumerate(nodes):
        if type(node) is not dict and not isinstance(node, Mapping):
            raise ParseError(f"tree model: node {i} must be an object")
        node_id = _require(node, "id", "node {}", i)
        if not isinstance(node_id, str) or not node_id:
            raise ParseError(f"node {i}: 'id' must be a non-empty string")
        if node_id in raw:
            raise ParseError(f"node {i}: duplicate id {node_id!r}")
        raw[node_id] = node

    levels: dict[str, int] = {}

    def level_of(node_id: str) -> int:
        """Walk up to a node of known level or the root, then number the
        walked nodes down from there: a loop, so deep trees cannot exhaust
        the interpreter's recursion limit."""
        trail: dict[str, None] = {}
        while node_id not in levels:
            if node_id in trail:
                raise ParseError(f"node {node_id!r}: parent chain forms a cycle")
            parent = raw[node_id].get("parent")
            if parent is None:
                levels[node_id] = 0
                break
            if not isinstance(parent, str) or parent not in raw:
                raise ParseError(f"node {node_id!r}: unknown parent {parent!r}")
            trail[node_id] = None
            node_id = parent
        level = levels[node_id]
        for walked in reversed(trail):
            level += 1
            levels[walked] = level
        return level

    numbers = _Literals(mode)
    atoms = []
    for node_id, node in raw.items():
        parent = node.get("parent")
        # A parent listed first has its level already (a list parent is no key).
        if isinstance(parent, str) and parent in levels:
            level = levels[node_id] = levels[parent] + 1
        else:
            level = level_of(node_id)
        in_domain = node.get("in_domain")
        if not isinstance(in_domain, bool):
            raise ParseError(f"node {node_id!r}: 'in_domain' must be true or false")
        payoff = node.get("payoff")
        if payoff is not None:
            payoff = numbers.number(payoff, "node {!r} payoff", node_id)
        prob = numbers.number(_require(node, "prob", "node {!r}", node_id),
                              "node {!r} prob", node_id)
        atoms.append(Atom(node_id, level, parent, prob, in_domain, payoff))
    tree = AtomTree(atoms, mode=mode)
    horizon = document.get("horizon")
    if horizon is None:
        return tree
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise ParseError(f"tree model: horizon must be an integer, got {horizon!r}")
    if horizon != tree.horizon:
        raise ParseError(
            f"tree model: declared horizon {horizon!r} but nodes reach level {tree.horizon}"
        )
    return tree


def _load_markov(document: Mapping[str, Any], mode: NumericMode) -> MarkovModel:
    states = _require(document, "states", "markov model")
    if not isinstance(states, list) or not states:
        raise ParseError("markov model: 'states' must be a non-empty list")
    states = tuple(_state_token(s, "markov model states") for s in states)
    lookup = _state_lookup(states)

    numbers = _Literals(mode)
    transitions_doc = _require(document, "transitions", "markov model")
    if not isinstance(transitions_doc, Mapping):
        raise ParseError("markov model: 'transitions' must be an object")
    transitions: dict[State, dict[State, Scalar]] = {}
    for key, row in transitions_doc.items():
        state = _resolve(key, lookup, "transitions")
        if not isinstance(row, Mapping):
            raise ParseError(f"transitions[{key!r}] must be an object")
        transitions[state] = {
            _resolve(y, lookup, f"transitions[{key!r}]"): numbers.number(
                p, "transitions[{!r}][{!r}]", key, y
            )
            for y, p in row.items()
        }

    payoff_doc = _require(document, "payoff", "markov model")
    if not isinstance(payoff_doc, Mapping):
        raise ParseError("markov model: 'payoff' must be an object")
    payoff = {
        _resolve(key, lookup, "payoff"): numbers.number(value, "payoff[{!r}]", key)
        for key, value in payoff_doc.items()
    }

    domain = _require(document, "domain", "markov model")
    if not isinstance(domain, list):
        raise ParseError("markov model: 'domain' must be a list")
    horizon = document.get("horizon", "infinite")
    if horizon == "infinite":
        horizon = None
    elif isinstance(horizon, bool) or not isinstance(horizon, int):
        raise ParseError(f"markov model: horizon must be an integer or \"infinite\", got {horizon!r}")
    forced = document.get("forced_stop", [])
    if not isinstance(forced, list):
        raise ParseError("markov model: 'forced_stop' must be a list")

    return MarkovModel(
        states=states,
        initial=_resolve(_require(document, "initial", "markov model"), lookup, "initial"),
        transitions=transitions,
        domain=frozenset(_resolve(s, lookup, "domain") for s in domain),
        payoff=payoff,
        discount=numbers.number(_require(document, "discount", "markov model"), "discount"),
        horizon=horizon,
        forced_stop=frozenset(_resolve(s, lookup, "forced_stop") for s in forced),
        mode=mode,
    )


def dump_model(model: Model) -> dict:
    """Wire-format dictionary for a model, inverse of `load_model`."""
    if isinstance(model, AtomTree):
        nodes = []
        for atom in model.atoms():
            nodes.append(
                {
                    "id": atom.id,
                    "parent": atom.parent,
                    "prob": format_scalar(atom.branch_prob),
                    "in_domain": atom.in_domain,
                    "payoff": None if atom.payoff is None else format_scalar(atom.payoff),
                }
            )
        return {"type": "tree", "nodes": nodes, "horizon": model.horizon}
    document = {
        "type": "markov",
        "states": list(model.states),
        "initial": model.initial,
        "transitions": {
            str(x): {str(y): format_scalar(p) for y, p in model.transitions[x].items()}
            for x in model.states
        },
        "domain": sorted(model.domain, key=str),
        "payoff": {str(s): format_scalar(g) for s, g in model.payoff.items()},
        "discount": format_scalar(model.discount),
        "horizon": "infinite" if model.horizon is None else model.horizon,
    }
    if model.forced_stop:
        document["forced_stop"] = sorted(model.forced_stop, key=str)
    return document


def _encoder(key_separator: str, item_separator: str):
    """The C encoder that `json.JSONEncoder(sort_keys=True, separators=...)`
    builds on every `encode` call, built once: `encoder(obj, 0)` returns the
    chunks of that call's text, and `json`'s own `default` raises its
    TypeError for any other object.  It keeps no markers, so it does not look
    for cycles: an error leaves a marker behind, which would make a later
    object at the same address look circular.  Its callers hand it scalars,
    containers of scalars and fresh model documents, none of them circular."""
    return c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        key_separator, item_separator, True, False, True,
    )


_CANONICAL = _encoder(":", ",")


def model_digest(model: Model) -> str:
    """Stable content hash of a model's canonical wire form."""
    canonical = "".join(_CANONICAL(dump_model(model), 0))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache  # one encoder per nesting depth
def _flat(depth: int):
    return _encoder(": ", ",\n" + "  " * (depth + 1))


def _indented(obj: Any, depth: int = 0, out: Optional[list] = None) -> list:
    """The chunks of `json.dumps(obj, sort_keys=True, indent=2)` at nesting
    `depth`, appended to `out`.  That call runs `json`'s pure-Python encoder;
    here each non-empty container of exact scalars is one C-encoder call, whose
    item separator carries the newline and indent.  A `CellPairText` leaf
    appends its own chunks."""
    out = [] if out is None else out
    is_dict = isinstance(obj, dict)
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
        return out
    if not (is_dict or isinstance(obj, (list, tuple))) or not obj:
        if type(obj) is CellPairText:
            obj.chunks(depth, out)
        else:
            out += _CANONICAL(obj, 0)  # a number, true, false, null, {} or []
        return out
    inner = "\n" + "  " * (depth + 1)
    if set(map(type, obj.values() if is_dict else obj)) <= _SCALARS:
        text = "".join(_flat(depth)(obj, 0))
        out += (text[0], inner, text[1:-1], inner[:-2], text[-1])
        return out
    out.append("{" if is_dict else "[")
    for i, item in enumerate(sorted(obj.items()) if is_dict else obj):
        out.append("," + inner if i else inner)
        if is_dict:
            key, item = item
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                key = "".join(_CANONICAL(key, 0))  # the key's JSON text: 1, 2.5, true, null, NaN
            out += (encode_basestring_ascii(key), ": ")
        _indented(item, depth + 1, out)
    out += (inner[:-2], "}" if is_dict else "]")
    return out


def load_policy(
    document: Mapping[str, Any], model: Optional[MarkovModel] = None
) -> PolicyDocument:
    """Build a policy from its wire form.

    Tree policies ({"decisions": ...}) stand alone.  Region-based policies
    name states, so the chain model they belong to must be supplied.
    """
    if not isinstance(document, Mapping):
        raise ParseError("policy document must be a JSON object")
    if "decisions" in document:
        decisions = document["decisions"]
        if not isinstance(decisions, Mapping) or not decisions:
            raise ParseError("policy: 'decisions' must be a non-empty object")
        bits: dict[str, int] = {}
        for atom_id, bit in decisions.items():
            if isinstance(bit, bool) or bit not in (0, 1):
                raise ParseError(f"policy: decision at {atom_id!r} must be 0 or 1")
            bits[atom_id] = bit
        return StoppingPolicy(bits)
    if "regions" not in document:
        raise ParseError("policy: expected 'decisions' or 'regions'")
    if model is None or isinstance(model, AtomTree):
        raise ParseError("policy: region form names chain states; supply the chain model")
    lookup = _state_lookup(model.states)
    regions_doc = document["regions"]
    if not isinstance(regions_doc, Mapping):
        raise ParseError("policy: 'regions' must be an object")
    rows: dict[int, frozenset] = {}
    for key, members in regions_doc.items():
        if not (isinstance(key, str) and key.isdecimal() and key == str(int(key))):
            raise ParseError(f"policy: region key {key!r} is not a canonical non-negative integer")
        if not isinstance(members, list):
            raise ParseError(f"policy: region {key!r} must be a list of states")
        rows[int(key)] = frozenset(_resolve(s, lookup, f"region {key!r}") for s in members)
    if "period" in document:
        period = document["period"]
        if isinstance(period, bool) or not isinstance(period, int) or period < 1:
            raise ParseError(f"policy: period must be a positive integer, got {period!r}")
        if set(rows) != set(range(period)):
            raise ParseError(
                f"policy: regions must cover phases 0..{period - 1}, got {sorted(rows)}"
            )
        return PeriodicMarkovPolicy(period, tuple(rows[phase] for phase in range(period)))
    return TimedRegions(rows)


def dump_policy(policy: PolicyDocument) -> dict:
    if isinstance(policy, StoppingPolicy):
        return {"decisions": dict(policy.decisions)}
    if isinstance(policy, PeriodicMarkovPolicy):
        return {
            "period": policy.period,
            "regions": {
                str(phase): sorted(region, key=str)
                for phase, region in enumerate(policy.regions)
            },
        }
    if isinstance(policy, TimedRegions):
        return {
            "regions": {
                str(time): sorted(region, key=str)
                for time, region in policy.regions.items()
            }
        }
    raise TypeError(f"not a policy: {policy!r}")


def load_pair(document: Mapping[str, Any], mode: NumericMode = EXACT) -> SnellPair:
    """A value/survival pair from its wire form, keyed as the document keys it.

    Each distinct string literal is parsed once per document (`_Literals`),
    since a pair on an unrolled chain repeats each cell's entries at every
    atom of the cell.  The first bad entry, `V` before `S` and in document
    order, raises ParseError.
    """
    if not isinstance(document, Mapping):
        raise ParseError("pair document must be a JSON object")
    values_doc = _require(document, "V", "pair")
    survival_doc = _require(document, "S", "pair")
    if not isinstance(values_doc, Mapping) or not isinstance(survival_doc, Mapping):
        raise ParseError("pair: 'V' and 'S' must be objects keyed by atom id")
    numbers = _Literals(mode)
    return SnellPair(numbers.table(values_doc, "V[{!r}]"), numbers.table(survival_doc, "S[{!r}]"))


def dump_pair(pair: SnellPair) -> dict:
    """Wire form of a pair, inverse of `load_pair`.  Each table keeps the
    pair's own atom order; the JSON writer sorts the keys."""
    return {
        "V": {aid: format_scalar(v) for aid, v in pair.values.items()},
        "S": {aid: format_scalar(s) for aid, s in pair.survival.items()},
    }


class CellPairText:
    """The `dump_pair` document of the pair on the unrolled tree, from a pair
    on the cells, as an `_indented` leaf that writes its own text.

    Each cell's `V` and `S` are formatted here, once, so a number `format_scalar`
    cannot write raises NumericError before any report is begun.  The atoms are
    met only in `chunks`, when a report is written: one walk of
    `cells.columns()` hands each atom its cell's text, one sort of the raw atom
    ids orders both tables as `sort_keys` does, and only then is each id
    escaped, since escaping does not keep the order of non-ASCII names or of
    names holding `"` or `\\`.  `V` skips the atoms of cells without a value.
    """

    def __init__(self, cells: _Cells, pair: SnellPair):
        values, survival = pair.values, pair.survival
        self.cells = cells
        # Per level, each cell's entry as the text after its key: ': "2/5"'.
        self.survival = [[": " + encode_basestring_ascii(format_scalar(survival[cell.id]))
                          for cell in level] for level in cells.levels]
        self.values = [[": " + encode_basestring_ascii(format_scalar(values[cell.id]))
                        if cell.id in values else None for cell in level]
                       for level in cells.levels]

    def chunks(self, depth: int, out: list) -> None:
        """Append the chunks of `json.dumps(document, sort_keys=True,
        indent=2)` at nesting `depth` to `out`, one joined text per table."""
        ids: list[str] = []
        survival: list[str] = []
        values: list[Optional[str]] = []
        for (level_ids, cidx, _), s_text, v_text in zip(
            self.cells.columns(), self.survival, self.values
        ):
            ids += level_ids
            survival += map(s_text.__getitem__, cidx)
            values += map(v_text.__getitem__, cidx)
        order = sorted(range(len(ids)), key=ids.__getitem__)
        keys = list(map(encode_basestring_ascii, map(ids.__getitem__, order)))
        del ids
        outer = "\n" + "  " * (depth + 1)
        inner = outer + "  "
        out += ("{", outer, '"S": {', inner)
        out.append(("," + inner).join(map(add, keys, map(survival.__getitem__, order))))
        del survival
        out += (outer, "},", outer, '"V": {', inner)  # the root is valued: V is not empty
        values = list(map(values.__getitem__, order))
        del order
        out.append(("," + inner).join(map(add, compress(keys, values), filter(None, values))))
        out += (outer, "}", outer[:-2], "}")


def cell_pair(cells: _Cells, pair: SnellPair) -> Optional[SnellPair]:
    """The pair on the unrolled tree keyed by cell id instead, or None when
    it is not constant on each cell.

    The walk is `cells.columns()`, the one `CellPairText` makes.  Level by
    level, each table's column of per-atom entries must equal the column of
    the entries at each cell's first atom; list equality tries identity
    before `==`, and `load_pair` shares one object per literal.  An entry
    missing at every atom of a cell stays missing; one missing at only some
    of them gives None.  Keys that name no atom are ignored, as the checks on
    the tree ignore them.
    """
    missing = object()
    tables, projected = (pair.values, pair.survival), ({}, {})
    for level, (ids, cidx, _) in zip(cells.levels, cells.columns()):
        first = [0]  # each cell's first atom; a level lists its cells in walk order
        for k in range(1, len(level)):
            first.append(cidx.index(k, first[-1]))
        for table, cell_table in zip(tables, projected):
            column = list(map(table.get, ids, repeat(missing, len(ids))))
            entries = list(map(column.__getitem__, first))
            if list(map(entries.__getitem__, cidx)) != column:
                return None
            cell_table.update(
                (cell.id, entry) for cell, entry in zip(level, entries) if entry is not missing
            )
    return SnellPair(*projected)


def read_json(path: str) -> Any:
    """Read a UTF-8 JSON document from disk, mapping failures to ParseError.

    The text is parsed once.  A key repeated in any object is an error, not a
    silent override: the first object to close with a repeated key names its
    first repeated key.  Each object keeps the file's key order; no report
    depends on it, since the JSON writer sorts the keys.
    """

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise ParseError(f"{path}: duplicate key {key!r}")
                seen.add(key)
        return obj

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.loads(handle.read(), object_pairs_hook=unique)
    except OSError as exc:  # missing, a directory, unreadable
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError:  # arrays or objects nested past the interpreter's limit
        raise ParseError(f"{path}: invalid JSON (nested too deeply)") from None
