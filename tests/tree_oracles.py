"""Oracles for the tree model: its load path, probability checks,
effective-horizon flags and policy tables.

`load_tree_by_walk` is `modelio._load_tree` as it was before each node was
checked once: every node's level comes from a walk up its parent chain,
every key lookup and literal parse formats its error context up front, and
the model is built by `TreeBySums`.  `TreeBySums` is `AtomTree` with the
checks it made before they moved to integers: positivity by `p > 0`, and
each child list added by `sum_in_order` and compared by `mode.eq`.
`modelio.load_model` must give the same tree (levels, children order and
digest) or raise the same error with the same message.

`effective_horizon_by_ancestors` is `model.effective_horizon` with the
clause it dropped: an atom is also flagged when its parent is.
`model.effective_horizon` must give the same flags on every tree.

`induced_stop` is the path enumeration of a policy's first stop below an
atom.  Summed over its paths, it is the oracle for `policy._sweep`'s
continuation tables (`tests/test_recursion.py`) and for the stop mass of
`policy.precommitted`'s maximizer (`tests/test_policy.py`).

`sweep_by_fractions` is `policy._sweep` as it was before its tables became
integer triples: it adds `Fraction` (or float) products and hands each
chooser `(atom, num, den)`.  `best_bit_by_fractions` and
`gain_bit_by_fractions` are its choosers for the best response and for one
Dinkelbach step.  `_sweep` with `_best_bit` or `_gain_bit` must give the same
bits, and tables (n, e, k) with n/k and e/k equal to num and den (bit for bit
in float mode).
"""

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Optional

from condstop.model import Atom, AtomTree, ModelError
from condstop.modelio import ParseError
from condstop.numeric import EXACT, NumericError, Scalar, parse_rational, sum_in_order
from condstop.policy import StoppingPolicy, _check_coverage


class TreeBySums(AtomTree):
    """`AtomTree` whose probability checks add `Fraction`s (or floats)."""

    def __init__(self, atoms, mode=EXACT):
        self.mode = mode
        by_level: dict[int, list[Atom]] = {}
        by_id: dict[str, Atom] = {}
        for atom in atoms:
            if atom.id in by_id:
                raise ModelError(f"duplicate atom id {atom.id!r}")
            by_id[atom.id] = atom
            by_level.setdefault(atom.level, []).append(atom)
        if not by_id:
            raise ModelError("tree has no atoms")
        levels = sorted(by_level)
        horizon = levels[-1]
        if levels != list(range(horizon + 1)):
            raise ModelError(f"levels must be contiguous from 0, got {levels}")
        if horizon < 1:
            raise ModelError("horizon must be a positive integer")
        if len(by_level[0]) != 1:
            raise ModelError("level 0 must hold exactly one atom")
        root = by_level[0][0]
        if root.parent is not None or root.branch_prob != mode.one or not root.in_domain:
            raise ModelError("root must have no parent, probability 1 and be in-domain")

        children: dict[str, list[Atom]] = {a.id: [] for a in by_id.values()}
        for atom in by_id.values():
            if atom.level == 0:
                continue
            parent = by_id.get(atom.parent) if atom.parent is not None else None
            if parent is None or parent.level != atom.level - 1:
                raise ModelError(f"atom {atom.id!r} has no parent on the previous level")
            if atom.in_domain and not parent.in_domain:
                raise ModelError(f"atom {atom.id!r} re-enters the domain below {parent.id!r}")
            children[parent.id].append(atom)

        for atom in by_id.values():
            if (atom.payoff is not None) != atom.in_domain:
                raise ModelError(
                    f"atom {atom.id!r}: payoff must be present exactly on in-domain atoms"
                )
            if not (atom.branch_prob > 0):
                raise ModelError(f"atom {atom.id!r}: branch probability must be positive")
            kids = children[atom.id]
            if atom.level < horizon:
                if not kids:
                    raise ModelError(f"atom {atom.id!r} at level {atom.level} has no children")
                total = sum_in_order(k.branch_prob for k in kids)
                if not mode.eq(total, mode.one):
                    raise ModelError(
                        f"children of {atom.id!r} have probabilities summing to {total}, not 1"
                    )
            elif kids:
                raise ModelError(f"atom {atom.id!r} at the horizon has children")

        self._levels = tuple(tuple(by_level[t]) for t in range(horizon + 1))
        self._by_id = by_id
        self._children = {aid: tuple(kids) for aid, kids in children.items()}
        self._effective_flags: Optional[dict[str, bool]] = None
        self._tie_scale = None
        self._rational = None


def _require(mapping, key, context):
    if key not in mapping:
        raise ParseError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _scalar(value, mode, context):
    try:
        number = parse_rational(value)
    except NumericError as exc:
        raise ParseError(f"{context}: {exc}") from exc
    if mode.exact:
        return number
    try:
        return float(number)
    except OverflowError:
        raise ParseError(f"{context}: {value!r} is out of range for a float") from None


def load_tree_by_walk(document, mode=EXACT):
    """A tree document's model, loaded as `modelio._load_tree` did when each
    level came from a parent walk; `document["type"]` is not read."""
    nodes = _require(document, "nodes", "tree model")
    if not isinstance(nodes, list) or not nodes:
        raise ParseError("tree model: 'nodes' must be a non-empty list")
    raw = {}
    for i, node in enumerate(nodes):
        if not isinstance(node, Mapping):
            raise ParseError(f"tree model: node {i} must be an object")
        node_id = _require(node, "id", f"node {i}")
        if not isinstance(node_id, str) or not node_id:
            raise ParseError(f"node {i}: 'id' must be a non-empty string")
        if node_id in raw:
            raise ParseError(f"node {i}: duplicate id {node_id!r}")
        raw[node_id] = node

    levels = {}

    def level_of(node_id):
        trail = {}
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

    atoms = []
    for node_id, node in raw.items():
        level = level_of(node_id)
        in_domain = node.get("in_domain")
        if not isinstance(in_domain, bool):
            raise ParseError(f"node {node_id!r}: 'in_domain' must be true or false")
        payoff = node.get("payoff")
        if payoff is not None:
            payoff = _scalar(payoff, mode, f"node {node_id!r} payoff")
        atoms.append(
            Atom(
                id=node_id,
                level=level,
                parent=node.get("parent"),
                branch_prob=_scalar(_require(node, "prob", f"node {node_id!r}"), mode,
                                    f"node {node_id!r} prob"),
                in_domain=in_domain,
                payoff=payoff,
            )
        )
    tree = TreeBySums(atoms, mode=mode)
    horizon = document.get("horizon")
    if horizon is not None and horizon != tree.horizon:
        raise ParseError(
            f"tree model: declared horizon {horizon!r} but nodes reach level {tree.horizon}"
        )
    return tree


def effective_horizon_by_ancestors(tree) -> dict[str, bool]:
    """`model.effective_horizon` as it was with its ancestor clause: an atom
    is flagged when its parent is flagged, at the final level, or when it has
    no in-domain children."""
    horizon = tree.horizon
    flags: dict[str, bool] = {}
    for level in tree.levels:
        for atom in level:
            if atom.parent is not None and flags[atom.parent]:
                flags[atom.id] = True
            elif atom.level == horizon:
                flags[atom.id] = True
            else:
                flags[atom.id] = not any(
                    child.in_domain for child in tree.children(atom.id)
                )
    return flags


@dataclass(frozen=True)
class InducedStop:
    """Where the policy first stops strictly below a source atom.

    `stop_probs` gives, conditional on the source, the probability of the
    first stop landing on each stop atom.  `survive_prob` collects the mass
    stopping at in-domain atoms, `dead_prob` the mass that leaves the domain
    before any stop (including stops on out-of-domain atoms), and
    `never_prob` the mass that reaches the final level still continuing.
    Nonzero `never_prob` can only occur when the tree is a truncation of a
    longer model and the policy was not forced to stop at the horizon.
    """

    source: str
    stop_probs: Mapping[str, Scalar]
    survive_prob: Scalar
    dead_prob: Scalar
    never_prob: Scalar


def induced_stop(tree: AtomTree, policy: StoppingPolicy, atom_id: str) -> InducedStop:
    """Describe the first stop strictly below `atom_id` under the policy."""
    _check_coverage(tree, policy)
    mode = tree.mode
    horizon = tree.horizon
    stop_probs: dict[str, Scalar] = {}
    survive = mode.zero
    dead = mode.zero
    never = mode.zero

    stack = [(child, child.branch_prob) for child in tree.children(atom_id)]
    while stack:
        atom, mass = stack.pop()
        if policy.stops(atom.id):
            stop_probs[atom.id] = stop_probs.get(atom.id, mode.zero) + mass
            if atom.in_domain:
                survive += mass
            else:
                dead += mass
        elif atom.level == horizon:
            if atom.in_domain:
                never += mass
            else:
                dead += mass
        else:
            for child in tree.children(atom.id):
                stack.append((child, mass * child.branch_prob))
    return InducedStop(atom_id, stop_probs, survive, dead, never)


def sweep_by_fractions(
    tree: AtomTree, choose: Callable[[Atom, Scalar, Scalar], int]
) -> tuple[dict[str, int], dict[str, Scalar], dict[str, Scalar]]:
    """The bottom-up pass behind every policy table and the backward recursion.

    Level by level from the bottom, each non-terminal atom A first gets
      den[A] = P(first stop after A lands in-domain | A)
      num[A] = E[payoff at that stop * 1{in-domain} | A]
    from its children, and then its own bit `choose(A, num[A], den[A])`.
    A child that stops contributes its payoff when in-domain and nothing
    otherwise; a continuing child contributes its own tables; a continuing
    child at the final level contributes nothing (mass that never stops).
    Final-level atoms are chosen with zero tables, which are not stored.

    Choosing the bits of a fixed policy gives that policy's tables; choosing
    "stop iff payoff >= num/den" is the backward recursion.
    """
    zero = tree.mode.zero
    horizon = tree.horizon
    children = tree.children
    bits: dict[str, int] = {}
    num: dict[str, Scalar] = {}
    den: dict[str, Scalar] = {}
    for atom in tree.levels[-1]:
        bits[atom.id] = choose(atom, zero, zero)
    for level in reversed(tree.levels[:-1]):
        for atom in level:
            total_num = zero
            total_den = zero
            for child in children(atom.id):
                if bits[child.id]:
                    if child.in_domain:
                        total_num += child.branch_prob * child.payoff
                        total_den += child.branch_prob
                elif child.level < horizon:
                    total_num += child.branch_prob * num[child.id]
                    total_den += child.branch_prob * den[child.id]
            num[atom.id] = total_num
            den[atom.id] = total_den
            bits[atom.id] = choose(atom, total_num, total_den)
    return bits, num, den


def best_bit_by_fractions(tree: AtomTree, tie: Callable[[str], int]):
    """`policy._best_bit` as a `sweep_by_fractions` chooser: the payoff
    compared with num / den by `mode.compare` at the tree's tie scale."""
    flags = tree.effective_flags()
    compare = tree.mode.compare
    scale = tree.tie_scale()

    def choose(atom: Atom, num: Scalar, den: Scalar) -> int:
        if flags[atom.id]:
            return 1
        sign = compare(atom.payoff, num / den, scale)
        return tie(atom.id) if sign == 0 else int(sign > 0)

    return choose


def gain_bit_by_fractions(tree: AtomTree, lam: Scalar):
    """`policy._gain_bit` as a `sweep_by_fractions` chooser: the gain
    (payoff - λ in-domain, 0 outside) against num - λ·den by `mode.ge`."""
    mode = tree.mode
    scale = tree.tie_scale()

    def choose(atom: Atom, num: Scalar, den: Scalar) -> int:
        if atom.level == tree.horizon:
            return 1
        gain = atom.payoff - lam if atom.in_domain else mode.zero
        return int(mode.ge(gain, num - lam * den, scale))

    return choose
