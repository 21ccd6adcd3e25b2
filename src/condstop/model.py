"""Finite filtrations as atom trees, and finite-state Markov chain models.

An `AtomTree` describes a finite probability space with a filtration: level t
holds the atoms of the time-t partition, each carrying a branch probability, a
flag saying whether the path is still inside the domain of relevance, and a
payoff that exists exactly on in-domain atoms.  Outside the domain the payoff
is *absent*, not zero; code that aggregates payoffs must skip those atoms.

`MarkovModel` is the chain view: a row-stochastic transition matrix, a domain
of states in which the gain is defined, a per-state gain discounted
geometrically, and an initial state inside the domain.  `_Cells` holds its
reachable (time, state) cells: on the first step that leaves the domain the
continuation is collapsed into a single absorbing out-of-domain chain (state
None), since nothing after the exit can affect any conditional value.  The
tree kernels run on the cells unchanged, so a chain is solved per cell at
cost O(T·|S|²) for horizon T.  `_Cells.columns` walks the cells top-down
into the atoms of the unrolled tree, a level at a time as a column of atom ids
beside a column of cell indices.  The ids join the state names along a path
with `/`, each escaped by `_state_segment`, and `EXIT_SEGMENT` for every step
of the out-of-domain chain.  `unroll` builds the `AtomTree` from that walk, and
the pair documents of `modelio` are read and written along it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Hashable, Iterable, Iterator, Mapping, Optional

from .numeric import _RATIONAL, EXACT, NumericMode, Scalar, sum_in_order, total_unless_one

State = Hashable

EXIT_SEGMENT = "!"


class ModelError(ValueError):
    """A tree or chain violates one of its structural invariants."""


@dataclass(frozen=True)
class Atom:
    """One atom of a level partition.

    `payoff` must be present exactly when `in_domain` is true.  `state` is set
    for atoms produced by unrolling a Markov chain and is None on the collapsed
    out-of-domain chain.
    """

    id: str
    level: int
    parent: Optional[str]
    branch_prob: Scalar
    in_domain: bool
    payoff: Optional[Scalar] = None
    state: Optional[State] = None


class AtomTree:
    """A finite filtration tree with per-atom domain flags and payoffs.

    In exact mode every probability and payoff must be an int or a Fraction.
    """

    def __init__(self, atoms: Iterable[Atom], mode: NumericMode = EXACT):
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

        exact = mode.exact
        for atom in by_id.values():
            payoff = atom.payoff
            if (payoff is not None) != atom.in_domain:
                raise ModelError(
                    f"atom {atom.id!r}: payoff must be present exactly on in-domain atoms"
                )
            prob = atom.branch_prob
            if exact and (type(prob) not in _RATIONAL
                          or payoff is not None and type(payoff) not in _RATIONAL):
                _refuse_inexact(f"atom {atom.id!r}", (prob, payoff))
            if not (prob.numerator > 0 if type(prob) in _RATIONAL else prob > 0):
                raise ModelError(f"atom {atom.id!r}: branch probability must be positive")
            kids = children[atom.id]
            if atom.level < horizon:
                if not kids:
                    raise ModelError(f"atom {atom.id!r} at level {atom.level} has no children")
                total = total_unless_one([k.branch_prob for k in kids], mode)
                if total is not None:
                    raise ModelError(
                        f"children of {atom.id!r} have probabilities summing to {total}, not 1"
                    )
            elif kids:
                raise ModelError(f"atom {atom.id!r} at the horizon has children")

        self._levels: tuple[tuple[Atom, ...], ...] = tuple(
            tuple(by_level[t]) for t in range(horizon + 1)
        )
        self._by_id = by_id
        self._children = {aid: tuple(kids) for aid, kids in children.items()}
        self._effective_flags: Optional[dict[str, bool]] = None
        self._tie_scale: Optional[Scalar] = None

    @property
    def horizon(self) -> int:
        return len(self._levels) - 1

    @property
    def levels(self) -> tuple[tuple[Atom, ...], ...]:
        return self._levels

    @property
    def root(self) -> Atom:
        return self._levels[0][0]

    def atom(self, atom_id: str) -> Atom:
        return self._by_id[atom_id]

    def __contains__(self, atom_id: str) -> bool:
        return atom_id in self._by_id

    def atoms(self) -> Iterator[Atom]:
        for level in self._levels:
            yield from level

    def atom_ids(self) -> Iterator[str]:
        for atom in self.atoms():
            yield atom.id

    def children(self, atom_id: str) -> tuple[Atom, ...]:
        return self._children[atom_id]

    def prob(self, atom_id: str) -> Scalar:
        """Unconditional probability of the atom: the branch probabilities on its path."""
        path = [self._by_id[atom_id], *self.ancestors(atom_id)]
        return math.prod(atom.branch_prob for atom in reversed(path))

    def ancestors(self, atom_id: str) -> Iterator[Atom]:
        """The chain of strict ancestors, nearest first."""
        atom = self._by_id[atom_id]
        while atom.parent is not None:
            atom = self._by_id[atom.parent]
            yield atom

    def effective_flags(self) -> dict[str, bool]:
        if self._effective_flags is None:
            self._effective_flags = effective_horizon(self)
        return self._effective_flags

    def tie_scale(self) -> Scalar:
        """Float-mode tolerance scale for every value comparison on the tree:
        max(1, max |payoff|); one in exact mode."""
        if self._tie_scale is None:
            self._tie_scale = self.mode.one if self.mode.exact else max(
                [1.0] + [abs(float(a.payoff)) for a in self.atoms() if a.in_domain]
            )
        return self._tie_scale


def _refuse_inexact(where: str, values: Iterable[Optional[Scalar]]) -> None:
    """Raise ModelError at the first value that is neither an int, a
    Fraction nor None: exact mode computes with ints and Fractions only, as
    `parse_rational` refuses floats, so no inexact value reaches its kernels."""
    for value in values:
        if value is not None and type(value) not in _RATIONAL:
            raise ModelError(f"{where}: exact mode takes ints and Fractions, got {value!r}")


def effective_horizon(tree: AtomTree) -> dict[str, bool]:
    """Per-atom flags marking atoms at or past the effective horizon.

    An atom is flagged when continuing past it is impossible or pointless: it
    is at the final level, or none of its children is in the domain (the
    conditional probability of remaining in the domain one more step is zero,
    which covers out-of-domain atoms).  The rule is local, so trees and
    `_Cells` run it alike.  Flags are monotone along every path: no atom
    re-enters the domain, so every atom below a flagged one is out of the
    domain and flagged itself.
    """
    horizon = tree.horizon
    children = tree.children
    return {
        atom.id: atom.level == horizon or not any(child.in_domain for child in children(atom.id))
        for atom in tree.atoms()
    }


@dataclass(frozen=True)
class MarkovModel:
    """A finite-state chain with a payoff domain and geometric discounting.

    `payoff` maps exactly the domain states to their gain; the realized gain
    at time t in state x is discount**t * payoff[x].  `forced_stop` lists
    domain states at which every stopping policy under study is pinned to stop.
    `horizon` is a positive integer or None for an infinite-horizon model.
    Ids and documents name states by `str()`, so no two may print alike.
    In exact mode every probability, payoff and the discount must be an int
    or a Fraction.
    """

    states: tuple[State, ...]
    initial: State
    transitions: Mapping[State, Mapping[State, Scalar]]
    domain: frozenset[State]
    payoff: Mapping[State, Scalar]
    discount: Scalar
    horizon: Optional[int] = None
    forced_stop: frozenset[State] = frozenset()
    mode: NumericMode = EXACT

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "domain", frozenset(self.domain))
        object.__setattr__(self, "forced_stop", frozenset(self.forced_stop))
        if len(set(self.states)) != len(self.states) or not self.states:
            raise ModelError("states must be a nonempty sequence without duplicates")
        if None in self.states:
            raise ModelError("None cannot be a state: it marks the out-of-domain chain")
        names: dict[str, State] = {}
        for state in self.states:
            other = names.setdefault(str(state), state)
            if other != state:
                raise ModelError(f"states {other!r} and {state!r} collide as {str(state)!r}")
        state_set = set(self.states)
        if not self.domain <= state_set:
            raise ModelError("domain must be a subset of the states")
        if self.initial not in self.domain:
            raise ModelError("initial state must lie in the domain")
        if set(self.payoff) != set(self.domain):
            raise ModelError("payoff must be defined exactly on the domain states")
        if not self.forced_stop <= self.domain:
            raise ModelError("forced-stop states must lie in the domain")
        if self.mode.exact:
            _refuse_inexact("discount", (self.discount,))
            _refuse_inexact("payoff", self.payoff.values())
        if not (0 < self.discount <= 1):
            raise ModelError("discount must lie in (0, 1]")
        if self.horizon is not None and (not isinstance(self.horizon, int) or self.horizon <= 0):
            raise ModelError("horizon must be a positive integer or None")
        mode, split = self.mode, {}
        for state in self.states:
            row = self.transitions.get(state)
            if row is None:
                raise ModelError(f"state {state!r} has no transition row")
            if not set(row) <= state_set:
                raise ModelError(f"row of {state!r} references unknown states")
            if mode.exact:
                _refuse_inexact(f"row of {state!r}", row.values())
            if any(p < 0 for p in row.values()):
                raise ModelError(f"row of {state!r} has a negative probability")
            # Per state: its in-domain successors with positive probability,
            # as (y, p), and its exit mass, both read in state order.  Every
            # chain reader walks `_split`, so no result depends on key order.
            moves = [(y, row[y]) for y in self.states if row.get(y, 0) > 0]
            successors = tuple((y, p) for y, p in moves if y in self.domain)
            exit_mass = sum_in_order((p for y, p in moves if y not in self.domain), mode.zero)
            # Added as a cell adds its children: the successors, then the exit
            # mass (adding a zero exit mass changes no total).
            if total_unless_one([*(p for _, p in successors), exit_mass], mode) is not None:
                raise ModelError(f"row of {state!r} does not sum to 1")
            split[state] = (successors, exit_mass)
        object.__setattr__(self, "_split", split)

    @property
    def exit_states(self) -> frozenset[State]:
        return frozenset(s for s in self.states if s not in self.domain)

    def gain(self, t: int, state: State) -> Scalar:
        """Realized payoff at time t in an in-domain state."""
        return self.discount**t * self.payoff[state]

    def domain_successor_mass(self, state: State) -> Scalar:
        """One-step probability of remaining in the domain from `state`."""
        return sum_in_order((p for _, p in self._split[state][0]), self.mode.zero)


def _state_segment(state: State) -> str:
    """The id segment of a state in an unrolled tree.

    `%` and `/` in the state's name are percent-escaped and a state named
    `!` becomes `%21`, so that distinct names give distinct segments, no
    segment contains the `/` separator and none equals `EXIT_SEGMENT`.  Other
    names are used as they are.
    """
    name = str(state)
    if name == EXIT_SEGMENT:
        return "%21"
    return name.replace("%", "%25").replace("/", "%2F")


class _Cells:
    """The atoms of `unroll(model, horizon)` with equal (time, state) merged,
    each cell an `Atom` with id (time, state).  A cell's children carry the
    transition probabilities: in-domain successors in state order, then one
    exit child (state None) with all the exit mass; an exit cell's only child
    is the next exit cell; a final-level cell has none.  Every atom of a cell
    has the cell's children, so `_sweep`, `_best_bit`, the policy checks and
    the pair verifiers run here, on the members borrowed from `AtomTree`.
    The horizon defaults to the model's own and must be a positive integer.
    The children of a cell need no check of their own: `MarkovModel` has
    already added each row in the same order, to one.
    """

    levels = AtomTree.levels
    horizon = AtomTree.horizon
    root = AtomTree.root
    atoms = AtomTree.atoms
    atom_ids = AtomTree.atom_ids
    effective_flags = AtomTree.effective_flags
    tie_scale = AtomTree.tie_scale

    def __init__(self, model: MarkovModel, horizon: Optional[int] = None):
        if horizon is None:
            horizon = model.horizon
        if horizon is None:
            raise ModelError("an explicit horizon is required for an infinite-horizon model")
        if not isinstance(horizon, int) or horizon <= 0:
            raise ModelError("horizon must be a positive integer")
        mode = self.mode = model.mode
        branches = {None: [(None, mode.one)]}
        for x in model.domain:
            successors, exit_mass = model._split[x]
            branches[x] = [*successors, (None, exit_mass)] if exit_mass > 0 else successors

        def cell(t: int, y: Optional[State]) -> Atom:
            gain = None if y is None else model.gain(t, y)
            return Atom((t, y), t, None, mode.one, y is not None, gain, y)

        levels = [{model.initial: cell(0, model.initial)}]
        self._children = {}
        for t in range(1, horizon + 1):
            made: dict[Optional[State], Atom] = {}
            for parent in levels[-1].values():
                for y, _ in branches[parent.state]:
                    if y not in made:
                        made[y] = cell(t, y)
                self._children[parent.id] = tuple(
                    replace(made[y], branch_prob=p) for y, p in branches[parent.state]
                )
            levels.append(made)
        self._children.update((cell.id, ()) for cell in levels[-1].values())
        self._levels = tuple(tuple(level.values()) for level in levels)
        self._effective_flags = self._tie_scale = None
        self._segment = {None: EXIT_SEGMENT, **{x: _state_segment(x) for x in model.states}}

    def children(self, cell_id: tuple[int, Optional[State]]) -> tuple[Atom, ...]:
        return self._children[cell_id]

    def columns(self) -> Iterator[tuple[list[str], list[int], Iterable[Atom]]]:
        """The levels of the unrolled tree, top-down, each as three parallel
        columns in the tree's order: the atom ids, the index of each atom's
        cell in `levels[t]`, and, lazily, the child of its parent's cell that
        each atom is, which carries its level, branch probability, domain
        flag, payoff and state.  An atom's children are its cell's children,
        so the next level is read off per-cell tuples of child suffixes
        (`"/" + segment`) and of child indices."""
        segment, children = self._segment, self._children
        ids, cidx = [segment[self.root.state]], [0]
        yield ids, cidx, (self.root,)
        for level, below in zip(self._levels, self._levels[1:]):
            index = {cell.id: k for k, cell in enumerate(below)}
            kids = [children[cell.id] for cell in level]
            suffixes = [tuple("/" + segment[c.state] for c in cs) for cs in kids]
            child_cidx = [tuple(index[c.id] for c in cs) for cs in kids]
            atoms = chain.from_iterable(map(kids.__getitem__, cidx))
            ids = [aid + suffix for aid, k in zip(ids, cidx) for suffix in suffixes[k]]
            cidx = list(chain.from_iterable(map(child_cidx.__getitem__, cidx)))
            yield ids, cidx, atoms


def unroll(model: MarkovModel, horizon: Optional[int] = None) -> AtomTree:
    """Expand a chain into an atom tree of the given depth: the columns of
    `_Cells`, top-down.  Each in-domain atom branches according to the
    positive-probability transitions of its state; all mass leaving the domain
    is merged into one out-of-domain child, which then continues as a single
    absorbing chain down to the horizon.  Zero-probability transitions produce
    no atoms.  An atom's parent is its id up to the last `/`, since no segment
    contains one.  The result is a checked `AtomTree`, which adds each atom's
    children in the order `MarkovModel` added its row, so every model unrolls.
    """
    atoms = [
        Atom(atom_id, c.level, atom_id.rpartition("/")[0] if c.level else None,
             c.branch_prob, c.in_domain, c.payoff, c.state)
        for ids, _, nodes in _Cells(model, horizon).columns()
        for atom_id, c in zip(ids, nodes)
    ]
    return AtomTree(atoms, mode=model.mode)
