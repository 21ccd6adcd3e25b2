"""Stopping policies on atom trees and their equilibrium analysis.

A stopping policy assigns a stop/continue bit to every atom.  Each time-t
observer compares the immediate payoff against the conditional value of
letting the policy run strictly after t, where that value is an expectation
*conditioned on stopping while still inside the domain of relevance*:

    value(A) = E[payoff at the stop | A, stop occurs in-domain]
             = E[payoff * 1{stop in-domain} | A] / P(stop in-domain | A)

The best-response map rewrites every bit simultaneously: stop when the
immediate payoff strictly beats that value, continue when it strictly loses,
and keep the current bit on ties.  Equilibria are the admissible fixed points.
`_best_bit` states this rule once for `phi`, the backward recursion and the
equilibrium census, which run it inside the bottom-up `_sweep`.
Because each observer controls a single date, the precommitted optimum (one
stopping time chosen up front for the whole tree) can strictly exceed every
equilibrium value; `precommitted` computes it by Dinkelbach iteration, each
step one `_sweep` of a classical stopping problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .model import Atom, AtomTree, State
from .numeric import Scalar

DEFAULT_POLICY_GUARD = 2**20
_EMPTY = (0, 0, 1)  # the (n, e, k) tables of an atom below which nothing stops


class PolicyError(ValueError):
    """A policy fails a structural precondition of the requested operation."""


class InadmissiblePolicyError(PolicyError):
    """Raised when an operation requires an admissible policy."""

    def __init__(self, result: "AdmissibilityResult"):
        self.result = result
        super().__init__(f"inadmissible policy: {result.reason} at atom {result.atom!r}")


class SizeGuardError(RuntimeError):
    """An equilibrium census has made and queued more candidates than its
    size guard allows: sweeps in the tree census, search nodes in the
    periodic one.  `required` is that count when the census stopped."""

    def __init__(self, required: int, guard: int):
        self.required = required
        self.guard = guard
        super().__init__(
            f"enumeration needs at least {required} candidates, above the guard of {guard}; "
            "raise the guard (CONDSTOP_SIZE_GUARD) to proceed"
        )


@dataclass(frozen=True)
class StoppingPolicy:
    """A stop (1) / continue (0) bit for every atom of a tree."""

    decisions: Mapping[str, int]

    def bit(self, atom_id: str) -> int:
        return self.decisions[atom_id]

    def stops(self, atom_id: str) -> bool:
        return bool(self.decisions[atom_id])

    def normalized(self, tree: AtomTree) -> "StoppingPolicy":
        """Force the bit to 1 at every atom at or past the effective horizon.

        Bits there never influence any value, so policies are compared in this
        normal form.
        """
        flags = tree.effective_flags()
        bits = {aid: (1 if flags[aid] else int(self.decisions[aid])) for aid in self.decisions}
        return StoppingPolicy(bits)

    @staticmethod
    def stop_everywhere(tree: AtomTree) -> "StoppingPolicy":
        return StoppingPolicy({aid: 1 for aid in tree.atom_ids()})

    @staticmethod
    def from_stop_atoms(tree: AtomTree, stop_atoms: Iterable[str]) -> "StoppingPolicy":
        stops = set(stop_atoms)
        return StoppingPolicy({aid: (1 if aid in stops else 0) for aid in tree.atom_ids()})

    @staticmethod
    def from_state_rule(
        tree: AtomTree, stops: Callable[[int, State], bool]
    ) -> "StoppingPolicy":
        """Project a (time, state) rule onto a tree unrolled from a chain.

        In-domain atoms get the rule's bit at their level and state; atoms
        outside the domain get 1.
        """
        bits: dict[str, int] = {}
        for atom in tree.atoms():
            if not atom.in_domain:
                bits[atom.id] = 1
            elif atom.state is None:
                raise PolicyError(
                    f"atom {atom.id!r} carries no state; the tree was not unrolled from a chain"
                )
            else:
                bits[atom.id] = int(stops(atom.level, atom.state))
        return StoppingPolicy(bits)

    def markov_bits(self, tree: AtomTree) -> Optional[dict[tuple[int, State], int]]:
        """The bit per (level, state) cell of the in-domain atoms.

        None when some in-domain atom carries no state or two atoms of one
        cell disagree, that is, when the policy is not Markov on this tree.
        """
        bits: dict[tuple[int, State], int] = {}
        for atom in tree.atoms():
            if not atom.in_domain:
                continue
            if atom.state is None:
                return None
            bit = self.decisions[atom.id]
            if bits.setdefault((atom.level, atom.state), bit) != bit:
                return None
        return bits


@dataclass(frozen=True)
class AdmissibilityResult:
    admissible: bool
    atom: Optional[str] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.admissible


@dataclass(frozen=True)
class EquilibriumResult:
    equilibrium: bool
    deviations: tuple[str, ...] = ()
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.equilibrium


def _check_coverage(tree: AtomTree, policy: StoppingPolicy) -> None:
    decided = set(policy.decisions)
    atoms = set(tree.atom_ids())
    missing = atoms - decided
    if missing:
        raise PolicyError(f"policy missing decisions for atoms {sorted(missing)[:5]}")
    extra = decided - atoms
    if extra:
        raise PolicyError(f"policy has decisions for unknown atoms {sorted(extra)[:5]}")
    for aid, bit in policy.decisions.items():
        if bit not in (0, 1):
            raise PolicyError(f"decision at {aid!r} must be 0 or 1, got {bit!r}")


def _sweep(
    tree: AtomTree, choose: Callable[[Atom, Scalar, Scalar, Scalar], int]
) -> tuple[dict[str, int], dict[str, tuple[Scalar, Scalar, Scalar]]]:
    """The bottom-up pass behind every policy table and the backward recursion.

    Level by level from the bottom, each non-terminal atom A first gets
      den[A] = P(first stop after A lands in-domain | A)
      num[A] = E[payoff at that stop * 1{in-domain} | A]
    from its children as `tables[A] = (n, e, k)`, num[A] = n/k and
    den[A] = e/k with k > 0, and then its own bit `choose(A, n, e, k)`.
    A child that stops contributes its payoff when in-domain and nothing
    otherwise; a continuing child contributes its own tables; a continuing
    child at the final level contributes nothing (mass that never stops).
    Final-level atoms are chosen with the zero tables `_EMPTY`, not stored.
    When `tree.rational()` the triples are ints in lowest terms: each child's
    share is reduced, added over the lcm of the denominators, and the sum
    reduced by its gcd with their gcd d, its only possible common factor
    (Henrici's rule for `Fraction` addition).  Otherwise k = 1.

    Choosing the bits of a fixed policy gives that policy's tables; choosing
    "stop iff payoff >= num/den" is the backward recursion.
    """
    integer = tree.rational()
    zero = 0 if integer else tree.mode.zero
    horizon = tree.horizon
    children = tree.children
    bits: dict[str, int] = {}
    tables: dict[str, tuple] = {}
    for atom in tree.levels[-1]:
        bits[atom.id] = choose(atom, *_EMPTY)
    for level in reversed(tree.levels[:-1]):
        for atom in level:
            n, e, k = zero, zero, 1
            for child in children(atom.id):
                if bits[child.id] and child.in_domain:
                    g = child.payoff  # the tables (g, 1) of a stop
                    x, y, z = (g.numerator, g.denominator, g.denominator) if integer else (g, 1, 1)
                elif bits[child.id] or child.level == horizon:
                    continue
                else:
                    x, y, z = tables[child.id]
                p = child.branch_prob
                if integer:  # p·(x, y, z) in lowest terms, added over the lcm
                    pn, pd = p.numerator, p.denominator
                    c, f = math.gcd(pn, z), math.gcd(pd, x, y)
                    x, y, z = pn // c * (x // f), pn // c * (y // f), pd // f * (z // c)
                    d = math.gcd(k, z)
                    s, t = z // d, k // d
                    n, e = n * s + x * t, e * s + y * t
                    h = math.gcd(d, e, n)  # the sum's only common factors divide d
                    n, e, k = n // h, e // h, k * s // h
                else:
                    n += p * x
                    e += p * y
            tables[atom.id] = (n, e, k)
            bits[atom.id] = choose(atom, n, e, k)
    return bits, tables


def _continuation_tables(tree: AtomTree, policy: StoppingPolicy) -> dict[str, tuple]:
    """The policy's (n, e, k) tables on every non-terminal atom; see `_sweep`."""
    decisions = policy.decisions
    return _sweep(tree, lambda atom, n, e, k: decisions[atom.id])[1]


def _checked_tables(
    tree: AtomTree, policy: StoppingPolicy
) -> tuple[AdmissibilityResult, dict[str, tuple]]:
    """Admissibility of the policy together with its continuation tables.

    Raises PolicyError when the policy does not cover the tree exactly.
    """
    _check_coverage(tree, policy)
    flags = tree.effective_flags()
    tables = _continuation_tables(tree, policy)
    for atom in tree.atoms():  # level by level from the root
        if not flags[atom.id] and not tables[atom.id][1] > 0:
            why = "continuation never stops in-domain"
        elif flags[atom.id] and not policy.stops(atom.id):
            why = "must stop at or past the effective horizon"
        else:
            continue
        return AdmissibilityResult(False, atom.id, why), tables
    return AdmissibilityResult(True), tables


def admissible(tree: AtomTree, policy: StoppingPolicy) -> AdmissibilityResult:
    """Check that every observer can use the policy.

    Two requirements, scanned level by level from the root so that the
    shallowest offending atom is reported: strictly before the effective
    horizon the continuation must stop in-domain with positive probability
    (otherwise the observer's conditional value is undefined), and at or past
    the effective horizon the policy must stop.
    """
    return _checked_tables(tree, policy)[0]


def continuation_value(tree: AtomTree, policy: StoppingPolicy, atom_id: str) -> Scalar:
    """The observer's conditional value of running the policy after this atom."""
    result, tables = _checked_tables(tree, policy)
    if not result:
        raise InadmissiblePolicyError(result)
    if tree.effective_flags()[atom_id]:
        raise PolicyError(
            f"atom {atom_id!r} is at or past the effective horizon; no continuation exists"
        )
    return tree.mode.ratio(*tables[atom_id][:2])


def _best_bit(
    tree: AtomTree, tie: Callable[[str], int]
) -> Callable[[Atom, Scalar, Scalar, Scalar], int]:
    """The tree layer's best-response rule as a `_sweep` chooser: 1 at or past
    the effective horizon, else 1 when the payoff a/b strictly beats num/den,
    0 when it strictly loses, and `tie(atom_id)` on a tie at the tree's tie
    scale; on integer tables, by the sign of a·e - b·n."""
    flags = tree.effective_flags()
    integer = tree.rational()
    compare = tree.mode.compare
    scale = tree.tie_scale()

    def choose(atom: Atom, n: Scalar, e: Scalar, k: Scalar) -> int:
        if flags[atom.id]:
            return 1
        g = atom.payoff
        sign = g.numerator * e - g.denominator * n if integer else compare(g, n / e, scale)
        return tie(atom.id) if sign == 0 else int(sign > 0)

    return choose


def _best_response(
    tree: AtomTree, policy: StoppingPolicy, tables: Mapping[str, tuple]
) -> StoppingPolicy:
    """`phi` of an admissible policy, given its continuation tables."""
    choose = _best_bit(tree, policy.bit)
    return StoppingPolicy({a.id: choose(a, *tables.get(a.id, _EMPTY)) for a in tree.atoms()})


def phi(tree: AtomTree, policy: StoppingPolicy) -> StoppingPolicy:
    """Simultaneous best response of every observer to the given policy.

    Strictly before the effective horizon the new bit is 1 when the immediate
    payoff strictly beats the continuation value, 0 when it strictly loses,
    and the old bit on a tie.  At or past the effective horizon the bit is 1.
    """
    result, tables = _checked_tables(tree, policy)
    if not result:
        raise InadmissiblePolicyError(result)
    return _best_response(tree, policy, tables)


def _equilibrium_tables(
    tree: AtomTree, policy: StoppingPolicy
) -> tuple[EquilibriumResult, Optional[tuple]]:
    """`is_equilibrium` together with the `_checked_tables` it used.

    The tables are None when the policy does not cover the tree.
    """
    try:
        tables = _checked_tables(tree, policy)
    except PolicyError as exc:
        return EquilibriumResult(False, reason=str(exc)), None
    result, by_atom = tables
    if not result:
        reason = f"inadmissible: {result.reason} at {result.atom!r}"
        return EquilibriumResult(False, reason=reason), tables
    updated = _best_response(tree, policy, by_atom)
    deviations = tuple(aid for aid in tree.atom_ids() if updated.bit(aid) != policy.bit(aid))
    if deviations:
        reason = "not a fixed point of the best response"
        return EquilibriumResult(False, deviations, reason), tables
    return EquilibriumResult(True), tables


def is_equilibrium(tree: AtomTree, policy: StoppingPolicy) -> EquilibriumResult:
    """Check that the policy is admissible and a fixed point of `phi`."""
    return _equilibrium_tables(tree, policy)[0]


@dataclass(frozen=True)
class PrecommitResult:
    value: Scalar
    stop_atoms: tuple[str, ...]
    candidates: int


def count_stopping_times(tree: AtomTree) -> int:
    """Number of stopping times on the tree (stop-now or defer per subtree)."""
    counts: dict[str, int] = {}
    for level in reversed(tree.levels):
        for atom in level:
            kids = tree.children(atom.id)
            counts[atom.id] = 1 + math.prod(counts[c.id] for c in kids) if kids else 1
    return counts[tree.root.id]


def _gain_bit(tree: AtomTree, lam: Scalar) -> Callable[[Atom, Scalar, Scalar, Scalar], int]:
    """The `_sweep` chooser of one Dinkelbach step: 1 at the final level, else
    1 when the gain (payoff - λ in-domain, 0 outside) is at least num - λ·den;
    on integer tables, with λ = l/m and payoff a/b, iff (a·m - l·b)·k >=
    b·(n·m - l·e) in the domain and iff 0 >= n·m - l·e outside it."""
    mode, scale, horizon = tree.mode, tree.tie_scale(), tree.horizon
    integer = tree.rational()
    l, m = (lam.numerator, lam.denominator) if integer else (lam, 1)

    def choose(atom: Atom, n: Scalar, e: Scalar, k: Scalar) -> int:
        if atom.level == horizon:
            return 1
        if not integer:
            gain = atom.payoff - lam if atom.in_domain else mode.zero
            return int(mode.ge(gain, n - lam * e, scale))
        cont = n * m - l * e
        if not atom.in_domain:
            return int(cont <= 0)
        a, b = atom.payoff.numerator, atom.payoff.denominator
        return int((a * m - l * b) * k >= b * cont)

    return choose


def precommitted(tree: AtomTree) -> PrecommitResult:
    """Best single stopping time chosen up front, by Dinkelbach iteration.

    Maximizes E[payoff * 1{stop in-domain}] / P(stop in-domain) over all
    stopping times with positive conditioning probability.  For a fixed λ,
    max E[(payoff - λ) * 1{stop in-domain}] is a classical stopping problem,
    one `_sweep` with `_gain_bit`.  From λ = the root payoff, each sweep's N
    and D at the root set λ = N/D until N - λ·D is no longer positive (or the
    root stops); λ is then the optimum (W. Dinkelbach, Management Science
    13(7), 1967).  λ rises strictly, so the loop ends.  Ties go to stopping,
    so the last sweep stops at or before every maximizer: ties break toward
    earliest stopping (lexicographically smallest sorted stop-atom keys, level
    first), and D > 0, as for a maximizer.  `stop_atoms` are its first stops
    in `tree.atoms()` order, and `candidates` counts the sweeps.
    """
    mode = tree.mode
    root = tree.root
    lam = root.payoff
    sweeps = 0
    while True:
        bits, tables = _sweep(tree, _gain_bit(tree, lam))
        sweeps += 1
        n, e, _ = tables[root.id]
        if bits[root.id] or not mode.gt(n - lam * e, mode.zero, tree.tie_scale()):
            break
        lam = mode.ratio(n, e)
    # an atom is a first stop iff it stops and nothing above it has stopped
    stopped = {None: False}
    for atom in tree.atoms():
        stopped[atom.id] = stopped[atom.parent] or bits[atom.id]
    stop_atoms = tuple(a.id for a in tree.atoms() if bits[a.id] and not stopped[a.parent])
    return PrecommitResult(root.payoff if bits[root.id] else mode.ratio(n, e), stop_atoms, sweeps)


def _preference(preference) -> Optional[str]:
    """The preference rule of both censuses: None or "all" keeps every tie,
    "early" and "late" pin ties to stop and to continue."""
    if preference is None or preference == "all":
        return None
    if preference in ("early", "late"):
        return preference
    raise PolicyError(f"unknown preference {preference!r}")


def _equilibria(
    tree: AtomTree, preference: Optional[str], size_guard: Optional[int]
) -> list[tuple[dict[str, int], dict[str, tuple]]]:
    """The census sweep `(bits, tables)` of every equilibrium; see
    `enumerate_equilibria`."""
    guard = DEFAULT_POLICY_GUARD if size_guard is None else size_guard
    flags = tree.effective_flags()
    free = [atom.id for atom in tree.atoms() if not flags[atom.id]]
    name = _preference(preference)
    found: list[tuple] = []
    # a pending branch (ties, k) pins ties[:k] as its parent sweep met them, and ties[k] to stop
    branches: list[tuple[list, int]] = []
    pins = {} if name is None else dict.fromkeys(tree.atom_ids(), int(name == "early"))
    # a pinned tie takes its bit; an undecided one continues and joins the pins
    choose = _best_bit(tree, lambda atom_id: pins.setdefault(atom_id, 0))
    while True:
        decided = len(pins)
        found.append(_sweep(tree, choose))
        ties = list(pins.items())
        needed = len(found) + len(branches) + len(ties) - decided
        if needed > guard:
            raise SizeGuardError(needed, guard)
        branches.extend((ties, k) for k in range(decided, len(ties)))
        if not branches:
            break
        ties, k = branches.pop()
        pins = {**dict(ties[:k]), ties[k][0]: 1}
    return sorted(found, key=lambda sweep: sum(sweep[0][aid] << i for i, aid in enumerate(free)))


def enumerate_equilibria(
    tree: AtomTree,
    preference: Optional[str] = None,
    size_guard: Optional[int] = None,
) -> list[StoppingPolicy]:
    """All equilibrium policies, optionally filtered by an indifference rule.

    Each observer's bit is forced by the bits below them except on an exact
    tie, so every equilibrium is one `_sweep` with `_best_bit`.  The preference
    is read by `_preference`, as in the periodic census: "early" and "late" pin
    every tie to stop and to continue, None or "all" keeps both bits.  A sweep
    continues at the ties T_1..T_m it meets unpinned, and T_k spawns the sweep
    that pins T_1..T_(k-1) to continue and T_k to stop: one sweep per
    equilibrium, and one in all with "early" or "late".  Results are in mask
    order (bit i for the i-th free atom in `tree.atoms()` order).  The size
    guard counts candidates, here sweeps, made and queued, and raises once
    they exceed it, before a sweep's branches are queued.
    """
    return [StoppingPolicy(bits) for bits, _ in _equilibria(tree, preference, size_guard)]
