"""Built-in example models: the binomial tree, the two-state chain, and the
five-state Minnie–Donald chain, with their reference policies and the exact
check of the Minnie–Donald parameter inequalities.

These are the workhorses of the test suite and the CLI `example` command.
Parameters default to the reference values under which every advertised
phenomenon occurs: the binomial tree's precommitted value strictly exceeds
its equilibrium value; the two-state chain has exactly two time-homogeneous
equilibria; the Minnie–Donald chain has none, but two period-4 ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .infinite import PeriodicMarkovPolicy
from .model import Atom, AtomTree, MarkovModel
from .numeric import EXACT, NumericMode, Scalar
from .policy import StoppingPolicy


def binomial_tree(mode: NumericMode = EXACT) -> AtomTree:
    """Two-period binary tree whose down-down corner leaves the domain.

    Stopping pays 2 now; 10 up / 3 down after one period; 4, 2, 2 after two,
    with the down-down atom out of the domain (no payoff there).
    """
    c = mode.coerce
    half = c(Fraction(1, 2))
    atoms = [
        Atom("root", 0, None, c(1), True, c(2)),
        Atom("u", 1, "root", half, True, c(10)),
        Atom("d", 1, "root", half, True, c(3)),
        Atom("uu", 2, "u", half, True, c(4)),
        Atom("ud", 2, "u", half, True, c(2)),
        Atom("du", 2, "d", half, True, c(2)),
        Atom("dd", 2, "d", half, False, None),
    ]
    return AtomTree(atoms, mode=mode)


def two_state_model(
    delta: Scalar = Fraction(9, 10),
    a: Scalar = Fraction(6, 5),
    mode: NumericMode = EXACT,
) -> MarkovModel:
    """Chain on {0, 1, 2} with uniform rows and absorbing exit state 0.

    Stopping pays 1 at state 1 and `a` at state 2.  For a strictly between
    (3-delta)/(2*delta) and (2-delta)/delta the chain has exactly two
    time-homogeneous equilibria: stop everywhere, and stop only at state 2.
    """
    c = mode.coerce
    third = c(Fraction(1, 3))
    uniform = {0: third, 1: third, 2: third}
    return MarkovModel(
        states=(0, 1, 2),
        initial=1,
        transitions={0: {0: c(1)}, 1: dict(uniform), 2: dict(uniform)},
        domain=frozenset({1, 2}),
        payoff={1: c(1), 2: c(a)},
        discount=c(delta),
        mode=mode,
    )


def two_state_equilibrium_regions() -> tuple[frozenset, frozenset]:
    """Stop regions of the two time-homogeneous equilibria (exit included)."""
    return frozenset({0, 1, 2}), frozenset({0, 2})


def minnie_donald_model(
    delta: Scalar = Fraction(999, 1000),
    a: Scalar = Fraction(24, 25),
    b: Scalar = Fraction(4257, 1000),
    mode: NumericMode = EXACT,
) -> MarkovModel:
    """Five-state chain with no time-homogeneous equilibrium but two period-4 ones.

    State 0 is the exit; 3 and 4 are absorbing payoff sinks pinned to stop;
    1 and 2 feed each other and drive the cycle.  The defaults satisfy all
    three groups of `check_minnie_donald_conditions`.
    """
    c = mode.coerce
    return MarkovModel(
        states=(0, 1, 2, 3, 4),
        initial=1,
        transitions={
            0: {0: c(1)},
            1: {2: c(Fraction(1, 2)), 3: c(Fraction(1, 2))},
            2: {
                1: c(Fraction(1, 10)),
                3: c(Fraction(2, 5)),
                4: c(Fraction(2, 5)),
                0: c(Fraction(1, 10)),
            },
            3: {3: c(1)},
            4: {4: c(1)},
        },
        domain=frozenset({1, 2, 3, 4}),
        payoff={1: c(a), 2: c(2), 3: c(0), 4: c(b)},
        discount=c(delta),
        forced_stop=frozenset({3, 4}),
        mode=mode,
    )


@dataclass(frozen=True)
class InequalityCheck:
    description: str
    holds: bool
    lhs: Scalar
    rhs: Scalar


@dataclass(frozen=True)
class ParameterReport:
    groups: tuple[tuple[InequalityCheck, ...], ...]

    @property
    def all_hold(self) -> bool:
        return all(check.holds for group in self.groups for check in group)

    def checks(self):
        for group in self.groups:
            yield from group


def check_minnie_donald_conditions(delta: Scalar, a: Scalar, b: Scalar) -> ParameterReport:
    """Exact inequality report for the five-state cyclic-equilibrium chain.

    Three groups: the first keeps stopping at the poor state optimal against
    immediate stopping downstream; the second forces continuation once the
    rich state's continuation value builds up; the third closes the cycle.
    At the reference parameters (delta = 999/1000, a = 24/25, b = 4257/1000)
    the margins are a few parts in a thousand — rounding the parameters to
    two decimals already flips a verdict — so the checks are carried out in
    whatever arithmetic the inputs supply, exact rationals included.
    """
    eighteen = Fraction(18)
    group1 = (
        InequalityCheck("a < delta", a < delta, a, delta),
        InequalityCheck(
            "delta*(a + 4*b) < 18",
            delta * (a + 4 * b) < eighteen,
            delta * (a + 4 * b),
            eighteen,
        ),
    )
    lhs2 = (
        Fraction(1, 100) * delta**3 * min(5 * a, b * delta**2)
        + Fraction(1, 5) * b * delta**3
        + 4 * b * delta
    )
    group2 = (
        InequalityCheck(
            "delta*(delta + 4*b) > 18",
            delta * (delta + 4 * b) > eighteen,
            delta * (delta + 4 * b),
            eighteen,
        ),
        InequalityCheck(
            "delta^3*min(5*a, b*delta^2)/100 + b*delta^3/5 + 4*b*delta > 179/10",
            lhs2 > Fraction(179, 10),
            lhs2,
            Fraction(179, 10),
        ),
    )
    lhs3 = delta**2 * (max(delta, Fraction(1, 4) * b * delta**2) + 4 * b)
    group3 = (
        InequalityCheck(
            "delta^2*(max(delta, b*delta^2/4) + 4*b) < 189*a/10",
            lhs3 < Fraction(189, 10) * a,
            lhs3,
            Fraction(189, 10) * a,
        ),
    )
    return ParameterReport((group1, group2, group3))


def minnie_donald_cycle_regions() -> tuple[frozenset, ...]:
    """The four stop regions the best-response map cycles through.

    Applied to the homogeneous policy with region R_n, one best-response step
    yields R_{n+1} (indices mod 4), so no homogeneous policy is a fixed point.
    Indexing is 0-based: entry n holds R_{n+1}.
    """
    return (
        frozenset({0, 1, 2, 3, 4}),  # R_1
        frozenset({0, 2, 3, 4}),     # R_2
        frozenset({0, 3, 4}),        # R_3
        frozenset({0, 1, 3, 4}),     # R_4
    )


def minnie_donald_homogeneous_policy(n: int) -> PeriodicMarkovPolicy:
    """Period-1 policy with stop region R_n, n in 1..4."""
    if n not in (1, 2, 3, 4):
        raise ValueError("region index must be 1..4")
    return PeriodicMarkovPolicy(1, (minnie_donald_cycle_regions()[n - 1],))


def minnie_donald_periodic_policy(k: int) -> PeriodicMarkovPolicy:
    """The period-4 equilibrium policies, k in 1..4.

    Policy k uses region R_{4-((k-1+phase) mod 4)} at each phase; k = 1 starts
    at R_4, and successive k shift the schedule by one phase.  Policies 1 and 4
    agree at every pair the chain can reach, as do 2 and 3.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError("policy index must be 1..4")
    cycle = tuple(reversed(minnie_donald_cycle_regions()))  # R_4, R_3, R_2, R_1
    return PeriodicMarkovPolicy(
        4, tuple(cycle[(k - 1 + phase) % 4] for phase in range(4))
    )


def two_state_history_policy(tree: AtomTree) -> StoppingPolicy:
    """History-dependent equilibrium pattern for unrolled two-state chains.

    Stop everywhere except on paths that visited state 2 at time 1 and sit at
    state 1 now (from time 2 on): those continue.  The rule depends on the
    time-1 coordinate of the path, so no per-(time, state) region family can
    express it.  On an infinite horizon it is an equilibrium; on a finite
    truncation the forced stop at the horizon makes the deepest continuing
    observers prefer to stop, so deviations concentrate on the last free
    level.  Atoms flagged by the effective horizon stop regardless, keeping
    the restriction admissible.
    """
    flags = tree.effective_flags()
    bits: dict[str, int] = {}
    for atom in tree.atoms():
        if not atom.in_domain or atom.level < 2 or flags[atom.id]:
            bits[atom.id] = 1
            continue
        first_step: Optional[Atom] = None
        for ancestor in tree.ancestors(atom.id):
            if ancestor.level == 1:
                first_step = ancestor
        bits[atom.id] = 0 if (first_step.state == 2 and atom.state == 1) else 1
    return StoppingPolicy(bits)


BUILTIN_MODELS = {
    "binomial": binomial_tree,
    "two-state": two_state_model,
    "minnie-donald": minnie_donald_model,
}


def builtin_model(name: str, mode: NumericMode = EXACT):
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin {name!r}; available: {sorted(BUILTIN_MODELS)}"
        ) from None
    return factory(mode=mode)
