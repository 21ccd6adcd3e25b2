"""Seeded random models for property testing.

Trees are kept deliberately small: the brute-force equilibrium census the
tests use as an oracle is exponential in the number of atoms strictly before
the effective horizon, and the exhaustive precommitted search they check
Dinkelbach iteration against is exponential in subtree structure, so the
generator resamples until both oracles stay within desk-scale budgets.  All
probabilities and payoffs are exact rationals built from small integer
weights.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .model import Atom, AtomTree, MarkovModel
from .infinite import PeriodicMarkovPolicy
from .policy import count_stopping_times

MAX_FREE_ATOMS = 10
MAX_STOPPING_TIMES = 20_000


def _random_payoff(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-20, 40), rng.randint(1, 8))


def _random_probs(rng: random.Random, n: int) -> list[Fraction]:
    weights = [rng.randint(1, 6) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _tree_once(
    rng: random.Random,
    max_depth: int,
    max_branching: int,
    all_in_domain: bool,
) -> AtomTree:
    depth = rng.randint(1, max_depth)
    atoms = [Atom("a", 0, None, Fraction(1), True, _random_payoff(rng))]
    frontier = [atoms[0]]
    for level in range(1, depth + 1):
        next_frontier = []
        for parent in frontier:
            fanout = rng.choices(
                range(1, max_branching + 1), weights=[3, 2, 1][:max_branching]
            )[0]
            probs = _random_probs(rng, fanout)
            for i in range(fanout):
                if all_in_domain:
                    in_domain = True
                else:
                    in_domain = parent.in_domain and rng.random() < 0.8
                child = Atom(
                    id=f"{parent.id}{i}",
                    level=level,
                    parent=parent.id,
                    branch_prob=probs[i],
                    in_domain=in_domain,
                    payoff=_random_payoff(rng) if in_domain else None,
                )
                atoms.append(child)
                next_frontier.append(child)
        frontier = next_frontier
    return AtomTree(atoms)


def random_tree(
    rng: random.Random,
    max_depth: int = 4,
    max_branching: int = 3,
    all_in_domain: bool = False,
) -> AtomTree:
    """A random tree within enumeration budgets (resampled until it fits)."""
    while True:
        tree = _tree_once(rng, max_depth, max_branching, all_in_domain)
        flags = tree.effective_flags()
        free = sum(1 for flag in flags.values() if not flag)
        if free <= MAX_FREE_ATOMS and count_stopping_times(tree) <= MAX_STOPPING_TIMES:
            return tree


def random_markov_model(
    rng: random.Random,
    n_states: int = 4,
    horizon: Optional[int] = None,
) -> MarkovModel:
    """A random chain on states 0..n-1 with a random payoff domain."""
    states = tuple(range(n_states))
    domain_size = rng.randint(2, n_states)
    domain = frozenset(rng.sample(states, domain_size))
    initial = rng.choice(sorted(domain))
    transitions = {}
    for x in states:
        support_size = rng.randint(1, n_states)
        support = rng.sample(states, support_size)
        probs = _random_probs(rng, support_size)
        transitions[x] = dict(zip(support, probs))
    return MarkovModel(
        states=states,
        initial=initial,
        transitions=transitions,
        domain=domain,
        payoff={x: _random_payoff(rng) for x in sorted(domain)},
        discount=Fraction(rng.randint(50, 99), 100),
        horizon=horizon,
    )


def random_periodic_policy(
    rng: random.Random, model: MarkovModel, period: int
) -> PeriodicMarkovPolicy:
    """A random region family honoring the exit/forced-stop pinning."""
    pinned = model.exit_states | model.forced_stop
    free = [x for x in model.states if x in model.domain and x not in model.forced_stop]
    regions = []
    for _ in range(period):
        chosen = {x for x in free if rng.random() < 0.5}
        regions.append(frozenset(pinned | chosen))
    return PeriodicMarkovPolicy(period, tuple(regions))
