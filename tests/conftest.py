"""Shared corpora of randomly generated models.

The corpora are seeded so that every run sees the same instances; the
budget-aware generators in condstop.random_models keep each tree inside the
exhaustive-enumeration guards.
"""

import random

import pytest
from hypothesis import settings

from condstop.random_models import random_markov_model, random_tree

# `--hypothesis-profile=ci` prints a failing example's reproduction blob.
settings.register_profile("ci", print_blob=True)


@pytest.fixture(scope="session")
def tree_corpus():
    """Random trees, depth <= 4, branching <= 3, random domain flags."""
    rng = random.Random(20240817)
    return [random_tree(rng) for _ in range(120)]


@pytest.fixture(scope="session")
def domain_corpus():
    """Random trees with every atom kept inside the domain."""
    rng = random.Random(91)
    return [random_tree(rng, all_in_domain=True) for _ in range(60)]


@pytest.fixture(scope="session")
def markov_corpus():
    """Random 4-state chains with finite horizons <= 6."""
    rng = random.Random(4711)
    return [
        random_markov_model(rng, n_states=4, horizon=rng.randint(1, 6))
        for _ in range(24)
    ]


@pytest.fixture(scope="session")
def chain_pool():
    """Random infinite-horizon 4-state chains, the pool of the benchmark inputs."""
    rng = random.Random(4711)
    return [random_markov_model(rng, n_states=4) for _ in range(24)]
