import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condstop import policy as policy_module
from condstop.catalog import binomial_tree, minnie_donald_model, two_state_model
from condstop.model import Atom, AtomTree, _Cells, unroll
from condstop.modelio import dump_model, load_model
from condstop.numeric import EXACT, float_mode
from condstop.policy import (
    InadmissiblePolicyError,
    PolicyError,
    SizeGuardError,
    StoppingPolicy,
    admissible,
    continuation_value,
    count_stopping_times,
    enumerate_equilibria,
    is_equilibrium,
    phi,
    precommitted,
)
from condstop.random_models import random_markov_model, random_tree
from condstop.recursion import backward_solve

from tree_oracles import best_bit_by_fractions, gain_bit_by_fractions, induced_stop
from tree_oracles import sweep_by_fractions

F = Fraction


def tie_tree():
    """Root and its single child both pay 1: the root observer is indifferent."""
    return AtomTree(
        [
            Atom("r", 0, None, F(1), True, F(1)),
            Atom("c", 1, "r", F(1), True, F(1)),
        ]
    )


def path_tree(levels):
    """A single in-domain path whose payoff grows with the level."""
    return AtomTree(
        Atom(f"a{t}", t, f"a{t - 1}" if t else None, F(1), True, F(t)) for t in range(levels)
    )


class TestStoppingPolicy:
    def test_basics(self):
        tree = binomial_tree()
        policy = StoppingPolicy.from_stop_atoms(tree, ["u", "du", "dd"])
        assert policy.stops("u") and not policy.stops("root")
        assert policy.bit("dd") == 1
        everywhere = StoppingPolicy.stop_everywhere(tree)
        assert all(everywhere.stops(a) for a in tree.atom_ids())

    def test_normalized_pins_out_of_domain(self):
        tree = binomial_tree()
        sloppy = StoppingPolicy({a: 0 for a in tree.atom_ids()})
        fixed = sloppy.normalized(tree)
        # 'dd' is out of the domain, hence at the effective horizon: its bit
        # is forced to 1 no matter what the policy said there.
        assert fixed.bit("dd") == 1
        assert fixed.bit("root") == 0 and fixed.bit("d") == 0

    def test_state_rule_round_trips_through_markov_bits(self):
        tree = unroll(two_state_model(), 3)
        policy = StoppingPolicy.from_state_rule(tree, lambda t, x: x == 2 or t == 3)
        bits = policy.markov_bits(tree)
        assert all(bit == int(x == 2 or t == 3) for (t, x), bit in bits.items())
        assert (0, 1) in bits and (3, 2) in bits
        for atom in tree.atoms():
            if not atom.in_domain:
                assert policy.bit(atom.id) == 1

    def test_markov_bits_none_when_a_cell_disagrees(self):
        tree = unroll(two_state_model(), 3)
        policy = StoppingPolicy.from_state_rule(tree, lambda t, x: False)
        cell = [a for a in tree.levels[2] if a.in_domain and a.state == 1]
        assert len(cell) > 1
        split = StoppingPolicy({**policy.decisions, cell[0].id: 1})
        assert split.markov_bits(tree) is None
        assert StoppingPolicy.stop_everywhere(binomial_tree()).markov_bits(binomial_tree()) is None


class TestAdmissible:
    def test_stop_everywhere_is_admissible(self):
        tree = binomial_tree()
        assert admissible(tree, StoppingPolicy.stop_everywhere(tree))

    def test_continue_everywhere_reports_the_root(self):
        # With no in-domain stop anywhere, the shallowest atom with an
        # undefined conditional value is the root itself.
        tree = binomial_tree()
        policy = StoppingPolicy({a: 0 for a in tree.atom_ids()})
        result = admissible(tree, policy)
        assert not result
        assert result.atom == "root"
        assert "never stops in-domain" in result.reason

    def test_continue_at_horizon_is_not(self):
        # Stopping at every in-domain leaf keeps conditional values defined,
        # so the lone offender is the flagged atom that still continues.
        tree = binomial_tree()
        policy = StoppingPolicy.from_stop_atoms(tree, ["uu", "ud", "du"])
        result = admissible(tree, policy)
        assert not result
        assert result.atom == "dd"
        assert "effective horizon" in result.reason

    def test_continuation_that_never_stops_in_domain(self):
        # Below r the policy only ever stops outside the domain (continuing
        # at aa, the single in-domain leaf).  The scan reports the shallowest
        # atom whose conditional value is undefined: r itself.
        atoms = [
            Atom("r", 0, None, F(1), True, F(1)),
            Atom("a", 1, "r", F(1, 2), True, F(2)),
            Atom("b", 1, "r", F(1, 2), False, None),
            Atom("aa", 2, "a", F(1), True, F(1)),
            Atom("ba", 2, "b", F(1), False, None),
        ]
        tree = AtomTree(atoms)
        policy = StoppingPolicy({"r": 0, "a": 0, "b": 1, "aa": 0, "ba": 1})
        result = admissible(tree, policy)
        assert not result
        assert result.atom == "r"
        assert "never stops in-domain" in result.reason


class TestInducedStop:
    def test_first_stop_below_root(self):
        tree = binomial_tree()
        _, policy = backward_solve(tree)  # stops at u and d
        stop = induced_stop(tree, policy, "root")
        assert stop.stop_probs == {"u": F(1, 2), "d": F(1, 2)}
        assert stop.survive_prob == 1
        assert stop.dead_prob == 0 and stop.never_prob == 0

    def test_mass_dying_out_of_domain(self):
        tree = binomial_tree()
        leaves_only = StoppingPolicy.from_stop_atoms(tree, ["uu", "ud", "du", "dd"])
        stop = induced_stop(tree, leaves_only, "d")
        assert stop.stop_probs == {"du": F(1, 2), "dd": F(1, 2)}
        assert stop.survive_prob == F(1, 2)  # only du pays off in-domain
        assert stop.dead_prob == F(1, 2)

    def test_mass_never_stopping(self):
        tree = binomial_tree()
        policy = StoppingPolicy.from_stop_atoms(tree, ["uu"])
        stop = induced_stop(tree, policy, "u")
        assert stop.stop_probs == {"uu": F(1, 2)}
        assert stop.never_prob == F(1, 2)  # ud reaches the horizon continuing

    def test_continuation_value_matches_hand_computation(self):
        tree = binomial_tree()
        pair, policy = backward_solve(tree)
        assert continuation_value(tree, policy, "root") == F(13, 2)
        assert continuation_value(tree, policy, "d") == F(2)
        assert continuation_value(tree, policy, "u") == F(3)
        with pytest.raises(InadmissiblePolicyError):
            continuation_value(tree, StoppingPolicy({a: 0 for a in tree.atom_ids()}), "root")


class TestPhi:
    def test_one_step_toward_equilibrium(self):
        tree = binomial_tree()
        everywhere = StoppingPolicy.stop_everywhere(tree)
        improved = phi(tree, everywhere)
        assert improved.bit("root") == 0
        assert all(improved.bit(a) == 1 for a in tree.atom_ids() if a != "root")

    def test_equilibrium_is_a_fixed_point(self):
        tree = binomial_tree()
        _, policy = backward_solve(tree)
        assert phi(tree, policy).decisions == policy.normalized(tree).decisions

    def test_ties_stay_stopped(self):
        tree = tie_tree()
        everywhere = StoppingPolicy.stop_everywhere(tree)
        assert phi(tree, everywhere).bit("r") == 1


class TestIsEquilibrium:
    def test_backward_policy(self):
        tree = binomial_tree()
        _, policy = backward_solve(tree)
        assert is_equilibrium(tree, policy)

    def test_stop_everywhere_fails_at_root(self):
        tree = binomial_tree()
        result = is_equilibrium(tree, StoppingPolicy.stop_everywhere(tree))
        assert not result
        assert "root" in result.deviations

    def test_tie_admits_both_bits(self):
        tree = tie_tree()
        stop = StoppingPolicy({"r": 1, "c": 1})
        wait = StoppingPolicy({"r": 0, "c": 1})
        assert is_equilibrium(tree, stop)
        assert is_equilibrium(tree, wait)


class TestPrecommitted:
    def test_binomial(self):
        tree = binomial_tree()
        result = precommitted(tree)
        assert result.value == F(22, 3)
        assert set(result.stop_atoms) == {"u", "du", "dd"}
        assert result.candidates == 3
        oracle = precommitted_exhaustive(tree)
        assert oracle.value == F(22, 3)
        assert set(oracle.stop_atoms) == {"u", "du", "dd"}
        assert oracle.candidates == 5
        assert count_stopping_times(tree) == 5

    def test_size_guard(self):
        tree = binomial_tree()
        with pytest.raises(SizeGuardError):
            precommitted_exhaustive(tree, size_guard=2)

    def test_value_dominates_every_stopping_time(self, tree_corpus):
        # Exhaustively enumerate stopping times on small instances and check
        # that the reported optimum really is the maximum.
        checked = 0
        for tree in tree_corpus:
            if count_stopping_times(tree) > 600:
                continue
            best = precommitted(tree)
            values = list(_all_stopping_values(tree))
            assert best.value == max(v for v in values if v is not None)
            assert len(values) == count_stopping_times(tree)
            checked += 1
            if checked >= 12:
                break
        assert checked >= 5


def _all_stopping_values(tree):
    """Value of every stopping time, None when the denominator vanishes.

    A stopping time is assembled independently of the solver: each atom
    either stops (contributing its mass and, when in-domain, its payoff)
    or defers to a full choice over its children.
    """

    def options(atom):
        stop_here = [(tree.prob(atom.id), atom)]
        yield stop_here
        kids = tree.children(atom.id)
        if not kids:
            return
        pools = [list(options(k)) for k in kids]

        def product(i):
            if i == len(pools):
                yield []
                return
            for head in pools[i]:
                for rest in product(i + 1):
                    yield head + rest

        yield from product(0)

    for choice in options(tree.root):
        num = den = F(0)
        for mass, atom in choice:
            if atom.in_domain:
                num += mass * atom.payoff
                den += mass
        yield num / den if den else None


DEFAULT_STOPPING_TIME_GUARD = 10**7


def _stopping_time_options(tree, atom, index_in_level):
    """All stopping times of the subtree at `atom`, stopping at `atom` first.

    Each option is (numerator, denominator, key): the unconditional-within-
    subtree contribution E[payoff * 1{in-domain}] and P(stop in-domain), and a
    sorted tuple of (level, sibling index, atom id) stop locations used for
    the earliest-stopping tie-break.
    """
    zero = tree.mode.zero
    own_key = ((atom.level, index_in_level[atom.id], atom.id),)
    yield (atom.payoff, tree.mode.one, own_key) if atom.in_domain else (zero, zero, own_key)
    kids = tree.children(atom.id)
    if not kids:
        return
    options = [_stopping_time_options(tree, child, index_in_level) for child in kids]
    for combo in itertools.product(*options):
        num = den = zero
        keys = []
        for child, (c_num, c_den, c_key) in zip(kids, combo):
            num += child.branch_prob * c_num
            den += child.branch_prob * c_den
            keys.extend(c_key)
        yield (num, den, tuple(sorted(keys)))


def precommitted_exhaustive(tree, size_guard=None):
    """Test oracle: the precommitted optimum by exhaustive enumeration.

    Maximizes E[payoff * 1{stop in-domain}] / P(stop in-domain) over all
    stopping times with positive conditioning probability; a size guard
    protects against oversized trees.  The root's options stream from
    `_stopping_time_options` and `candidates` counts all of them.  Values
    are compared as the solver compares them, by `tree.mode.compare` at
    `tree.tie_scale()`, and ties are broken toward earliest stopping
    (lexicographically smallest sorted stop-atom keys, level first).
    """
    guard = DEFAULT_STOPPING_TIME_GUARD if size_guard is None else size_guard
    total = count_stopping_times(tree)
    if total > guard:
        raise SizeGuardError(total, guard)
    index_in_level = {atom.id: i for level in tree.levels for i, atom in enumerate(level)}

    scale = tree.tie_scale()
    best_value = None
    best_key = None
    examined = 0
    for num, den, key in _stopping_time_options(tree, tree.root, index_in_level):
        examined += 1
        if not den > 0:
            continue
        value = num / den
        order = 1 if best_value is None else tree.mode.compare(value, best_value, scale)
        if order > 0 or (order == 0 and key < best_key):
            best_value = value
            best_key = key
    if best_value is None:
        raise PolicyError("no stopping time stops in-domain with positive probability")
    stop_atoms = tuple(entry[2] for entry in best_key)
    return policy_module.PrecommitResult(best_value, stop_atoms, examined)


class TestEnumerate:
    def test_binomial_has_one_equilibrium(self):
        tree = binomial_tree()
        found = enumerate_equilibria(tree)
        assert len(found) == 1
        _, policy = backward_solve(tree)
        assert found[0].decisions == policy.normalized(tree).decisions

    def test_preferences_split_ties(self):
        tree = tie_tree()
        assert len(enumerate_equilibria(tree, "all")) == 2
        (early,) = enumerate_equilibria(tree, "early")
        (late,) = enumerate_equilibria(tree, "late")
        assert early.bit("r") == 1 and late.bit("r") == 0

    def test_explicit_preference_object(self):
        tree = tie_tree()
        (early,) = enumerate_equilibria(tree, preference="early")
        assert early.bit("r") == 1

    def test_size_guard(self):
        # The guard counts sweeps, one per equilibrium: two equilibria need two.
        with pytest.raises(SizeGuardError):
            enumerate_equilibria(tie_tree(), size_guard=1)
        # 22 free atoms, 2^22 candidate policies, but one equilibrium.
        path = path_tree(23)
        assert sum(1 for flag in path.effective_flags().values() if not flag) == 22
        assert len(enumerate_equilibria(path)) == 1
        assert len(enumerate_equilibria(path, size_guard=1)) == 1

    def test_guard_refuses_before_queuing_a_sweeps_branches(self):
        # Every atom of a 3,000-level path pays 1, so the first sweep ties at
        # each of its 2,999 free atoms.  The guard counts those pending sweeps
        # before it keeps them, and refuses within 8 MB of traced memory; a
        # pin dict per pending sweep used to take over 100 MB.  The tie tree
        # makes two sweeps, so 2 is the smallest guard that answers.
        tree = AtomTree(
            Atom(f"a{t}", t, f"a{t - 1}" if t else None, F(1), True, F(1)) for t in range(3000)
        )
        tree.effective_flags(), tree.tie_scale()  # the tree's own caches, outside the trace
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardError, match="needs at least 3000 candidates") as err:
                enumerate_equilibria(tree, size_guard=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.required, err.value.guard) == (3000, 100)
        assert peak < 8 * 2**20
        assert len(enumerate_equilibria(tie_tree(), size_guard=2)) == 2
        for guard in (1, 0):
            with pytest.raises(SizeGuardError) as err:
                enumerate_equilibria(tie_tree(), size_guard=guard)
            assert (err.value.required, err.value.guard) == (2, guard)

    def test_unknown_preference(self):
        with pytest.raises(ValueError):
            enumerate_equilibria(binomial_tree(), "sideways")

    def test_none_means_all(self):
        tree = tie_tree()
        assert enumerate_equilibria(tree, None) == enumerate_equilibria(tree, "all")
        assert len(enumerate_equilibria(tree, None)) == 2

    def test_early_equilibria_are_phi_fixed_points(self, tree_corpus):
        for tree in tree_corpus[:30]:
            for policy in enumerate_equilibria(tree, "early"):
                assert phi(tree, policy).decisions == policy.decisions


def exhaustive_equilibria(tree, preference="all"):
    """Test oracle: the census by brute force over all 2^free candidate policies.

    Bits at or past the effective horizon are 1; every assignment of the free
    bits is checked against "stop iff the payoff beats the continuation value,
    continue iff it loses, and on a tie any bit, or the preferred one".  The
    result is in mask order, bit i for the i-th free atom in `tree.atoms()`.
    """
    flags = tree.effective_flags()
    free = [atom for atom in tree.atoms() if not flags[atom.id]]
    preference = policy_module._preference(preference)
    base = {aid: 1 for aid, flag in flags.items() if flag}
    found = []
    for mask in range(2 ** len(free)):
        bits = dict(base)
        for i, atom in enumerate(free):
            bits[atom.id] = (mask >> i) & 1
        policy = StoppingPolicy(bits)
        tables = policy_module._continuation_tables(tree, policy)
        ok = True
        for atom in free:
            sign = tree.mode.compare(atom.payoff, tree.mode.ratio(*tables[atom.id][:2]))
            bit = bits[atom.id]
            if sign != 0:
                ok = bit == int(sign > 0)
            elif preference is not None:
                ok = bit == int(preference == "early")
            if not ok:
                break
        if ok:
            found.append(policy)
    return found


def tie_heavy(tree, rng):
    """The same tree with in-domain payoffs redrawn from {0, 1, 2}."""
    return AtomTree(
        dataclasses.replace(atom, payoff=F(rng.randint(0, 2))) if atom.in_domain else atom
        for atom in tree.atoms()
    )


def _sweep_instance(kind, floats, rng):
    """A tree, an unrolled 2-5-state chain, its cells, or Minnie-Donald's
    cells up to horizon 60, exact or in float mode."""
    mode = float_mode() if floats else EXACT
    if kind == "minnie-donald":
        return _Cells(minnie_donald_model(mode=mode), rng.randint(1, 60))
    if kind in ("tree", "all-in-domain", "ties"):
        tree = random_tree(rng, all_in_domain=kind == "all-in-domain")
        tree = tie_heavy(tree, rng) if kind == "ties" else tree
        return load_model(dump_model(tree), mode=mode) if floats else tree
    model = random_markov_model(rng, n_states=rng.randint(2, 5))
    model = load_model(dump_model(model), mode=mode) if floats else model
    horizon = rng.randint(1, 4)
    return unroll(model, horizon) if kind == "chain" else _Cells(model, horizon)


class TestSweepAgainstFractionOracle:
    """`_sweep` against `sweep_by_fractions`, the `Fraction` kernel it
    replaced: equal bits, and tables (n, e, k) with n/k = num and e/k = den,
    in lowest terms with k > 0 in exact mode and bit for bit with k = 1 in
    float mode."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        kind=st.sampled_from(["tree", "all-in-domain", "ties", "chain", "cells", "minnie-donald"]),
        floats=st.booleans(),
        rule=st.sampled_from(["policy", "stop", "continue", "pins", "payoff-gain", "gain"]),
        seed=st.integers(0, 2**32),
    )
    def test_bits_and_tables_match(self, kind, floats, rule, seed):
        rng = random.Random(seed)
        tree = _sweep_instance(kind, floats, rng)
        if rule == "policy":
            bits = {aid: rng.randint(0, 1) for aid in tree.atom_ids()}
            chooser = oracle = lambda atom, *tables: bits[atom.id]
        elif rule in ("stop", "continue", "pins"):
            pinned = [aid for aid in tree.atom_ids() if rule == "pins" and rng.random() < 0.5]
            pins = {aid: rng.randint(0, 1) for aid in pinned}
            default = int(rule == "stop") if rule != "pins" else rng.randint(0, 1)
            tie = lambda atom_id: pins.get(atom_id, default)
            chooser, oracle = policy_module._best_bit(tree, tie), best_bit_by_fractions(tree, tie)
        else:
            payoffs = [atom.payoff for atom in tree.atoms() if atom.in_domain]
            lam = F(rng.randint(-20, 40), rng.randint(1, 8))
            lam = rng.choice(payoffs) if rule == "payoff-gain" else float(lam) if floats else lam
            chooser, oracle = policy_module._gain_bit(tree, lam), gain_bit_by_fractions(tree, lam)
        bits, tables = policy_module._sweep(tree, chooser)
        oracle_bits, num, den = sweep_by_fractions(tree, oracle)
        assert bits == oracle_bits
        assert tables.keys() == num.keys()
        for aid, (n, e, k) in tables.items():
            if floats:
                assert (n.hex(), e.hex(), k) == (num[aid].hex(), den[aid].hex(), 1)
            else:
                assert {type(n), type(e), type(k)} == {int} and k > 0 and math.gcd(n, e, k) == 1
                assert (F(n, k), F(e, k)) == (num[aid], den[aid])


class TestCensusOracle:
    @pytest.mark.parametrize("preference", ["all", "early", "late"])
    def test_corpus_matches_exhaustive(self, tree_corpus, preference):
        for tree in tree_corpus:
            assert enumerate_equilibria(tree, preference) == exhaustive_equilibria(tree, preference)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32),
        ties=st.booleans(),
        preference=st.sampled_from(["all", "early", "late"]),
    )
    def test_random_trees_match_exhaustive(self, seed, ties, preference):
        rng = random.Random(seed)
        tree = random_tree(rng)
        if ties:
            tree = tie_heavy(tree, rng)
        assert enumerate_equilibria(tree, preference) == exhaustive_equilibria(tree, preference)

    def test_one_sweep_per_equilibrium(self, tree_corpus, monkeypatch):
        calls = []
        sweep = policy_module._sweep
        monkeypatch.setattr(
            policy_module, "_sweep", lambda *args: calls.append(1) or sweep(*args)
        )
        rng = random.Random(5)
        trees = tree_corpus[:40] + [tie_heavy(tree, rng) for tree in tree_corpus[:40]]
        assert max(len(enumerate_equilibria(tree)) for tree in trees) > 1
        for tree in trees:
            for preference in ("all", "early", "late"):
                calls.clear()
                found = enumerate_equilibria(tree, preference)
                assert len(calls) == (len(found) if preference == "all" else 1)


def as_float(tree):
    """The same tree in float mode."""
    return load_model(dump_model(tree), mode=float_mode())


def assert_precommit_matches_exhaustive(tree):
    """Exact: the same value and stop atoms as the oracle.  Float: the same
    stop atoms, and the value within the tolerance at the tree's tie scale."""
    result, oracle = precommitted(tree), precommitted_exhaustive(tree)
    assert (result.value, result.stop_atoms) == (oracle.value, oracle.stop_atoms)
    floated = as_float(tree)
    result, oracle = precommitted(floated), precommitted_exhaustive(floated)
    assert result.stop_atoms == oracle.stop_atoms
    assert floated.mode.eq(result.value, oracle.value, floated.tie_scale())


class TestPrecommitOracle:
    def test_corpora_match_exhaustive(self, tree_corpus, domain_corpus):
        rng = random.Random(33)
        ties = [tie_heavy(tree, rng) for tree in tree_corpus]
        chains = [
            unroll(model, horizon)
            for model in (two_state_model(), minnie_donald_model())
            for horizon in (1, 2, 3)
        ]
        for tree in [*tree_corpus, *domain_corpus, *ties, binomial_tree(), *chains]:
            assert_precommit_matches_exhaustive(tree)

    @settings(max_examples=300, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32), ties=st.booleans())
    @example(seed=2610, ties=False)
    @example(seed=10617, ties=True)
    def test_random_trees_match_exhaustive(self, seed, ties):
        rng = random.Random(seed)
        tree = random_tree(rng)
        assert_precommit_matches_exhaustive(tie_heavy(tree, rng) if ties else tree)

    def test_long_chain_meets_the_dinkelbach_certificate(self):
        # Too many stopping times for the oracle; instead, λ = the value is
        # optimal iff max E[(payoff - λ) * 1{stop in-domain}] over all
        # stopping times is 0, here by a plain recursive Snell envelope.
        tree = unroll(two_state_model(), 8)
        result = precommitted(tree)

        def envelope(atom, lam):
            gain = atom.payoff - lam if atom.in_domain else 0
            kids = tree.children(atom.id)
            if not kids:
                return gain
            return max(gain, sum(kid.branch_prob * envelope(kid, lam) for kid in kids))

        assert count_stopping_times(tree) > 10**7
        assert envelope(tree.root, result.value) == 0
        assert envelope(tree.root, result.value - F(1, 10**9)) > 0
        stops = StoppingPolicy.from_stop_atoms(tree, result.stop_atoms)
        stop = induced_stop(tree, stops, tree.root.id)
        mass = {aid: p for aid, p in stop.stop_probs.items() if tree.atom(aid).in_domain}
        assert sum(p * tree.atom(aid).payoff for aid, p in mass.items()) == (
            result.value * stop.survive_prob
        )

    def test_one_sweep_per_candidate(self, tree_corpus, monkeypatch):
        calls = []
        sweep = policy_module._sweep
        monkeypatch.setattr(
            policy_module, "_sweep", lambda *args: calls.append(1) or sweep(*args)
        )
        rng = random.Random(5)
        trees = tree_corpus[:40] + [tie_heavy(tree, rng) for tree in tree_corpus[:40]]
        most = 0
        for tree in trees:
            calls.clear()
            sweeps = precommitted(tree).candidates
            assert len(calls) == sweeps
            most = max(most, sweeps)
        assert most > 2
