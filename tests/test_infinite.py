import dataclasses
import random
from contextlib import suppress
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from census_oracles import (
    census_by_full_checks,
    closure_by_fixpoint,
    evaluate_by_fractions,
    response_by_tables,
)
from condstop import infinite
from condstop.catalog import (
    check_minnie_donald_conditions,
    minnie_donald_cycle_regions,
    minnie_donald_homogeneous_policy,
    minnie_donald_model,
    minnie_donald_periodic_policy,
    two_state_equilibrium_regions,
    two_state_history_policy,
    two_state_model,
)
from condstop.infinite import (
    PeriodicEquilibrium,
    PeriodicMarkovPolicy,
    _markov_bits,
    check_growth,
    enumerate_periodic_equilibria,
    evaluate,
    is_periodic_equilibrium,
    phi_markov,
    reachable_pairs,
    truncation_limit,
)
from condstop.model import MarkovModel, ModelError, _Cells, unroll
from condstop.modelio import dump_model, load_model, model_digest
from condstop.numeric import EXACT, NumericError, SingularSystemError, float_mode
from condstop.policy import (
    InadmissiblePolicyError,
    PolicyError,
    SizeGuardError,
    is_equilibrium,
)
from condstop.random_models import random_markov_model, random_periodic_policy
from condstop.recursion import backward_solve

F = Fraction


def region_policy(*states):
    return PeriodicMarkovPolicy(1, (frozenset(states),))


def is_dead_end(model, x):
    """Every transition from `x` leaves the domain."""
    return not any(prob > 0 and y in model.domain for y, prob in model.transitions[x].items())


def best_response_holds(model, policy, evaluation, preference):
    """The equilibrium spec, read off the `evaluate` tables.

    At each reachable pair with a J whose state is not forced, an exit or a
    dead end, a payoff strictly above J must stop and one strictly below
    must continue; on a tie the bit must be the preferred one when a
    preference is given.
    """
    for phase, x in evaluation.reachable:
        if (
            x in model.forced_stop
            or x in model.exit_states
            or is_dead_end(model, x)
            or (phase, x) not in evaluation.J
        ):
            continue
        sign = model.mode.compare(model.payoff[x], evaluation.J[(phase, x)])
        bit = policy.stops(phase, x)
        if sign != 0 and bit != (sign > 0):
            return False
        if sign == 0 and preference in ("early", "late") and bit != (preference == "early"):
            return False
    return True


def exhaustive_periodic_equilibria(model, period, preference=None):
    """Reference census: every bit at every free (phase, state) pair.

    Tries all 2**(period * free) region families in mask order, skips those
    whose evaluation fails or that break `best_response_holds`, and keeps the
    first survivor of each almost-sure class, i.e. of each stop profile on
    the reachable pairs.
    """
    free = [x for x in model.states if x in model.domain and x not in model.forced_stop]
    pinned = model.exit_states | model.forced_stop
    found = []
    seen = set()
    for mask in range(2 ** (period * len(free))):
        regions = []
        for phase in range(period):
            region = set(pinned)
            for i, x in enumerate(free):
                if (mask >> (phase * len(free) + i)) & 1:
                    region.add(x)
            regions.append(frozenset(region))
        policy = PeriodicMarkovPolicy(period, tuple(regions))
        try:
            evaluation = evaluate(model, policy)
        except PolicyError:
            continue
        if not best_response_holds(model, policy, evaluation, preference):
            continue
        key = frozenset(pair for pair in evaluation.reachable if policy.stops(*pair))
        if key in seen:
            continue
        seen.add(key)
        found.append(PeriodicEquilibrium(policy, evaluation))
    return found


def reachable_classes(found):
    """Stop profile on the reachable pairs -> J on the reachable pairs."""
    return {
        frozenset(pair for pair in eq.evaluation.reachable if eq.policy.stops(*pair)): {
            pair: value for pair, value in eq.evaluation.J.items() if pair in eq.evaluation.reachable
        }
        for eq in found
    }


def assert_same_classes(census, oracle, mode):
    """The census and the oracle find the same almost-sure classes: equal stop
    profiles on the reachable pairs and, per class, J on the same pairs.
    Exact mode compares J with ==, float mode within its tolerance: at
    discount 1 the two representatives may differ off the reachable pairs,
    so they solve different systems, which can round differently."""
    mine, theirs = reachable_classes(census), reachable_classes(oracle)
    if mode.exact:
        assert mine == theirs
        return
    assert mine.keys() == theirs.keys()
    for key, values in mine.items():
        assert values.keys() == theirs[key].keys()
        assert all(mode.eq(value, theirs[key][pair]) for pair, value in values.items())


def one_way_out_model():
    """A single domain state whose every transition leaves the domain."""
    return MarkovModel(
        states=(0, 1),
        initial=1,
        transitions={0: {0: F(1)}, 1: {0: F(1)}},
        domain=frozenset({1}),
        payoff={1: F(3)},
        discount=F(1, 2),
    )


class TestPeriodicMarkovPolicy:
    def test_region_cycles_through_phases(self):
        policy = PeriodicMarkovPolicy(2, (frozenset({0, 1}), frozenset({0})))
        assert policy.regions == ({0, 1}, {0})
        assert policy.stops(5, 0) and not policy.stops(5, 1)
        assert policy.stops(4, 1) and not policy.stops(3, 1)

    def test_period_must_match_regions(self):
        with pytest.raises(PolicyError):
            PeriodicMarkovPolicy(2, (frozenset({0}),))
        with pytest.raises(PolicyError):
            PeriodicMarkovPolicy(0, ())

    def test_on_tree(self):
        model = two_state_model()
        tree = unroll(model, 2)
        policy = PeriodicMarkovPolicy(2, (frozenset({0, 1, 2}), frozenset({0, 2})))
        bits = policy.on_tree(tree)
        assert bits.bit("1") == 1  # phase 0, state 1
        assert bits.bit("1/1") == 0 and bits.bit("1/2") == 1  # phase 1
        assert bits.bit("1/1/1") == 1  # phase 0 again
        assert bits.bit("1/!") == 1  # out-of-domain atoms always stop

    def test_on_tree_requires_states(self):
        from condstop.catalog import binomial_tree

        with pytest.raises(PolicyError):
            region_policy(0).on_tree(binomial_tree())

    def test_regions_must_cover_pinned_states(self):
        model = two_state_model()
        with pytest.raises(PolicyError):
            evaluate(model, region_policy(1, 2))  # missing exit state 0


class TestReachablePairs:
    def test_two_state(self):
        model = two_state_model()
        assert reachable_pairs(model, 2) == {(0, 1), (0, 2), (1, 1), (1, 2)}

    def test_minnie_donald_alternates(self):
        model = minnie_donald_model()
        # States 1 and 2 strictly alternate (1 at even times, 2 at odd),
        # while the absorbing sinks 3 and 4 persist through every phase.
        expected = {(phase, x) for phase in range(4) for x in (3, 4)}
        expected |= {(0, 1), (2, 1), (1, 2), (3, 2)}
        assert reachable_pairs(model, 4) == expected
        assert reachable_pairs(model, 1) == {(0, 1), (0, 2), (0, 3), (0, 4)}


class TestEvaluate:
    def test_stop_everywhere_tables(self):
        model = two_state_model()
        ev = evaluate(model, region_policy(0, 1, 2))
        assert ev.h[(0, 1)] == F(33, 50)
        assert ev.p[(0, 1)] == F(2, 3)
        assert ev.J[(0, 1)] == F(99, 100)

    def test_stop_at_rich_state_tables(self):
        model = two_state_model()
        ev = evaluate(model, region_policy(0, 2))
        assert ev.h[(0, 1)] == F(18, 35)
        assert ev.p[(0, 1)] == F(1, 2)
        assert ev.J[(0, 1)] == F(36, 35)
        assert ev.J[(0, 2)] == F(36, 35)

    def test_never_stopping_is_inadmissible(self):
        model = two_state_model()
        with pytest.raises(InadmissiblePolicyError) as err:
            evaluate(model, region_policy(0))
        assert "almost surely leaves the domain" in err.value.result.reason

    def test_zero_domain_successor_mass(self):
        model = one_way_out_model()
        with pytest.raises(InadmissiblePolicyError) as err:
            evaluate(model, region_policy(0))
        assert "every transition leaves the domain" in err.value.result.reason

    def test_requires_infinite_horizon(self):
        model = random_markov_model(random.Random(1), horizon=3)
        with pytest.raises(ModelError):
            evaluate(model, region_policy(*model.states))

    def test_one_step_identities(self):
        # h, p and the one-step recursions they must satisfy, on random
        # chains and random periodic policies.
        rng = random.Random(20240818)
        checked = 0
        while checked < 10:
            model = random_markov_model(rng)
            policy = random_periodic_policy(rng, model, rng.randint(1, 3))
            try:
                ev = evaluate(model, policy)
            except InadmissiblePolicyError:
                continue
            delta = model.discount
            for (phase, x), h_val in ev.h.items():
                nxt = (phase + 1) % policy.period
                h_expect = model.mode.zero
                p_expect = model.mode.zero
                for y, prob in model.transitions[x].items():
                    if y not in model.domain:
                        continue
                    if policy.stops(nxt, y):
                        h_expect += delta * prob * model.payoff[y]
                        p_expect += prob
                    else:
                        h_expect += delta * prob * ev.h[(nxt, y)]
                        p_expect += prob * ev.p[(nxt, y)]
                assert h_val == h_expect
                assert ev.p[(phase, x)] == p_expect
                if (phase, x) in ev.J:
                    assert ev.J[(phase, x)] == h_val / ev.p[(phase, x)]
            checked += 1

    def test_survival_matches_truncated_chain(self):
        # p must sit between the probability of stopping in-domain within T
        # steps and that plus the mass still undecided at T.
        model = two_state_model()
        for regions in [(0, 1, 2), (0, 2)]:
            policy = region_policy(*regions)
            p = evaluate(model, policy).p[(0, 1)]
            for horizon in range(1, 7):
                stopped, undecided = _survival_dp(model, policy, horizon)
                assert stopped <= p <= stopped + undecided
            stopped, undecided = _survival_dp(model, policy, 200, floats=True)
            assert undecided < 1e-12
            assert abs(float(p) - stopped) < 1e-12

    def test_survival_bounds_on_random_chains(self):
        rng = random.Random(99)
        checked = 0
        while checked < 6:
            model = random_markov_model(rng)
            policy = random_periodic_policy(rng, model, rng.randint(1, 2))
            try:
                p = evaluate(model, policy).p[(0, model.initial)]
            except InadmissiblePolicyError:
                continue
            for horizon in (1, 3, 5):
                stopped, undecided = _survival_dp(model, policy, horizon)
                assert stopped <= p <= stopped + undecided
            checked += 1


def _survival_dp(model, policy, horizon, floats=False):
    """(P(stop in-domain within `horizon` steps), P(still undecided)).

    Follows the chain from the initial state, diverting mass to 'stopped'
    the first time it sits in an in-domain state the policy stops at.
    """
    conv = float if floats else (lambda v: v)
    dist = {model.initial: conv(1)}
    stopped = conv(0)
    for t in range(1, horizon + 1):
        nxt = {}
        for x, mass in dist.items():
            for y, prob in model.transitions[x].items():
                if y not in model.domain:
                    continue
                flow = mass * conv(prob)
                if policy.stops(t, y):
                    stopped += flow
                else:
                    nxt[y] = nxt.get(y, conv(0)) + flow
        dist = nxt
    return stopped, sum(dist.values(), conv(0))


class TestTwoStateCensus:
    def test_exactly_two_equilibria(self):
        model = two_state_model()
        found = enumerate_periodic_equilibria(model, 1)
        assert len(found) == 2
        assert {eq.policy.regions[0] for eq in found} == set(
            two_state_equilibrium_regions()
        )
        assert {eq.evaluation.J[(0, 1)] for eq in found} == {F(99, 100), F(36, 35)}

    def test_census_is_preference_independent_without_ties(self):
        model = two_state_model()
        for preference in ("early", "late", "all", None):
            assert len(enumerate_periodic_equilibria(model, 1, preference)) == 2

    def test_stop_at_poor_state_only_fails(self):
        model = two_state_model()
        result = is_periodic_equilibrium(model, region_policy(0, 1))
        assert not result
        assert any("state 2" in d for d in result.deviations)
        assert evaluate(model, region_policy(0, 1)).J[(0, 2)] == F(6, 7)

    def test_census_outside_the_two_equilibrium_interval(self):
        # Below (3 - delta)/(2*delta) only stop-everywhere survives; above
        # (2 - delta)/delta only the rich-state policy does.
        low = two_state_model(a=F(11, 10))
        (only,) = enumerate_periodic_equilibria(low, 1)
        assert only.policy.regions[0] == frozenset({0, 1, 2})
        high = two_state_model(a=F(2))
        (only,) = enumerate_periodic_equilibria(high, 1)
        assert only.policy.regions[0] == frozenset({0, 2})


class TestHistoryPolicy:
    def test_deviations_sit_on_the_last_free_level(self):
        horizon = 6
        tree = unroll(two_state_model(), horizon)
        policy = two_state_history_policy(tree)
        result = is_equilibrium(tree, policy)
        assert not result
        expected = {
            atom.id
            for atom in tree.levels[horizon - 1]
            if atom.in_domain and atom.state == 1 and atom.id.startswith("1/2/")
        }
        assert expected  # the pattern really owns atoms at that level
        assert set(result.deviations) == expected

    def test_is_not_a_region_policy(self):
        # Two level-2 atoms in the same state carry different bits, so no
        # (time, state) region family reproduces the pattern.
        tree = unroll(two_state_model(), 4)
        policy = two_state_history_policy(tree)
        assert policy.bit("1/2/1") == 0
        assert policy.bit("1/1/1") == 1


class TestPhiMarkov:
    def test_advances_the_region_cycle(self):
        model = minnie_donald_model()
        regions = minnie_donald_cycle_regions()
        for n in range(1, 5):
            stepped = phi_markov(model, minnie_donald_homogeneous_policy(n))
            assert stepped.regions[0] == regions[n % 4]

    def test_forced_exit_state_must_stop(self):
        model = one_way_out_model()
        stepped = phi_markov(model, region_policy(0, 1))
        assert stepped.regions[0] == {0, 1}

    def test_keeps_bits_at_unreachable_dead_pairs(self):
        # State 2 is in-domain but unreachable, and under continue-at-2 the
        # chain a.s. leaves the domain from there before any stop (q = 1, so
        # p = 0): phi keeps the bit rather than inventing a comparison.
        model = MarkovModel(
            states=(0, 1, 2),
            initial=1,
            transitions={
                0: {0: F(1)},
                1: {1: F(1, 2), 0: F(1, 2)},
                2: {2: F(1, 2), 0: F(1, 2)},
            },
            domain=frozenset({1, 2}),
            payoff={1: F(1), 2: F(5)},
            discount=F(9, 10),
        )
        policy = region_policy(0, 1)  # continues forever at unreachable 2
        stepped = phi_markov(model, policy)
        assert 2 not in stepped.regions[0]
        # Stopping at 2 gives the pair positive survival (p = 1/2 after the
        # one-step extension), so there phi compares and keeps the stop.
        stepped = phi_markov(model, region_policy(0, 1, 2))
        assert 2 in stepped.regions[0]

    def test_stops_at_unreachable_dead_ends(self):
        # Every transition from state 2 leaves the domain; it is unreachable
        # from the absorbing initial state 1, so continuing there is admissible
        # and has no J, yet the best response stops.
        model = MarkovModel(
            states=(0, 1, 2),
            initial=1,
            transitions={0: {0: F(1)}, 1: {1: F(1)}, 2: {0: F(1)}},
            domain=frozenset({1, 2}),
            payoff={1: F(1), 2: F(5)},
            discount=F(9, 10),
        )
        assert (0, 2) not in evaluate(model, region_policy(0)).J
        assert phi_markov(model, region_policy(0)) == region_policy(0, 1, 2)

    def test_keeps_either_bit_on_an_exact_tie(self):
        # At state 1, stopping pays 1 and continuing to the stop at 2 pays
        # 1/2 * 2 = 1.
        model = MarkovModel(
            states=(0, 1, 2),
            initial=1,
            transitions={0: {0: F(1)}, 1: {2: F(1)}, 2: {2: F(1)}},
            domain=frozenset({1, 2}),
            payoff={1: F(1), 2: F(2)},
            discount=F(1, 2),
        )
        for policy in (region_policy(0, 2), region_policy(0, 1, 2)):
            assert evaluate(model, policy).J[(0, 1)] == F(1)
            assert phi_markov(model, policy) == policy


class TestMinnieDonaldCensus:
    def test_no_time_homogeneous_equilibrium(self):
        assert enumerate_periodic_equilibria(minnie_donald_model(), 1) == []

    def test_two_period_four_equilibria(self):
        model = minnie_donald_model()
        found = enumerate_periodic_equilibria(model, 4)
        assert len(found) == 2
        reachable = reachable_pairs(model, 4)
        references = [minnie_donald_periodic_policy(k) for k in (1, 2)]
        profiles = [
            frozenset(pair for pair in reachable if eq.policy.stops(*pair))
            for eq in found
        ]
        expected = [
            frozenset(pair for pair in reachable if ref.stops(*pair))
            for ref in references
        ]
        assert set(profiles) == set(expected)
        # The two equilibria are complementary on the free reachable pairs.
        free = {(0, 1), (1, 2), (2, 1), (3, 2)}
        assert profiles[0] ^ profiles[1] == free

    def test_schedule_shifts_are_deduplicated(self):
        model = minnie_donald_model()
        reachable = reachable_pairs(model, 4)
        k1, k4 = minnie_donald_periodic_policy(1), minnie_donald_periodic_policy(4)
        assert all(k1.stops(*pair) == k4.stops(*pair) for pair in reachable)
        assert k1.regions != k4.regions
        assert is_periodic_equilibrium(model, k1)
        assert is_periodic_equilibrium(model, k4)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            enumerate_periodic_equilibria(minnie_donald_model(), 4, size_guard=4)

    def test_size_guard_counts_reachable_slots(self):
        # Period 6 has 12 free (phase, state) pairs but only 6 reachable ones.
        # The search over those makes 28 nodes, the smallest guard that answers.
        model = minnie_donald_model()
        unguarded = enumerate_periodic_equilibria(model, 6)
        assert enumerate_periodic_equilibria(model, 6, size_guard=28) == unguarded
        with pytest.raises(SizeGuardError) as err:
            enumerate_periodic_equilibria(model, 6, size_guard=27)
        assert (err.value.required, err.value.guard) == (28, 27)

    def test_unknown_preference(self):
        with pytest.raises(PolicyError):
            enumerate_periodic_equilibria(two_state_model(), 1, "sideways")


def rotations(reachable, period):
    """The phase shifts r in 1..period-1 that map the reachable pairs onto
    themselves: (k, x) is reachable iff (k + r mod period, x) is."""
    return [
        r for r in range(1, period)
        if {((k + r) % period, x) for k, x in reachable} == reachable
    ]


class TestPhaseRotations:
    """The chain is time-homogeneous, so a policy rotated by r phases is the
    policy started r steps later, and its J at (k, x) is the original's at
    (k + r, x).  Where the shift keeps the reachable pairs, census survivors
    are therefore closed under it.  The check shares no code with the
    census's pruning."""

    @staticmethod
    def check(model, period, preference):
        """The shifts that keep the reachable pairs, and how many (survivor,
        shift) pairs move the survivor to another one."""
        reachable = reachable_pairs(model, period)
        profiles = {
            frozenset(pair for pair in reachable if eq.policy.stops(*pair)): eq
            for eq in enumerate_periodic_equilibria(model, period, preference)
        }
        shifts, moved = rotations(reachable, period), 0
        for r in shifts:
            for profile, eq in profiles.items():
                rotated = frozenset(((k - r) % period, x) for k, x in profile)
                assert rotated in profiles
                moved += rotated != profile
                if model.mode.exact:
                    J = profiles[rotated].evaluation.J
                    assert all(
                        J[(k, x)] == eq.evaluation.J[((k + r) % period, x)]
                        for k, x in reachable if (k, x) in J
                    )
        return shifts, moved

    @pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
    @pytest.mark.parametrize("preference", [None, "early", "late"])
    def test_random_chains(self, mode, preference):
        rng = random.Random(12)
        shifts = 0
        for _ in range(12):
            model = load_model(dump_model(random_markov_model(rng, rng.randint(2, 4))), mode)
            for period in (2, 3):
                shifts += len(self.check(model, period, preference)[0])
        assert shifts >= 12

    @pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
    @pytest.mark.parametrize("preference", [None, "early", "late"])
    def test_minnie_donald(self, mode, preference):
        # At a = 473/500 the equilibria of periods 3 and 6 are one three-phase cycle.
        moved = 0
        for a in (F(24, 25), F(473, 500)):
            model = minnie_donald_model(a=a, mode=mode)
            for period in (2, 3, 4, 6, 8):
                moved += self.check(model, period, preference)[1]
        assert moved == 18

    def test_minnie_donalds_period_four_equilibria_are_one_orbit(self):
        model = minnie_donald_model()
        reachable = reachable_pairs(model, 4)
        assert self.check(model, 4, None) == ([2], 2)
        first, second = (
            frozenset(pair for pair in reachable if eq.policy.stops(*pair))
            for eq in enumerate_periodic_equilibria(model, 4)
        )
        assert frozenset(((k - 2) % 4, x) for k, x in first) == second


def absorbing_trap_model(reach_trap):
    """Discount 1, exit state 0, and state 2 an absorbing self-loop.

    From state 1 the chain exits or moves to the trap with `reach_trap`, and
    exits or stays at 1 otherwise (the trap is then unreachable).
    """
    row = {0: F(1, 2), 2: F(1, 2)} if reach_trap else {0: F(1, 2), 1: F(1, 2)}
    return MarkovModel(
        states=(0, 1, 2),
        initial=1,
        transitions={0: {0: F(1)}, 1: row, 2: {2: F(1)}},
        domain=frozenset({1, 2}),
        payoff={1: F(1), 2: F(2)},
        discount=F(1),
    )


class TestDiscountOneCensus:
    def test_reachable_trap_only_knocks_out_its_candidates(self):
        # Continuing at the reachable trap never stops; those candidates are
        # skipped, and the census continues at 1 to collect 2 at the trap.
        model = absorbing_trap_model(reach_trap=True)
        (only,) = enumerate_periodic_equilibria(model, 1)
        assert only.policy.regions == (frozenset({0, 2}),)
        assert only.evaluation.J == {(0, 1): F(2), (0, 2): F(2)}

    def test_unreachable_trap_stops(self):
        model = absorbing_trap_model(reach_trap=False)
        (only,) = enumerate_periodic_equilibria(model, 1)
        assert only.policy.regions == (frozenset({0, 1, 2}),)
        assert only.evaluation.J[(0, 1)] == F(1)  # a tie: stopping is kept
        assert enumerate_periodic_equilibria(model, 1, "late") == []


def _differential_chains():
    rng = random.Random(20240819)
    return [random_markov_model(rng, n_states=rng.randint(2, 3)) for _ in range(16)]


class TestCensusAgainstExhaustiveOracle:
    @pytest.mark.parametrize("preference", [None, "early", "late"])
    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_random_chains(self, period, preference):
        for model in _differential_chains():
            assert enumerate_periodic_equilibria(
                model, period, preference
            ) == exhaustive_periodic_equilibria(model, period, preference)

    @pytest.mark.parametrize("period", [1, 2, 3, 4])
    def test_minnie_donald(self, period):
        model = minnie_donald_model()
        for preference in (None, "early", "late"):
            assert enumerate_periodic_equilibria(
                model, period, preference
            ) == exhaustive_periodic_equilibria(model, period, preference)

    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_random_chains_at_discount_one(self, period):
        # Representatives may differ off the reachable pairs, where the
        # oracle can find a smaller mask that continues at a trap.
        for base in _differential_chains():
            model = dataclasses.replace(base, discount=F(1))
            for preference in (None, "early", "late"):
                assert reachable_classes(
                    enumerate_periodic_equilibria(model, period, preference)
                ) == reachable_classes(exhaustive_periodic_equilibria(model, period, preference))


def _float_chain(model):
    return load_model(dump_model(model), mode=float_mode())


class TestFloatCensusAgainstExhaustiveOracle:
    # Candidates are judged on the systems restricted to the reachable pairs,
    # where float results could drift from the oracle's full systems.
    @pytest.mark.parametrize("preference", [None, "early", "late"])
    @pytest.mark.parametrize("period", [1, 2])
    def test_random_chains(self, period, preference):
        for model in map(_float_chain, _differential_chains()):
            assert enumerate_periodic_equilibria(
                model, period, preference
            ) == exhaustive_periodic_equilibria(model, period, preference)

    @pytest.mark.parametrize("period", [1, 2])
    def test_minnie_donald(self, period):
        model = minnie_donald_model(mode=float_mode())
        for preference in (None, "early", "late"):
            assert enumerate_periodic_equilibria(
                model, period, preference
            ) == exhaustive_periodic_equilibria(model, period, preference)

    @pytest.mark.parametrize("period", [1, 2])
    def test_random_chains_at_discount_one(self, period):
        for base in _differential_chains():
            model = _float_chain(dataclasses.replace(base, discount=F(1)))
            for preference in (None, "early", "late"):
                assert_same_classes(
                    enumerate_periodic_equilibria(model, period, preference),
                    exhaustive_periodic_equilibria(model, period, preference),
                    model.mode,
                )


def forced_stop_chain():
    """Forced state 2 pays 0, but continuing there is worth J = 9."""
    return MarkovModel(
        states=(0, 1, 2, 3),
        initial=1,
        transitions={
            0: {0: F(1)},
            1: {1: F(1, 2), 2: F(1, 2)},
            2: {3: F(1, 2), 0: F(1, 2)},
            3: {3: F(1)},
        },
        domain=frozenset({1, 2, 3}),
        forced_stop=frozenset({2, 3}),
        payoff={1: F(1), 2: F(0), 3: F(10)},
        discount=F(9, 10),
    )


def with_random_forced_stops(rng, model):
    forced = frozenset(x for x in sorted(model.domain) if rng.random() < 0.5)
    return dataclasses.replace(model, forced_stop=forced)


class TestForcedStopsNeverDeviate:
    def test_census_returns_the_fixed_point_of_phi(self):
        model = forced_stop_chain()
        stop_everywhere = region_policy(0, 1, 2, 3)
        assert evaluate(model, stop_everywhere).J[(0, 2)] == F(9)
        assert phi_markov(model, stop_everywhere) == stop_everywhere
        for preference in (None, "early", "late"):
            found = enumerate_periodic_equilibria(model, 1, preference)
            assert [eq.policy for eq in found] == [stop_everywhere]

    def test_equilibrium_check_passes(self):
        result = is_periodic_equilibrium(forced_stop_chain(), region_policy(0, 1, 2, 3))
        assert result.equilibrium and result.deviations == ()

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32),
        period=st.integers(1, 2),
        preference=st.sampled_from(["all", "early", "late"]),
        discount_one=st.booleans(),
    )
    def test_census_equals_the_oracle(self, seed, period, preference, discount_one):
        rng = random.Random(seed)
        model = with_random_forced_stops(rng, random_markov_model(rng, n_states=rng.randint(2, 4)))
        if discount_one:
            model = dataclasses.replace(model, discount=F(1))
        assert reachable_classes(
            enumerate_periodic_equilibria(model, period, preference)
        ) == reachable_classes(exhaustive_periodic_equilibria(model, period, preference))

    @settings(max_examples=150, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32), period=st.integers(1, 2))
    def test_equilibrium_check_is_a_fixed_point_of_phi(self, seed, period):
        rng = random.Random(seed)
        model = with_random_forced_stops(rng, random_markov_model(rng, n_states=rng.randint(2, 4)))
        policy = random_periodic_policy(rng, model, period)
        try:
            reachable = evaluate(model, policy).reachable
        except PolicyError:
            fixed = False
        else:
            updated = phi_markov(model, policy)
            fixed = all(updated.stops(*pair) == policy.stops(*pair) for pair in reachable)
        assert is_periodic_equilibrium(model, policy).equilibrium == fixed


def reach_traps(model):
    """Oracle for `infinite._traps` at discount 1: the free states from which
    no positive transition path reaches an exit or a forced-stop state."""
    pinned = model.exit_states | model.forced_stop
    traps = set()
    for x in model.domain - model.forced_stop:
        seen, frontier = {x}, [x]
        while frontier:
            for y, prob in model.transitions[frontier.pop()].items():
                if prob > 0 and y not in seen:
                    seen.add(y)
                    frontier.append(y)
        if not seen & pinned:
            traps.add(x)
    return traps


def census_policy(rng, model, period):
    """Random bits on the reachable free slots and the census base elsewhere:
    stop at unreachable pairs of discount-1 traps, continue at the others."""
    reachable = reachable_pairs(model, period)
    free = {x for x in model.domain if x not in model.forced_stop}
    pinned = model.exit_states | model.forced_stop
    traps = reach_traps(model) if model.discount == 1 else set()
    regions = []
    for phase in range(period):
        region = set(pinned)
        for x in model.states:
            if x not in free:
                continue
            if (phase, x) in reachable:
                if rng.random() < 0.5:
                    region.add(x)
            elif x in traps:
                region.add(x)
        regions.append(frozenset(region))
    return PeriodicMarkovPolicy(period, tuple(regions))


def _outcome(function, *args):
    try:
        return function(*args), None
    except (PolicyError, SingularSystemError) as exc:
        return None, (type(exc), str(exc))


def _recorded(monkeypatch, name):
    """Record the arguments of every call to `infinite.<name>`."""
    calls = []
    original = getattr(infinite, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(infinite, name, recorded)
    return calls


class TestCensusCore:
    def test_one_row_build_and_full_tables_only_for_survivors(self, monkeypatch):
        model, period = minnie_donald_model(), 4
        domain = len(infinite._domain_pairs(model, period))
        reachable = len(reachable_pairs(model, period))
        steps = _recorded(monkeypatch, "_steps")
        reach = _recorded(monkeypatch, "reachable_pairs")
        cores = _recorded(monkeypatch, "_evaluate")
        found = infinite.enumerate_periodic_equilibria(model, period)
        sizes = [len(args[3]) for args in cores]
        assert len(found) == 2 and reachable < domain
        assert len(steps) == len(reach) == 1
        assert sizes.count(domain) == len(found)
        # The pruned search evaluates 9 of the 2**4 candidates' policies.
        assert sizes.count(reachable) == len(sizes) - len(found) == 9 < 2**4

    @pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
    def test_exact_census_makes_no_solve_linear_call(self, monkeypatch, floats):
        model = minnie_donald_model(mode=float_mode()) if floats else minnie_donald_model()
        linear = _recorded(monkeypatch, "solve_linear")
        integer = _recorded(monkeypatch, "solve_integer")
        assert len(enumerate_periodic_equilibria(model, 4)) == 2
        assert (bool(linear), bool(integer)) == (floats, not floats)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32),
        period=st.integers(1, 3),
        discount_one=st.booleans(),
    )
    def test_reachable_core_agrees_with_evaluate(self, seed, period, discount_one):
        rng = random.Random(seed)
        model = random_markov_model(rng, n_states=rng.randint(2, 4))
        if discount_one:
            model = dataclasses.replace(model, discount=F(1))
            policy = census_policy(rng, model, period)
        else:
            policy = random_periodic_policy(rng, model, period)
        reachable = reachable_pairs(model, period)
        pairs = [pair for pair in infinite._domain_pairs(model, period) if pair in reachable]
        steps = infinite._steps(model, pairs, period)
        continuing = {pair for pair in pairs if not policy.stops(*pair)}

        def reachable_core():
            numerators = infinite._evaluate(model, steps, continuing, pairs, reachable)
            return infinite._tables(model, period, numerators, reachable)

        part, part_error = _outcome(reachable_core)
        full, full_error = _outcome(evaluate, model, policy)
        assert part_error == full_error
        if full is None:
            return
        assert set(part.h) == set(part.p) == reachable
        for pair in reachable:
            assert part.h[pair] == full.h[pair]
            assert part.p[pair] == full.p[pair]
            assert part.J.get(pair) == full.J.get(pair)

    @pytest.mark.parametrize(
        "period, nodes", [(1, 4), (2, 4), (3, 22), (4, 11), (5, 78), (6, 16)]
    )
    def test_minnie_donald_node_counts(self, monkeypatch, period, nodes):
        # Evaluations per census, survivors' full tables included.
        cores = _recorded(monkeypatch, "_evaluate")
        enumerate_periodic_equilibria(minnie_donald_model(), period)
        assert len(cores) == nodes

    @pytest.mark.parametrize("period, survivors", [(1, 0), (3, 0), (4, 2), (8, 2)])
    def test_rationals_only_for_survivors(self, monkeypatch, period, survivors):
        conversions = _recorded(monkeypatch, "_tables")
        assert len(enumerate_periodic_equilibria(minnie_donald_model(), period)) == survivors
        assert len(conversions) == survivors

    @pytest.mark.parametrize(
        "model, period, reads",
        [(minnie_donald_model, 4, 34), (minnie_donald_model, 5, 295), (two_state_model, 6, 99)],
    )
    def test_response_reads_per_census(self, monkeypatch, model, period, reads):
        # A node reads the best response at its newly final pairs and its
        # next slot only; checking every final pair at every node read
        # 150, 1,845 and 154.
        calls = _recorded(monkeypatch, "_response")
        enumerate_periodic_equilibria(model(), period)
        assert len(calls) == reads

    def test_no_numerators_at_forced_stops_of_non_survivors(self, monkeypatch):
        # `_response` answers a forced stop without reading its numerators,
        # so only a survivor's conversion to tables forms them.
        evaluated, original = [], infinite._evaluate

        def recorded(*args):
            evaluated.append((args[0], original(*args)))
            return evaluated[-1][1]

        monkeypatch.setattr(infinite, "_evaluate", recorded)
        conversions = _recorded(monkeypatch, "_tables")
        rng = random.Random(5)
        for _ in range(8):
            model = with_random_forced_stops(rng, random_markov_model(rng, n_states=4))
            for period in (1, 2):
                enumerate_periodic_equilibria(model, period)
        converted = {id(args[2]) for args in conversions}
        formed = unformed = 0
        for model, numerators in evaluated:
            forced = [pair for pair in numerators.pairs if pair[1] in model.forced_stop]
            if id(numerators) in converted:
                formed += all(pair in numerators for pair in forced)
            else:
                assert not any(pair in numerators for pair in forced)
                unformed += len(forced)
        assert formed == len(converted) > 0 and unformed > 0


def _same_scalar(a, b):
    """Equal Fractions, or floats with the same bits (so 0.0 is not -0.0)."""
    if type(a) is float and type(b) is float:
        return a.hex() == b.hex()
    return type(a) is type(b) is F and a == b


def census_traps(model):
    """The census's discount-1 traps as the state-level fixed point: free
    states that reach neither a forced stop nor an exit through free states."""
    free = [x for x in model.states if x in model.domain and x not in model.forced_stop]
    split = model._split
    ends = {
        x for x in free if split[x][1] > 0 or any(y in model.forced_stop for y, _ in split[x][0])
    }
    return set(free) - closure_by_fixpoint(free, ends, lambda x: (y for y, _ in split[x][0]))


class TestCensusAgainstFullChecks:
    """The census, whose nodes carry their continuing and checked pairs and
    form stopping pairs' numerators when read, against the node loop that
    rescanned every reached pair at every node (`census_oracles`)."""

    @settings(max_examples=120, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32),
        n_states=st.integers(2, 5),
        period=st.integers(1, 3),
        preference=st.sampled_from([None, "all", "early", "late"]),
        floats=st.booleans(),
        discount_one=st.booleans(),
        forced=st.booleans(),
        rich=st.booleans(),
        guard=st.one_of(st.none(), st.integers(1, 40)),
    )
    def test_same_survivors_tables_and_guard(
        self, seed, n_states, period, preference, floats, discount_one, forced, rich, guard
    ):
        assume(n_states < 5 or period < 3)
        rng = random.Random(seed)
        model = random_markov_model(rng, n_states=n_states)
        if forced:
            model = with_random_forced_stops(rng, model)
        free = [x for x in model.states if x in model.domain and x not in model.forced_stop]
        if rich and free:  # a dominant state: its payoff beats every J it can face
            top = max(abs(value) for value in model.payoff.values())
            model = dataclasses.replace(model, payoff={**model.payoff, rng.choice(free): 2 * top + 1})
        if discount_one:
            model = dataclasses.replace(model, discount=F(1))
        if floats:
            model = _float_chain(model)

        def outcome(census):
            try:
                return census(model, period, preference, guard), None
            except SizeGuardError as exc:
                return None, (exc.required, exc.guard)
            except SingularSystemError as exc:
                return None, str(exc)

        mine, mine_error = outcome(enumerate_periodic_equilibria)
        theirs, theirs_error = outcome(census_by_full_checks)
        assert mine_error == theirs_error
        if theirs is None:
            return
        assert [eq.policy for eq in mine] == [eq.policy for eq in theirs]
        for got, expected in zip(mine, theirs):
            assert got.evaluation.reachable == expected.evaluation.reachable
            for table in ("h", "p", "J"):
                ours, oracle = getattr(got.evaluation, table), getattr(expected.evaluation, table)
                assert list(ours) == list(oracle)
                assert all(_same_scalar(ours[pair], oracle[pair]) for pair in ours)


class TestNodeEvaluationAgainstFractionOracle:
    """At every node a random census evaluates, `_evaluate` against the
    `Fraction`-table evaluation it replaced, and the node's bookkeeping
    against the fixed-point closure it replaced (`census_oracles`)."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32),
        period=st.integers(1, 3),
        discount_one=st.booleans(),
        floats=st.booleans(),
    )
    def test_every_node_matches(self, seed, period, discount_one, floats):
        rng = random.Random(seed)
        model = random_markov_model(rng, n_states=rng.randint(2, 5))
        model = with_random_forced_stops(rng, model)
        if discount_one:
            model = dataclasses.replace(model, discount=F(1))
        if floats:
            model = _float_chain(model)
        must_stop = infinite._must_stop(model)
        traps = census_traps(model) if model.mode.eq(model.discount, 1) else set()
        free = model.domain - model.forced_stop
        nodes, calls = [], []
        evaluate_node, closure, settled = infinite._evaluate, infinite._closure, infinite._settled

        def successors(steps):
            return lambda pair: (step[0] for step in steps[pair][0])

        def checked(model, steps, continuing, pairs, reachable):
            nodes.append(pairs)
            for phase, x in pairs:
                if x in free and (phase, x) not in reachable:
                    assert ((phase, x) not in continuing) == (x in traps)
            policy = PeriodicMarkovPolicy(period, tuple(
                frozenset(x for x in model.states if (phase, x) not in continuing)
                for phase in range(period)
            ))
            expected, expected_error = _outcome(
                evaluate_by_fractions, model, policy, pairs, reachable
            )
            try:
                got = evaluate_node(model, steps, continuing, pairs, reachable)
            except (PolicyError, SingularSystemError) as exc:
                assert (type(exc), str(exc)) == expected_error
                raise
            assert expected_error is None
            tables = infinite._tables(model, period, got, reachable)
            for table in ("h", "p", "J"):
                mine, theirs = getattr(tables, table), getattr(expected, table)
                assert list(mine) == list(theirs)
                assert all(_same_scalar(mine[pair], theirs[pair]) for pair in mine)
            for pair in pairs:
                assert infinite._response(model, got, pair, must_stop) == response_by_tables(
                    model, expected, pair, must_stop
                )
            return got

        def checked_closure(members, seeds, steps):
            calls.append(seeds)
            got = closure(members, seeds, steps)
            assert got == closure_by_fixpoint(list(members), seeds, successors(steps))
            return got

        def checked_settled(steps, reached, continuing, unassigned):
            got = settled(steps, reached, continuing, unassigned)
            after = successors(steps)
            unsettled = closure_by_fixpoint(list(continuing), unassigned, after)
            assert got == {pair for pair in reached if not any(s in unsettled for s in after(pair))}
            return got

        # A float system that rounding makes singular raises in both.
        with mock.patch.multiple(
            infinite, _evaluate=checked, _closure=checked_closure, _settled=checked_settled
        ), suppress(SingularSystemError):
            enumerate_periodic_equilibria(model, period)
        assert nodes and calls


def tie_chain():
    """State 1 stays, moves to the forced stop 2 or exits; both pay 1, so at
    discount 1 its J is 1 and either bit is a best response."""
    return MarkovModel(
        states=(0, 1, 2),
        initial=1,
        transitions={0: {0: F(1)}, 1: {1: F(1, 2), 2: F(1, 4), 0: F(1, 4)}, 2: {2: F(1)}},
        domain=frozenset({1, 2}),
        forced_stop=frozenset({2}),
        payoff={1: F(1), 2: F(1)},
        discount=F(1),
    )


class TestPrunedCensus:
    """The depth-first census finds what the exhaustive oracle finds, in the
    same order, with far fewer evaluations than 2**slots."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32),
        n_states=st.integers(2, 4),
        period=st.integers(1, 3),
        preference=st.sampled_from(["all", "early", "late"]),
        forced=st.booleans(),
        floats=st.booleans(),
        discount_one=st.booleans(),
        flat=st.booleans(),
    )
    # At float discount 1 these J differ from the oracle's in the last bit.
    @example(seed=253, n_states=3, period=2, preference="all", forced=False, floats=True,
             discount_one=True, flat=False)
    @example(seed=253, n_states=3, period=2, preference="all", forced=False, floats=True,
             discount_one=True, flat=True)
    def test_census_equals_the_oracle(
        self, seed, n_states, period, preference, forced, floats, discount_one, flat
    ):
        assume(n_states < 4 or period < 3)
        rng = random.Random(seed)
        model = random_markov_model(rng, n_states=n_states)
        if forced:
            model = with_random_forced_stops(rng, model)
        if discount_one:
            model = dataclasses.replace(model, discount=F(1))
        if flat:  # at discount 1, J = 1 wherever it exists: every bit ties
            model = dataclasses.replace(model, payoff=dict.fromkeys(model.payoff, F(1)))
        if floats:
            model = _float_chain(model)
        census = enumerate_periodic_equilibria(model, period, preference)
        oracle = exhaustive_periodic_equilibria(model, period, preference)
        if discount_one:
            assert_same_classes(census, oracle, model.mode)
        else:
            assert census == oracle

    @pytest.mark.parametrize("preference", [None, "early", "late"])
    def test_minnie_donald_period_five(self, monkeypatch, preference):
        model = minnie_donald_model()
        cores = _recorded(monkeypatch, "_evaluate")
        assert enumerate_periodic_equilibria(model, 5, preference) == []
        # 78 of 2**10: without the early-deviation check it takes 85.
        assert len(cores) == 78
        assert exhaustive_periodic_equilibria(model, 5, preference) == []

    def test_nothing_below_a_failed_evaluation_is_evaluated(self, monkeypatch):
        # Continuing at more slots cannot repair a failed evaluation, so no
        # policy is evaluated whose reachable stops lie inside those of a
        # policy that already failed.
        outcomes = []
        original = infinite._evaluate

        def recorded(model, rows, continuing, pairs, reachable):
            stops = reachable - continuing
            try:
                result = original(model, rows, continuing, pairs, reachable)
            except PolicyError:
                outcomes.append((stops, False))
                raise
            outcomes.append((stops, True))
            return result

        monkeypatch.setattr(infinite, "_evaluate", recorded)
        failures = 0
        for base in _differential_chains():
            model = dataclasses.replace(base, discount=F(1))
            for period in (1, 2, 3):
                outcomes.clear()
                enumerate_periodic_equilibria(model, period)
                failed = []
                for stops, ok in outcomes:
                    assert not any(stops <= other for other in failed)
                    if not ok:
                        failed.append(stops)
                failures += len(failed)
        assert failures > 0

    def test_ties_branch_unless_a_preference_picks_a_bit(self):
        model = tie_chain()
        stop, go = frozenset({0, 1, 2}), frozenset({0, 2})

        def regions(period, preference):
            found = enumerate_periodic_equilibria(model, period, preference)
            return [eq.policy.regions for eq in found]

        assert regions(1, None) == [(go,), (stop,)]
        assert regions(2, None) == [(go, go), (stop, go), (go, stop), (stop, stop)]
        for period in (1, 2):
            assert regions(period, "early") == [(stop,) * period]
            assert regions(period, "late") == [(go,) * period]

    def test_minnie_donald_period_seven_in_a_few_evaluations(self, monkeypatch):
        cores = _recorded(monkeypatch, "_evaluate")
        assert enumerate_periodic_equilibria(minnie_donald_model(), 7) == []
        assert len(cores) < 2**14 // 50


def dominant_states(model):
    """Free states whose payoff beats discount * max(0, payoff(y)) over the
    domain states y they reach by in-domain steps, a bound on every J there."""
    dominant = set()
    for x in model.domain - model.forced_stop:
        seen, frontier = set(), [x]
        while frontier:
            for y, prob in model.transitions[frontier.pop()].items():
                if prob > 0 and y in model.domain and y not in seen:
                    seen.add(y)
                    frontier.append(y)
        best = max([0] + [model.payoff[y] for y in seen])
        if model.mode.compare(model.payoff[x], model.discount * best) > 0:
            dominant.add(x)
    return dominant


class TestDominantStates:
    """A free state whose payoff beats every continuation value it can face
    stops at each reachable phase of every equilibrium, so the census takes
    it out of the search."""

    @settings(max_examples=120, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32),
        n_states=st.integers(2, 4),
        period=st.integers(1, 2),
        preference=st.sampled_from(["all", "early", "late"]),
        forced=st.booleans(),
        rich=st.booleans(),
        floats=st.booleans(),
        discount_one=st.booleans(),
    )
    def test_every_equilibrium_stops_at_dominant_states(
        self, seed, n_states, period, preference, forced, rich, floats, discount_one
    ):
        rng = random.Random(seed)
        model = random_markov_model(rng, n_states=n_states)
        if forced:
            model = with_random_forced_stops(rng, model)
        free = [x for x in model.states if x in model.domain and x not in model.forced_stop]
        rich = rich and bool(free)
        if rich:  # above discount * every payoff, its own included
            x = rng.choice(free)
            top = max(abs(value) for value in model.payoff.values())
            model = dataclasses.replace(model, payoff={**model.payoff, x: 2 * top + 1})
        if discount_one:
            model = dataclasses.replace(model, discount=F(1))
        if floats:
            model = _float_chain(model)
        dominant = dominant_states(model)
        assert infinite._dominant(model, free) == dominant
        if rich and not discount_one:
            assert x in dominant
        oracle = exhaustive_periodic_equilibria(model, period, preference)
        for eq in oracle:
            for phase, y in eq.evaluation.reachable:
                assert y not in dominant or eq.policy.stops(phase, y)
        census = enumerate_periodic_equilibria(model, period, preference)
        if discount_one:
            assert_same_classes(census, oracle, model.mode)
        else:
            assert census == oracle

    @pytest.mark.parametrize("period, calls", [(5, 6), (6, 7)])
    def test_two_state_in_a_few_evaluations(self, monkeypatch, period, calls):
        # State 2 pays 6/5, above 9/10 * 6/5, so only the slots of state 1
        # stay open; with state 2's slots open too it took 366 and 1,095.
        # Every domain pair is reachable, so no survivor is evaluated twice.
        model = two_state_model()
        assert infinite._dominant(model, [1, 2]) == {2}
        cores = _recorded(monkeypatch, "_evaluate")
        found = enumerate_periodic_equilibria(model, period)
        assert len(found) == 2 and len(cores) == calls
        assert all(eq.policy.stops(phase, 2) for eq in found for phase in range(period))

    def test_size_guard_counts_open_slots(self):
        # The search over the 6 open slots makes 28 nodes; period 24, with
        # 24 open slots, answers within the default guard.
        model = two_state_model()
        unguarded = enumerate_periodic_equilibria(model, 6)
        assert enumerate_periodic_equilibria(model, 6, size_guard=28) == unguarded
        with pytest.raises(SizeGuardError) as err:
            enumerate_periodic_equilibria(model, 6, size_guard=27)
        assert (err.value.required, err.value.guard) == (28, 27)
        assert len(enumerate_periodic_equilibria(model, 24)) == 2

    def test_a_path_that_never_stops_counts_as_zero(self):
        # Both payoffs are negative and nothing exits: continuing forever is
        # worth J = 0, above -1 at state 1, so state 1 is not dominant.
        model = MarkovModel(
            states=(1, 2),
            initial=1,
            transitions={1: {2: F(1)}, 2: {2: F(1)}},
            domain=frozenset({1, 2}),
            payoff={1: F(-1), 2: F(-5)},
            discount=F(1, 2),
        )
        assert infinite._dominant(model, [1, 2]) == set()
        (only,) = enumerate_periodic_equilibria(model, 1)
        assert only.policy.regions == (frozenset(),)
        assert only.evaluation.J == {(0, 1): 0, (0, 2): 0}

    def test_minnie_donald_has_none(self, monkeypatch):
        model = minnie_donald_model()
        assert dominant_states(model) == set()
        cores = _recorded(monkeypatch, "_evaluate")
        assert len(enumerate_periodic_equilibria(model, 4)) == 2
        assert len(cores) == 9 + 2  # 9 search nodes, then each survivor on every pair


class TestPreferenceValidation:
    def test_equilibrium_check_rejects_unknown_preference(self):
        model = two_state_model()
        stop_everywhere = region_policy(0, 1, 2)
        assert is_periodic_equilibrium(model, stop_everywhere, "all")
        with pytest.raises(PolicyError, match="unknown preference 'sideways'"):
            is_periodic_equilibrium(model, stop_everywhere, "sideways")


class TestCheckGrowth:
    def test_two_state_reference_constant(self):
        model = two_state_model()
        assert check_growth(model, F(19, 18)) is True

    def test_fast_growth_with_positive_payoffs(self):
        assert check_growth(two_state_model(), F(2)) is False

    def test_constant_must_exceed_one(self):
        with pytest.raises(NumericError):
            check_growth(two_state_model(), F(1))

    def test_nonpositive_payoffs(self):
        base = dict(
            states=(0, 1, 2),
            initial=1,
            transitions={
                0: {0: F(1)},
                1: {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)},
                2: {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)},
            },
            domain=frozenset({1, 2}),
            discount=F(9, 10),
        )
        flat = MarkovModel(payoff={1: F(-1), 2: F(0)}, **base)
        assert check_growth(flat, F(10)) is True  # bounded however fast c grows
        negative = MarkovModel(payoff={1: F(-1), 2: F(-2)}, **base)
        assert check_growth(negative, F(10)) is False  # nothing to collect

    def test_requires_infinite_horizon(self):
        with pytest.raises(ModelError):
            check_growth(random_markov_model(random.Random(5), horizon=2), F(19, 18))


class TestTruncation:
    def test_two_state_stabilizes_to_stop_everywhere(self):
        model = two_state_model()
        report = truncation_limit(model, 10, 3)
        assert report.stable and report.unstable == ()
        assert report.depth == 7
        assert all(bit == 1 for bit in report.decisions.values())
        # Row t lists only states the chain can occupy at time t: the initial
        # state alone at t = 0, both in-domain states afterwards.
        assert report.regions_by_time[0] == frozenset({1})
        assert all(r == frozenset({1, 2}) for r in report.regions_by_time[1:])
        assert report.candidate.period == 1
        assert report.candidate.regions[0] == frozenset({0, 1, 2})
        assert is_periodic_equilibrium(model, report.candidate)

    def test_minnie_donald_never_stabilizes(self):
        model = minnie_donald_model()
        report = truncation_limit(model, 16, 4)
        assert not report.stable
        assert report.candidate is None and report.regions_by_time is None
        # Forced states are pinned everywhere; the free states cycle forever.
        for (t, x), bit in report.decisions.items():
            if x in (3, 4):
                assert bit == 1
            else:
                assert bit is None
        assert {cell for cell in report.unstable} == {
            cell for cell, bit in report.decisions.items() if bit is None
        }

    def test_window_solutions_follow_the_cycle(self):
        # The horizon-n solution stops state 1 at time t iff R_{((n-t) mod 4)+1}
        # contains 1, and likewise for state 2.
        model = minnie_donald_model()
        for n in (7, 8):
            bits = _markov_bits(model, n)
            for (t, x), bit in bits.items():
                if x == 1:
                    assert bit == int((n - t) % 4 in (0, 3))
                elif x == 2:
                    assert bit == int((n - t) % 4 in (0, 1))
                else:
                    assert bit == 1

    def test_argument_validation(self):
        model = two_state_model()
        with pytest.raises(ValueError):
            truncation_limit(model, 0, 1)
        with pytest.raises(ValueError):
            truncation_limit(model, 3, 0)
        with pytest.raises(ValueError):
            truncation_limit(model, 3, 4)
        with pytest.raises(ModelError):
            truncation_limit(random_markov_model(random.Random(2), horizon=4), 6, 2)


class TestRepresentativeRule:
    """Where no truncation decided a pair, the truncate candidate takes the
    census's representative bit: 1 at a discount-1 trap, 0 elsewhere."""

    def test_an_undecided_trap_stops_as_in_the_census(self):
        # State 2 is an unreachable trap: continuing there never stops.
        model = dataclasses.replace(
            absorbing_trap_model(reach_trap=False), payoff={1: F(1), 2: F(-1)}
        )
        report = truncation_limit(model, 10, 3)
        assert report.stable and {x for _, x in report.decisions} == {1}
        (survivor,) = enumerate_periodic_equilibria(model, 1)
        assert report.candidate == survivor.policy == region_policy(0, 1, 2)
        assert is_periodic_equilibrium(model, report.candidate)

    @settings(max_examples=100, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32), forced=st.booleans(), floats=st.booleans())
    def test_traps_equal_the_reachability_oracle(self, seed, forced, floats):
        rng = random.Random(seed)
        model = random_markov_model(rng, n_states=rng.randint(2, 5))
        if forced:
            model = with_random_forced_stops(rng, model)
        assert infinite._traps(model) == set()
        model = dataclasses.replace(model, discount=F(1))
        if floats:
            model = _float_chain(model)
        assert infinite._traps(model) == reach_traps(model)

    @pytest.mark.parametrize("discount_one", [False, True])
    def test_candidates_differ_only_at_undecided_traps(self, discount_one):
        # Below discount 1 there are no traps, so every undecided pair continues.
        rng = random.Random(20261020)
        candidates = changed = 0
        for _ in range(120):
            model = with_random_forced_stops(rng, random_markov_model(rng, n_states=4))
            if discount_one:
                model = dataclasses.replace(model, discount=F(1))
            traps = reach_traps(model) if discount_one else set()
            report = truncation_limit(model, 12, 3)
            if report.candidate is None:
                continue
            candidates += 1
            pinned = model.exit_states | model.forced_stop
            period = report.candidate.period
            for phase, region in enumerate(report.candidate.regions):
                row = {x: bit for (t, x), bit in report.decisions.items() if t % period == phase}
                decided = {x for x, bit in row.items() if bit}
                undecided_traps = {x for x in traps if x not in row}
                assert region == pinned | decided | undecided_traps
                changed += bool(undecided_traps)
        assert candidates > 50 and bool(changed) == discount_one


def markov_bits_by_unroll(model, horizon):
    """Oracle for `_markov_bits`: the backward recursion on the unrolled tree,
    read per (time, state) cell; None when two atoms of a cell disagree."""
    tree = unroll(model, horizon)
    return backward_solve(tree)[1].markov_bits(tree)


class TestMarkovBitsAgainstUnrollOracle:
    @pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
    def test_corpora_and_builtins(self, markov_corpus, chain_pool, floats):
        models = [*markov_corpus, *chain_pool, two_state_model(), minnie_donald_model()]
        if floats:
            models = list(map(_float_chain, models))
        for model in models:
            for horizon in range(1, 9):
                assert _markov_bits(model, horizon) == markov_bits_by_unroll(model, horizon)

    @pytest.mark.parametrize(
        "model, horizons",
        [(two_state_model(), range(10, 13)), (minnie_donald_model(), range(7, 17))],
        ids=["two-state", "minnie-donald"],
    )
    def test_builtins_at_longer_horizons(self, model, horizons):
        for horizon in horizons:
            assert _markov_bits(model, horizon) == markov_bits_by_unroll(model, horizon)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_states=st.integers(2, 5),
        horizon=st.integers(1, 5),
        floats=st.booleans(),
    )
    def test_random_chains(self, seed, n_states, horizon, floats):
        model = random_markov_model(random.Random(seed), n_states=n_states)
        if floats:
            model = _float_chain(model)
        assert _markov_bits(model, horizon) == markov_bits_by_unroll(model, horizon)


def with_shuffled_rows(rng, model):
    """The same model with the keys of every transition row in a random order."""
    rows = {x: dict(rng.sample(list(row.items()), len(row))) for x, row in model.transitions.items()}
    return dataclasses.replace(model, transitions=rows)


class TestRowOrder:
    """A result depends on the model, not on the key order of its rows."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32),
        n_states=st.integers(2, 5),
        period=st.integers(1, 2),
        forced=st.booleans(),
        floats=st.booleans(),
        discount_one=st.booleans(),
    )
    def test_permuted_rows_give_equal_results(
        self, seed, n_states, period, forced, floats, discount_one
    ):
        rng = random.Random(seed)
        model = random_markov_model(rng, n_states=n_states)
        if forced:
            model = with_random_forced_stops(rng, model)
        if discount_one:
            model = dataclasses.replace(model, discount=F(1))
        twin = with_shuffled_rows(rng, model)
        if floats:
            model, twin = _float_chain(model), _float_chain(twin)
        policy = (census_policy if discount_one else random_periodic_policy)(rng, model, period)
        preferences = (None, "early", "late")

        def results(m):
            cells = _Cells(m, 4)
            return (
                model_digest(m),
                _outcome(evaluate, m, policy),
                _outcome(phi_markov, m, policy),
                [is_periodic_equilibrium(m, policy, preference) for preference in preferences],
                [enumerate_periodic_equilibria(m, period, preference) for preference in preferences],
                truncation_limit(m, 6, 2),
                [(cell, cells.children(cell.id)) for level in cells.levels for cell in level],
            )

        assert results(model) == results(twin)


class TestParameterConditions:
    def test_reference_values_pass_tightly(self):
        report = check_minnie_donald_conditions(F(999, 1000), F(24, 25), F(4257, 1000))
        assert report.all_hold
        checks = list(report.checks())
        assert len(checks) == 5
        by_description = {c.description: c for c in checks}
        tight_low = by_description["delta*(a + 4*b) < 18"]
        assert tight_low.lhs == F(17970012, 1000000)
        tight_high = by_description["delta*(delta + 4*b) > 18"]
        assert tight_high.lhs == F(18008973, 1000000)

    def test_violations_are_reported(self):
        assert not check_minnie_donald_conditions(
            F(999, 1000), F(1), F(4257, 1000)
        ).all_hold
        assert not check_minnie_donald_conditions(
            F(999, 1000), F(24, 25), F(1)
        ).all_hold

    def test_cyclic_equilibria_at_seeded_points_near_the_reference(self):
        # At each exact point where the conditions hold, as at the reference:
        # no time-homogeneous equilibrium, and at period 4 exactly the
        # classes of the four schedule shifts.
        rng = random.Random(20261020)
        reference = (F(999, 1000), F(24, 25), F(4257, 1000))
        points = []
        while len(points) < 6:
            point = tuple(value + F(rng.randint(-40, 40), 10000) for value in reference)
            if point[0] < 1 and check_minnie_donald_conditions(*point).all_hold:
                points.append(point)
        for point in points:
            model = minnie_donald_model(*point)
            assert enumerate_periodic_equilibria(model, 1) == []
            reachable = reachable_pairs(model, 4)
            found = [eq.policy for eq in enumerate_periodic_equilibria(model, 4)]
            references = [minnie_donald_periodic_policy(k) for k in (1, 2, 3, 4)]
            assert len(found) == 2 and {
                frozenset(pair for pair in reachable if policy.stops(*pair)) for policy in found
            } == {frozenset(pair for pair in reachable if policy.stops(*pair)) for policy in references}

    def test_longer_periods_at_the_reference_point(self):
        # Period 11 answers at the default guard: its search makes 1,101 nodes.
        model = minnie_donald_model()
        assert [len(enumerate_periodic_equilibria(model, p)) for p in (8, 11, 12)] == [2, 0, 2]

    def test_float_parameters_agree_at_the_reference_point(self):
        exact = check_minnie_donald_conditions(F(999, 1000), F(24, 25), F(4257, 1000))
        approx = check_minnie_donald_conditions(0.999, 0.96, 4.257)
        assert [c.holds for c in exact.checks()] == [c.holds for c in approx.checks()]
