import dataclasses
import random
from fractions import Fraction

import pytest

from condstop.catalog import (
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
    _equilibrium_deviations,
    _markov_bits,
    check_growth,
    check_minnie_donald_conditions,
    enumerate_periodic_equilibria,
    evaluate,
    is_periodic_equilibrium,
    phi_markov,
    reachable_pairs,
    truncation_limit,
)
from condstop.model import MarkovModel, ModelError, unroll
from condstop.numeric import NumericError
from condstop.policy import (
    InadmissiblePolicyError,
    PolicyError,
    SizeGuardError,
    is_equilibrium,
)
from condstop.random_models import random_markov_model, random_periodic_policy

F = Fraction


def region_policy(*states):
    return PeriodicMarkovPolicy(1, (frozenset(states),))


def exhaustive_periodic_equilibria(model, period, preference=None):
    """Reference census: every bit at every free (phase, state) pair.

    Tries all 2**(period * free) region families in mask order, skips those
    whose evaluation fails, and keeps the first survivor of each almost-sure
    class, i.e. of each stop profile on the reachable pairs.
    """
    free = [x for x in model.states if x in model.domain and x not in model.forced_stop]
    pinned = model.exit_states | model.forced_stop
    if preference == "all":
        preference = None
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
        if _equilibrium_deviations(model, policy, evaluation, preference):
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
        assert policy.region(0) == {0, 1} and policy.region(5) == {0}
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
        model = minnie_donald_model()
        unguarded = enumerate_periodic_equilibria(model, 6)
        assert enumerate_periodic_equilibria(model, 6, size_guard=64) == unguarded
        with pytest.raises(SizeGuardError) as err:
            enumerate_periodic_equilibria(model, 6, size_guard=63)
        assert err.value.required == 64

    def test_unknown_preference(self):
        with pytest.raises(PolicyError):
            enumerate_periodic_equilibria(two_state_model(), 1, "sideways")


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

    def test_float_parameters_agree_at_the_reference_point(self):
        exact = check_minnie_donald_conditions(F(999, 1000), F(24, 25), F(4257, 1000))
        approx = check_minnie_donald_conditions(0.999, 0.96, 4.257)
        assert [c.holds for c in exact.checks()] == [c.holds for c in approx.checks()]
