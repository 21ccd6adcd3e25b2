import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condstop import policy as policy_module
from condstop import recursion as recursion_module
from condstop.catalog import binomial_tree
from condstop.cli import main
from condstop.model import Atom, AtomTree, unroll
from condstop.modelio import dump_model, dump_pair
from condstop.numeric import float_mode
from condstop.policy import (
    PolicyError,
    StoppingPolicy,
    _continuation_tables,
    admissible,
    continuation_value,
    is_equilibrium,
    phi,
)
from condstop.random_models import random_markov_model, random_tree
from condstop.recursion import (
    PairError,
    SnellPair,
    _pair,
    backward_solve,
    classical_snell,
    pair_from_policy,
    policy_from_pair,
    survival_identities,
    verify_pair_and_policy,
    verify_snell_pair,
)

from tree_oracles import induced_stop

F = Fraction


@pytest.fixture
def solved_binomial():
    tree = binomial_tree()
    pair, policy = backward_solve(tree)
    return tree, pair, policy


class TestBackwardSolve:
    def test_binomial_tables(self, solved_binomial):
        tree, pair, policy = solved_binomial
        assert dict(pair.values) == {
            "root": F(13, 2),
            "u": F(10),
            "d": F(3),
            "uu": F(4),
            "ud": F(2),
            "du": F(2),
        }
        assert dict(pair.survival) == {
            "root": F(1),
            "u": F(1),
            "d": F(1),
            "uu": F(1),
            "ud": F(1),
            "du": F(1),
            "dd": F(0),
        }
        assert policy.decisions == {
            "root": 0,
            "u": 1,
            "d": 1,
            "uu": 1,
            "ud": 1,
            "du": 1,
            "dd": 1,
        }

    def test_survival_drops_on_continue(self):
        # A tree where continuing is optimal while part of the subtree dies:
        # survival at the continuing atom is the in-domain stop mass, not 1.
        atoms = [
            Atom("r", 0, None, F(1), True, F(1)),
            Atom("a", 1, "r", F(1, 2), True, F(8)),
            Atom("b", 1, "r", F(1, 2), False, None),
        ]
        tree = AtomTree(atoms)
        pair, policy = backward_solve(tree)
        # J(r) = (1/2 * 8) / (1/2) = 8 > 1, so r continues with survival 1/2.
        assert pair.values["r"] == F(8)
        assert pair.survival["r"] == F(1, 2)
        assert policy.bit("r") == 0


class TestClassicalSnell:
    def test_hand_envelope(self):
        atoms = [
            Atom("r", 0, None, F(1), True, F(1)),
            Atom("a", 1, "r", F(1, 2), True, F(5)),
            Atom("b", 1, "r", F(1, 2), True, F(0)),
        ]
        tree = AtomTree(atoms)
        env = classical_snell(tree, {a.id: a.payoff for a in tree.atoms()})
        assert env == {"r": F(5, 2), "a": F(5), "b": F(0)}

    def test_envelope_dominates_process(self, domain_corpus):
        for tree in domain_corpus[:10]:
            process = {a.id: a.payoff for a in tree.atoms()}
            env = classical_snell(tree, process)
            for atom in tree.atoms():
                assert env[atom.id] >= process[atom.id]
                kids = tree.children(atom.id)
                if kids:
                    step = sum(k.branch_prob * env[k.id] for k in kids)
                    assert env[atom.id] >= step
                    assert env[atom.id] in (process[atom.id], step)


class TestVerifySnellPair:
    def test_backward_pair_passes(self, solved_binomial):
        tree, pair, _ = solved_binomial
        report = verify_snell_pair(tree, pair)
        assert report.passed
        assert {c.name for c in report.conditions} == {
            "bounds",
            "envelope_of_weighted_gain",
            "survival_minimality",
            "perturbed_supermartingale",
            "martingale_off_stop",
        }

    def test_tampered_value_is_caught(self, solved_binomial):
        tree, pair, _ = solved_binomial
        values = dict(pair.values)
        values["root"] = F(7)
        report = verify_snell_pair(tree, SnellPair(values, pair.survival))
        assert not report.passed
        assert report.condition("bounds").passed
        assert not report.condition("envelope_of_weighted_gain").passed
        assert not report.condition("martingale_off_stop").passed

    def test_out_of_range_survival_short_circuits(self, solved_binomial):
        tree, pair, _ = solved_binomial
        survival = dict(pair.survival)
        survival["u"] = F(2)
        report = verify_snell_pair(tree, SnellPair(pair.values, survival))
        bounds = report.condition("bounds")
        assert not bounds.passed
        assert any("outside (0, 1]" in why for _, why in bounds.failures)
        skipped = report.condition("perturbed_supermartingale")
        assert not skipped.passed
        assert "skipped" in skipped.failures[0][1]

    def test_missing_atom_is_caught(self, solved_binomial):
        tree, pair, _ = solved_binomial
        survival = dict(pair.survival)
        del survival["dd"]
        report = verify_snell_pair(tree, SnellPair(pair.values, survival))
        assert not report.condition("bounds").passed

    def test_negative_stop_payoffs_pass(self):
        # Stopping at r with G = -9/2 beats the continuation value -5, and
        # the child's own stop loses half its survival mass one step later,
        # so E[S'V'] at r (-5/2) exceeds S*V at both r and c.  The unweighted
        # product S*V is not a supermartingale here and no condition should
        # demand it: the twisted-continuation comparisons all hold.
        atoms = [
            Atom("r", 0, None, F(1), True, F(-9, 2)),
            Atom("c", 1, "r", F(1), True, F(-5)),
            Atom("d1", 2, "c", F(1, 2), False, None),
            Atom("d2", 2, "c", F(1, 2), True, F(-5)),
        ]
        tree = AtomTree(atoms)
        pair, policy = backward_solve(tree)
        assert policy.bit("r") == 1 and pair.values["r"] == F(-9, 2)
        assert verify_snell_pair(tree, pair).passed
        assert survival_identities(tree, policy, pair).passed

    def test_perturbation_rejects_greedy_stop(self):
        # A pair claiming "stop at r" with G = 1 while the continuation is
        # worth 2: minimality and the off-stop martingale identities hold
        # (vacuously -- V = payoff everywhere), but the envelope equality and
        # the time-0 deviation inequality both expose the profitable switch
        # to continuing.
        atoms = [
            Atom("r", 0, None, F(1), True, F(1)),
            Atom("c1", 1, "r", F(1, 2), True, F(2)),
            Atom("c2", 1, "r", F(1, 2), False, None),
        ]
        tree = AtomTree(atoms)
        bogus = SnellPair(
            values={"r": F(1), "c1": F(2)},
            survival={"r": F(1), "c1": F(1), "c2": F(0)},
        )
        report = verify_snell_pair(tree, bogus)
        assert report.condition("bounds").passed
        assert report.condition("survival_minimality").passed
        assert report.condition("martingale_off_stop").passed
        assert not report.condition("envelope_of_weighted_gain").passed
        broken = report.condition("perturbed_supermartingale")
        assert not broken.passed
        assert broken.failures[0][0] == "r"


class TestPairPolicyRoundTrip:
    def test_round_trip(self, solved_binomial):
        tree, pair, policy = solved_binomial
        rebuilt = pair_from_policy(tree, policy)
        assert dict(rebuilt.values) == dict(pair.values)
        assert dict(rebuilt.survival) == dict(pair.survival)
        assert policy_from_pair(tree, pair).decisions == policy.decisions

    def test_non_equilibrium_is_rejected(self, solved_binomial):
        tree, _, _ = solved_binomial
        with pytest.raises(PairError):
            pair_from_policy(tree, StoppingPolicy.stop_everywhere(tree))

    def test_indifferent_continuer_is_rejected(self):
        tree = AtomTree(
            [
                Atom("r", 0, None, F(1), True, F(1)),
                Atom("c", 1, "r", F(1), True, F(1)),
            ]
        )
        waiting = StoppingPolicy({"r": 0, "c": 1})
        with pytest.raises(PairError):
            pair_from_policy(tree, waiting)

    def test_bad_pair_is_rejected(self, solved_binomial):
        tree, pair, _ = solved_binomial
        values = dict(pair.values)
        values["root"] = F(7)
        with pytest.raises(PairError):
            policy_from_pair(tree, SnellPair(values, pair.survival))


class TestSurvivalIdentities:
    def test_backward_pair_passes(self, solved_binomial):
        tree, pair, policy = solved_binomial
        report = survival_identities(tree, policy, pair)
        assert report.passed
        assert {c.name for c in report.conditions} == {
            "admissibility",
            "continuation_consistency",
            "survival_expectation",
            "survival_three_case",
        }

    def test_wrong_survival_breaks_the_three_case_shape(self, solved_binomial):
        tree, pair, policy = solved_binomial
        survival = dict(pair.survival)
        survival["root"] = F(1, 2)
        report = survival_identities(tree, policy, SnellPair(pair.values, survival))
        assert not report.condition("survival_three_case").passed

    def test_inadmissible_policy_is_reported(self, solved_binomial):
        tree, pair, _ = solved_binomial
        lazy = StoppingPolicy({a: 0 for a in tree.atom_ids()})
        report = survival_identities(tree, lazy, pair)
        assert not report.condition("admissibility").passed

    @pytest.mark.parametrize(
        "survival", [{"uu": None}, {"u": F(0), "d": F(0)}], ids=["missing", "zero"]
    )
    def test_pair_failing_bounds_is_skipped(self, solved_binomial, survival):
        # Used to raise KeyError (missing S) or ZeroDivisionError (E[S'] = 0).
        tree, pair, policy = solved_binomial
        broken = {**pair.survival, **survival}
        broken = {aid: s for aid, s in broken.items() if s is not None}
        report = survival_identities(tree, policy, SnellPair(pair.values, broken))
        assert report.condition("admissibility").passed
        for name in ("continuation_consistency", "survival_expectation", "survival_three_case"):
            assert report.condition(name).failures == (("root", "skipped: pair fails bounds"),)


def _corrupted_binomial(mode=None, values=(), survival=()):
    tree = binomial_tree() if mode is None else binomial_tree(mode)
    pair, policy = backward_solve(tree)
    corrupted = SnellPair({**pair.values, **dict(values)}, {**pair.survival, **dict(survival)})
    return tree, policy, corrupted


def _flat(report):
    return tuple((c.name, c.passed, c.failures) for c in report.conditions)


# Full reports of both verifiers on three corrupted binomial pairs, recorded
# before the verifiers were rewritten to share one twisted step per atom.
PINNED_CASES = {
    "wrong_value_at_u": dict(values={"u": F(9)}),
    "wrong_survival_at_d": dict(survival={"d": F(1, 2)}),
    "float_near_tie": dict(
        mode=float_mode(1e-9),
        values={"u": 10 + 5e-9, "root": 6.5 - 3e-9},
        survival={"root": 1 - 2e-9},
    ),
}
MARTINGALE_S = "survival is not a one-step martingale off the stop set"
MARTINGALE_SV = "S*V is not a one-step martingale off the stop set"
PINNED_SNELL = {
    "wrong_value_at_u": (
        ("bounds", True, ()),
        ("envelope_of_weighted_gain", False, (
            ("root", "value 13/2 != max(payoff 2, twisted continuation 6)"),
            ("u", "value 9 != max(payoff 10, twisted continuation 3)"),
        )),
        ("survival_minimality", True, ()),
        ("perturbed_supermartingale", True, ()),
        ("martingale_off_stop", False, (("root", MARTINGALE_SV),)),
    ),
    "wrong_survival_at_d": (
        ("bounds", True, ()),
        ("envelope_of_weighted_gain", False, (
            ("root", "value 13/2 != max(payoff 2, twisted continuation 23/3)"),
        )),
        ("survival_minimality", False, (("d", "survival 1/2 != stop-indicator envelope 1"),)),
        ("perturbed_supermartingale", False, (
            ("root", "supermartingale broken when level 0 is perturbed"),
        )),
        ("martingale_off_stop", False, (("root", MARTINGALE_S), ("root", MARTINGALE_SV))),
    ),
    "float_near_tie": (
        ("bounds", True, ()),
        ("envelope_of_weighted_gain", True, ()),
        ("survival_minimality", False, (
            ("root", "survival 0.999999998 != stop-indicator envelope 1.0"),
        )),
        ("perturbed_supermartingale", True, ()),
        ("martingale_off_stop", False, (("root", MARTINGALE_S), ("root", MARTINGALE_SV))),
    ),
}
PINNED_IDENTITIES = {
    "wrong_value_at_u": (
        ("admissibility", True, ()),
        ("continuation_consistency", False, (("root", "recursion ratio 6 != path value 13/2"),)),
        ("survival_expectation", True, ()),
        ("survival_three_case", True, ()),
    ),
    "wrong_survival_at_d": (
        ("admissibility", True, ()),
        ("continuation_consistency", False, (
            ("root", "recursion ratio 23/3 != path value 13/2"),
        )),
        ("survival_expectation", False, (("root", "E[S'] = 3/4 != continuation survival 1"),)),
        ("survival_three_case", False, (
            ("d", "survival must be 1 on stopping in-domain atoms"),
        )),
    ),
    "float_near_tie": (
        ("admissibility", True, ()),
        ("continuation_consistency", True, ()),
        ("survival_expectation", True, ()),
        ("survival_three_case", False, (
            ("root", "survival must equal the continuation stop-in-domain probability"),
        )),
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_verifier_reports_are_pinned(case):
    tree, policy, pair = _corrupted_binomial(**PINNED_CASES[case])
    assert _flat(verify_snell_pair(tree, pair)) == PINNED_SNELL[case]
    assert _flat(survival_identities(tree, policy, pair)) == PINNED_IDENTITIES[case]


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_combined_verification_gives_the_pinned_reports(case):
    tree, policy, pair = _corrupted_binomial(**PINNED_CASES[case])
    report, check, identities = verify_pair_and_policy(tree, pair, policy)
    assert (_flat(report), _flat(identities)) == (PINNED_SNELL[case], PINNED_IDENTITIES[case])
    assert check == is_equilibrium(tree, policy)


def test_combined_verification_rejects_a_policy_missing_atoms(solved_binomial):
    tree, pair, policy = solved_binomial
    partial = StoppingPolicy({aid: bit for aid, bit in policy.decisions.items() if aid != "dd"})
    with pytest.raises(PolicyError) as combined:
        verify_pair_and_policy(tree, pair, partial)
    with pytest.raises(PolicyError) as alone:
        survival_identities(tree, partial, pair)
    assert str(combined.value) == str(alone.value)


def _counting(monkeypatch, module, name):
    """Record the arguments of every call to `module.name`, under any module
    of the package that binds it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for bound in (policy_module, recursion_module):
        if getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, counted)
    return calls


class TestSharedTables:
    @pytest.mark.parametrize(
        "check",
        [
            lambda tree, policy, pair: admissible(tree, policy),
            lambda tree, policy, pair: continuation_value(tree, policy, "root"),
            lambda tree, policy, pair: is_equilibrium(tree, policy),
            lambda tree, policy, pair: phi(tree, policy),
            lambda tree, policy, pair: pair_from_policy(tree, policy),
            lambda tree, policy, pair: survival_identities(tree, policy, pair),
        ],
        ids=[
            "admissible",
            "continuation_value",
            "is_equilibrium",
            "phi",
            "pair_from_policy",
            "survival_identities",
        ],
    )
    def test_one_continuation_pass_per_call(self, monkeypatch, solved_binomial, check):
        tree, pair, policy = solved_binomial
        calls = _counting(monkeypatch, policy_module, "_continuation_tables")
        check(tree, policy, pair)
        assert len(calls) == 1

    def test_one_twisted_step_per_unflagged_atom(self, monkeypatch, solved_binomial):
        tree, pair, policy = solved_binomial
        flags = tree.effective_flags()
        unflagged = [a.id for a in tree.atoms() if not flags[a.id]]
        calls = _counting(monkeypatch, recursion_module, "_twisted")
        verify_snell_pair(tree, pair)
        assert [args[1] for args in calls] == unflagged
        calls.clear()
        survival_identities(tree, policy, pair)
        assert [args[1] for args in calls] == unflagged

    def test_verify_pair_and_policy_cli_makes_one_pass_each(
        self, monkeypatch, tmp_path, solved_binomial
    ):
        tree, pair, policy = solved_binomial
        paths = {}
        for name, doc in (
            ("model", dump_model(tree)),
            ("pair", dump_pair(pair)),
            ("policy", {"decisions": dict(policy.decisions)}),
        ):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        tables = _counting(monkeypatch, policy_module, "_continuation_tables")
        bounds = _counting(monkeypatch, recursion_module, "_bounds_failures")
        argv = ["verify", "--json"] + [
            f"--{name}={path}" for name, path in paths.items()
        ]
        assert main(argv) == 0
        assert (len(tables), len(bounds)) == (1, 1)

    def test_backward_solve_is_one_sweep(self, monkeypatch):
        tree = binomial_tree()
        sweeps = _counting(monkeypatch, policy_module, "_sweep")
        twisted = _counting(monkeypatch, recursion_module, "_twisted")
        backward_solve(tree)
        assert (len(sweeps), len(twisted)) == (1, 0)


def _random_instance(kind, seed):
    rng = random.Random(seed)
    if kind == "tree":
        return random_tree(rng)
    return unroll(random_markov_model(rng, n_states=3), rng.randint(1, 4))


def _admissible_policy(tree, seed):
    """Random bits strictly before the effective horizon, 1 at or past it,
    repaired bottom-up so that every continuation stops in-domain with
    positive probability."""
    rng = random.Random(seed)
    flags = tree.effective_flags()
    bits = {aid: 1 if flags[aid] else rng.randint(0, 1) for aid in tree.atom_ids()}
    live: dict[str, bool] = {}  # continuation after the atom stops in-domain
    for level in reversed(tree.levels[:-1]):
        for atom in level:
            kids = tree.children(atom.id)
            live[atom.id] = any(
                kid.in_domain and (bits[kid.id] or live.get(kid.id, False)) for kid in kids
            )
            if not live[atom.id] and not flags[atom.id]:
                bits[next(kid.id for kid in kids if kid.in_domain)] = 1
                live[atom.id] = True
    return StoppingPolicy(bits)


def _oracle_tables(tree, policy):
    """(num, den) at every non-terminal atom, summed over `induced_stop` paths."""
    num, den = {}, {}
    for atom in tree.atoms():
        if atom.level == tree.horizon:
            continue
        stop = induced_stop(tree, policy, atom.id)
        den[atom.id] = stop.survive_prob
        num[atom.id] = sum(
            (mass * tree.atom(aid).payoff
             for aid, mass in stop.stop_probs.items() if tree.atom(aid).in_domain),
            Fraction(0),
        )
    return num, den


def _ratios(tree, tables):
    """The (num, den) dicts of `_sweep`'s (n, e, k) tables, read through `ratio`."""
    ratio = tree.mode.ratio
    num = {aid: ratio(n, k) for aid, (n, _, k) in tables.items()}
    return num, {aid: ratio(e, k) for aid, (_, e, k) in tables.items()}


def _triples(num, den):
    """(num, den) dicts as `_sweep` tables with k = 1."""
    return {aid: (num[aid], den[aid], 1) for aid in num}


class TestSweepAgainstPathOracle:
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        kind=st.sampled_from(["tree", "chain"]),
        seed=st.integers(0, 2**32),
        policy_seed=st.integers(0, 2**32),
    )
    def test_tables_and_pair_match_induced_stop(self, kind, seed, policy_seed):
        tree = _random_instance(kind, seed)
        policy = _admissible_policy(tree, policy_seed)
        assert admissible(tree, policy)
        assert _ratios(tree, _continuation_tables(tree, policy)) == _oracle_tables(tree, policy)

        pair, solved = backward_solve(tree)
        assert pair == _pair(tree, solved, _triples(*_oracle_tables(tree, solved)))
