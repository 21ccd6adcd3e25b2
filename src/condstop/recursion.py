"""Backward recursion for the unique early-stopping equilibrium.

The recursion carries a pair of adapted processes: a value `V` defined on
in-domain atoms and a survival probability `S` defined everywhere.  `S` is the
probability that the induced continuation stops while still in the domain; it
replaces the constant-1 weighting of the classical theory and is what makes
conditional stopping tractable by dynamic programming:

    at or past the effective horizon:  V = payoff, S = 1 on in-domain atoms
    strictly before it:                j = E[S' V' | A] / E[S' | A]
        payoff >= j:  V = payoff, S = 1          (the observer stops)
        payoff <  j:  V = j,      S = E[S' | A]  (the observer continues)

where primes denote the next level and the numerator skips children with
S' = 0, honoring the convention that zero mass times an absent payoff is 0.
The induced policy "stop when payoff >= V" is the unique equilibrium whose
indifferent observers stop; when the domain covers everything, S is
identically 1 and V reduces to the classical Snell envelope.  The recursion
is the policy-table sweep `policy._sweep` with the best-response rule
`policy._best_bit`, ties to stop: on a continuing child S'V' and S' are the
child's tables num' and den', so j = num / den.

`verify_snell_pair` checks a candidate pair against the full list of
structural conditions that characterize such pairs, without assuming how the
pair was produced.  Only the two verifiers share the twisted step
`(E[S' | A], E[S'V' | A])` of a given pair, once per atom and call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .model import AtomTree
from .numeric import Scalar, sum_in_order
from .policy import EquilibriumResult, PolicyError, StoppingPolicy, _checked_tables
from .policy import _best_bit, _equilibrium_tables, _sweep


class PairError(ValueError):
    """A value/survival pair fails a precondition of the requested operation."""


@dataclass(frozen=True)
class SnellPair:
    """A value process on in-domain atoms and a survival process on all atoms."""

    values: Mapping[str, Scalar]
    survival: Mapping[str, Scalar]


@dataclass(frozen=True)
class ConditionReport:
    name: str
    passed: bool
    failures: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class VerificationReport:
    conditions: tuple[ConditionReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionReport:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def _twisted(
    tree: AtomTree, atom_id: str, survival: Mapping[str, Scalar], values: Mapping[str, Scalar]
) -> tuple[Scalar, Scalar]:
    """The survival-twisted step (E[S' | A], E[S'V' | A]) at one atom.

    Out-of-domain children carry no value and add nothing to E[S'V'].
    """
    exp_s = exp_sv = tree.mode.zero
    for child in tree.children(atom_id):
        s = survival[child.id]
        exp_s += child.branch_prob * s
        if child.in_domain:
            exp_sv += child.branch_prob * s * values[child.id]
    return exp_s, exp_sv


def backward_solve(tree: AtomTree) -> tuple[SnellPair, StoppingPolicy]:
    """Solve the tree by backward recursion; also return the induced policy."""
    bits, tables = _sweep(tree, _best_bit(tree, lambda atom_id: 1))
    policy = StoppingPolicy(bits)
    return _pair(tree, policy, tables), policy


def _pair(tree: AtomTree, policy: StoppingPolicy, tables: Mapping[str, tuple]) -> SnellPair:
    """(V, S) of an admissible policy from its (n, e, k) tables: S = 0 outside
    the domain, (payoff, 1) where it stops, (n / e, e / k) where it continues."""
    ratio = tree.mode.ratio
    zero, one = tree.mode.zero, tree.mode.one
    values: dict[str, Scalar] = {}
    survival: dict[str, Scalar] = {}
    for atom in tree.atoms():
        if not atom.in_domain:
            survival[atom.id] = zero
        elif policy.stops(atom.id):
            values[atom.id] = atom.payoff
            survival[atom.id] = one
        else:
            n, e, k = tables[atom.id]
            values[atom.id] = ratio(n, e)
            survival[atom.id] = ratio(e, k)
    return SnellPair(values, survival)


def classical_snell(tree: AtomTree, process: Mapping[str, Scalar]) -> dict[str, Scalar]:
    """Smallest supermartingale dominating a process defined on every atom."""
    envelope: dict[str, Scalar] = {}
    for level in reversed(tree.levels):
        for atom in level:
            kids = tree.children(atom.id)
            own = process[atom.id]
            if not kids:
                envelope[atom.id] = own
            else:
                cont = sum_in_order(child.branch_prob * envelope[child.id] for child in kids)
                envelope[atom.id] = own if own >= cont else cont
    return envelope


def pair_from_policy(tree: AtomTree, policy: StoppingPolicy) -> SnellPair:
    """Build the value/survival pair induced by an early-stopping equilibrium.

    Rejects policies that are not equilibria, and equilibria whose indifferent
    observers continue (those induce a different pair shape).
    """
    check, tables = _equilibrium_tables(tree, policy)
    if not check:
        raise PairError(f"policy is not an equilibrium: {check.reason}")
    _, by_atom = tables
    tied = _best_bit(tree, lambda atom_id: -1)  # the best-response rule, -1 on a tie
    for atom in tree.atoms():  # continuing atoms of an equilibrium are unflagged
        if not policy.stops(atom.id) and tied(atom, *by_atom[atom.id]) < 0:
            raise PairError(
                f"indifferent observer at {atom.id!r} continues; "
                "expected the early-stopping equilibrium"
            )
    return _pair(tree, policy, by_atom)


def policy_from_pair(tree: AtomTree, pair: SnellPair) -> StoppingPolicy:
    """Read the stopping policy off a verified pair: stop when payoff >= V."""
    report = verify_snell_pair(tree, pair)
    if not report.passed:
        failed = [c.name for c in report.conditions if not c.passed]
        raise PairError(f"pair fails verification: {failed}")
    mode = tree.mode
    scale = tree.tie_scale()
    bits: dict[str, int] = {}
    for atom in tree.atoms():
        if not atom.in_domain:
            bits[atom.id] = 1
        else:
            bits[atom.id] = 1 if mode.ge(atom.payoff, pair.values[atom.id], scale) else 0
    return StoppingPolicy(bits)


def verify_snell_pair(tree: AtomTree, pair: SnellPair) -> VerificationReport:
    """Check the structural conditions characterizing value/survival pairs.

    bounds: S in (0, 1] on in-domain atoms, 0 outside; V defined on in-domain
        atoms and equal to the payoff at or past the effective horizon.
    envelope_of_weighted_gain: on the domain, V is the Snell envelope of the
        payoff under the survival-twisted branch weights: strictly before the
        effective horizon, V = max(payoff, E[S'V']/E[S']).  Multiplying
        through by E[S'] and unrolling shows this is the same as "S*V frozen
        at the horizon is the classical envelope of the frozen S*payoff"
        whenever payoffs are nonnegative; the normalized form is the one that
        survives sign changes (a stop atom with a negative payoff can have
        S*V below the expected next S*V without any deviation profiting,
        because the comparison the observer actually makes is against the
        continuation value, not the unnormalized product).
    survival_minimality: S is itself the classical envelope of the indicator
        of {V = payoff, in-domain}.
    perturbed_supermartingale: replacing the survival weight of a single
        observer by the conditional expectation of the next S must not raise
        the weighted value: E[S'V' | A] <= E[S' | A] * V(A) at every
        in-domain atom strictly before the effective horizon.  This is the
        one-step form of the perturbation family -- the inequality at the
        perturbed time itself, which says the deviation "continue for one
        step, then conform" does not profit.  For nonnegative payoffs the
        one-step inequalities chain into a full supermartingale statement;
        with signed payoffs only the deviation step is constrained.
    martingale_off_stop: where the observer strictly prefers continuing, S and
        S*V both satisfy exact one-step martingale identities.
    """
    mode = tree.mode
    flags = tree.effective_flags()
    scale = tree.tie_scale()

    bounds = _condition("bounds", _bounds_failures(tree, pair))
    if not bounds.passed:
        # The remaining conditions need a structurally complete pair.
        return _skipped(bounds, _PAIR_CONDITIONS, tree.root.id, "skipped: bounds failed")

    envelope: list[tuple[str, str]] = []
    perturbed: list[tuple[str, str]] = []
    martingale: list[tuple[str, str]] = []
    for atom in tree.atoms():
        if not atom.in_domain or flags[atom.id]:
            continue
        value = pair.values[atom.id]
        exp_s, exp_sv = _twisted(tree, atom.id, pair.survival, pair.values)
        cont = exp_sv / exp_s
        target = atom.payoff if mode.ge(atom.payoff, cont, scale) else cont
        if not mode.eq(value, target, scale):
            envelope.append(
                (atom.id,
                 f"value {value} != max(payoff {atom.payoff}, twisted continuation {cont})")
            )
        # One deviation inequality per observer: perturbing the time-t0
        # survival weight to E[S'] turns the product at A into
        # E[S' | A] * V(A), and the next value of the frozen product is S'V'
        # itself (children of an unflagged atom are never rewritten by the
        # freeze).  Steps at other times repeat the martingale/stop
        # comparisons checked elsewhere, and the step *into* t0 is not an
        # obligation: a deviation taken at t0 cannot be seen from t0 - 1.
        if mode.gt(exp_sv, exp_s * value, scale):
            perturbed.append(
                (atom.id, f"supermartingale broken when level {atom.level} is perturbed")
            )
        if mode.gt(value, atom.payoff, scale):
            s = pair.survival[atom.id]
            if not mode.eq(s, exp_s):
                martingale.append(
                    (atom.id, "survival is not a one-step martingale off the stop set")
                )
            if not mode.eq(s * value, exp_sv, scale):
                martingale.append((atom.id, "S*V is not a one-step martingale off the stop set"))

    indicator = {}
    for atom in tree.atoms():
        on = atom.in_domain and mode.eq(pair.values[atom.id], atom.payoff, scale)
        indicator[atom.id] = mode.one if on else mode.zero
    ind_envelope = classical_snell(tree, indicator)
    minimality = [
        (aid, f"survival {pair.survival[aid]} != stop-indicator envelope {ind_envelope[aid]}")
        for aid in tree.atom_ids()
        if not mode.eq(pair.survival[aid], ind_envelope[aid])
    ]
    return VerificationReport((
        bounds,
        _condition("envelope_of_weighted_gain", envelope),
        _condition("survival_minimality", minimality),
        _condition("perturbed_supermartingale", perturbed),
        _condition("martingale_off_stop", martingale),
    ))


_PAIR_CONDITIONS = (
    "envelope_of_weighted_gain",
    "survival_minimality",
    "perturbed_supermartingale",
    "martingale_off_stop",
)
_IDENTITY_CONDITIONS = ("continuation_consistency", "survival_expectation", "survival_three_case")


def _condition(name: str, failures: list[tuple[str, str]]) -> ConditionReport:
    return ConditionReport(name, not failures, tuple(failures))


def _skipped(
    first: ConditionReport, names: tuple[str, ...], atom_id: str, why: str
) -> VerificationReport:
    """A report whose conditions after `first` all fail unchecked."""
    return VerificationReport(
        (first,) + tuple(ConditionReport(name, False, ((atom_id, why),)) for name in names)
    )


def _bounds_failures(tree: AtomTree, pair: SnellPair) -> list[tuple[str, str]]:
    """The `bounds` condition of `verify_snell_pair`: one entry per defect."""
    mode = tree.mode
    flags = tree.effective_flags()
    scale = tree.tie_scale()
    failures: list[tuple[str, str]] = []
    for atom in tree.atoms():
        s = pair.survival.get(atom.id)
        if s is None:
            failures.append((atom.id, "survival value missing"))
            continue
        if atom.in_domain:
            if not (mode.gt(s, 0) and mode.le(s, 1)):
                failures.append((atom.id, f"survival {s} outside (0, 1]"))
            v = pair.values.get(atom.id)
            if v is None:
                failures.append((atom.id, "value missing on an in-domain atom"))
            elif flags[atom.id] and not mode.eq(v, atom.payoff, scale):
                failures.append(
                    (atom.id, "value differs from payoff at or past the effective horizon")
                )
        elif not mode.eq(s, 0):
            failures.append((atom.id, f"survival {s} nonzero outside the domain"))
    return failures


def survival_identities(
    tree: AtomTree, policy: StoppingPolicy, pair: SnellPair
) -> VerificationReport:
    """Check the probabilistic meaning of a pair against its policy.

    admissibility: the policy itself must be usable.
    continuation_consistency: the recursion's ratio E[S'V']/E[S'] equals the
        path-computed continuation value at every atom strictly before the
        effective horizon.
    survival_expectation: E[S' | A] equals the probability that the
        continuation stops in-domain.
    survival_three_case: S is that probability on continuing in-domain atoms,
        1 on stopping in-domain atoms, and 0 outside the domain.

    The last three fail unchecked when the policy is inadmissible or the
    pair fails the `bounds` condition of `verify_snell_pair`.
    """
    bounds = _bounds_failures(tree, pair)
    return _identities(tree, policy, pair, _checked_tables(tree, policy), not bounds)


def verify_pair_and_policy(
    tree: AtomTree, pair: SnellPair, policy: StoppingPolicy
) -> tuple[VerificationReport, EquilibriumResult, VerificationReport]:
    """`verify_snell_pair`, `is_equilibrium` and `survival_identities` from one
    bounds pass over the pair and one table pass for the policy; raises
    PolicyError when the policy does not cover the tree."""
    report = verify_snell_pair(tree, pair)
    check, tables = _equilibrium_tables(tree, policy)
    if tables is None:
        raise PolicyError(check.reason)
    bounds_pass = report.condition("bounds").passed
    return report, check, _identities(tree, policy, pair, tables, bounds_pass)


def _identities(
    tree: AtomTree, policy: StoppingPolicy, pair: SnellPair, tables: tuple, bounds_pass: bool
) -> VerificationReport:
    """`survival_identities`, given `_checked_tables` and the `bounds` verdict."""
    mode = tree.mode
    flags = tree.effective_flags()
    scale = tree.tie_scale()
    adm, by_atom = tables
    admissibility = ConditionReport(
        "admissibility", bool(adm), () if adm else ((adm.atom, adm.reason),)
    )
    if not adm:
        return _skipped(
            admissibility, _IDENTITY_CONDITIONS, tree.root.id, "skipped: inadmissible policy"
        )
    if not bounds_pass:
        return _skipped(
            admissibility, _IDENTITY_CONDITIONS, tree.root.id, "skipped: pair fails bounds"
        )

    consistency: list[tuple[str, str]] = []
    expectation: list[tuple[str, str]] = []
    for atom in tree.atoms():
        if flags[atom.id]:
            continue
        exp_s, exp_sv = _twisted(tree, atom.id, pair.survival, pair.values)
        recursion_value = exp_sv / exp_s
        n, e, k = by_atom[atom.id]
        path_value, survive = mode.ratio(n, e), mode.ratio(e, k)
        if not mode.eq(recursion_value, path_value, scale):
            consistency.append(
                (atom.id, f"recursion ratio {recursion_value} != path value {path_value}")
            )
        if not mode.eq(exp_s, survive):
            expectation.append((atom.id, f"E[S'] = {exp_s} != continuation survival {survive}"))

    three_case = []
    for atom in tree.atoms():
        s = pair.survival[atom.id]
        if not atom.in_domain:
            if not mode.eq(s, 0):
                three_case.append((atom.id, "survival must vanish outside the domain"))
        elif policy.stops(atom.id):
            if not mode.eq(s, 1):
                three_case.append((atom.id, "survival must be 1 on stopping in-domain atoms"))
        elif not mode.eq(s, mode.ratio(*by_atom[atom.id][1:])):
            three_case.append(
                (atom.id, "survival must equal the continuation stop-in-domain probability")
            )
    return VerificationReport((
        admissibility,
        _condition("continuation_consistency", consistency),
        _condition("survival_expectation", expectation),
        _condition("survival_three_case", three_case),
    ))
