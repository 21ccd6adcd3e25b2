"""Infinite-horizon stopping on discounted Markov chains.

Periodic Markov policies (stop iff the state lies in the region for the
current time modulo a period) are evaluated exactly on the product chain of
(state, phase).  Two linear systems over rationals do all the work:

  * the conditional payoff numerator h(x, phase) of the first stop strictly
    after the present, with one row per continuing product-chain pair —
    strictly contractive for discount < 1, where the tail payoff of never
    stopping is 0;
  * the probability q(x, phase) that the chain leaves the domain at or before
    that stop, taken as the *minimal nonnegative* solution of its hitting
    system.  Survival is p = 1 - q, which correctly counts paths that neither
    stop nor exit: "stop before exit, or exit never happens" holds on them.

The conditional continuation value is J = h / p wherever p > 0, directly
comparable with the undiscounted per-state payoff.  On top of evaluation sit
the best-response map restricted to periodic policies, exhaustive equilibrium
enumeration over the reachable (phase, state) pairs, one candidate per
almost-sure class, and a truncation diagnostic that solves finite-horizon
problems of increasing depth and reports which (time, state) decisions
stabilize.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .model import AtomTree, MarkovModel, ModelError, State, unroll
from .numeric import NumericError, Scalar, solve_linear
from .policy import (
    DEFAULT_POLICY_GUARD,
    AdmissibilityResult,
    EquilibriumResult,
    InadmissiblePolicyError,
    PolicyError,
    SizeGuardError,
    StoppingPolicy,
)
from .recursion import backward_solve

Pair = tuple[int, State]

MarkovPreference = Optional[str]  # None or "all" keeps ties; "early"/"late" pin them


@dataclass(frozen=True)
class PeriodicMarkovPolicy:
    """Stop at time t in state x iff x lies in the region for phase t mod period.

    Regions must contain every exit state (stopping there is automatic and
    irrelevant) and every forced-stop state of the model they are used with.
    """

    period: int
    regions: tuple[frozenset, ...]

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(frozenset(r) for r in self.regions))
        if self.period < 1:
            raise PolicyError("period must be at least 1")
        if len(self.regions) != self.period:
            raise PolicyError(
                f"expected {self.period} regions, got {len(self.regions)}"
            )

    def region(self, time: int) -> frozenset:
        return self.regions[time % self.period]

    def stops(self, time: int, state: State) -> bool:
        return state in self.regions[time % self.period]

    def on_tree(self, tree: AtomTree) -> StoppingPolicy:
        """Project onto an unrolled tree: per-atom bits, 1 outside the domain."""
        bits: dict[str, int] = {}
        for atom in tree.atoms():
            if not atom.in_domain:
                bits[atom.id] = 1
            elif atom.state is None:
                raise PolicyError(
                    f"atom {atom.id!r} carries no state; the tree was not unrolled from a chain"
                )
            else:
                bits[atom.id] = int(self.stops(atom.level, atom.state))
        return StoppingPolicy(bits)


@dataclass(frozen=True)
class PolicyEvaluation:
    """Exact evaluation tables on the product chain, keyed by (phase, state).

    `h` and `p` describe the continuation that starts one step after the
    present pair (the quantity a deviating observer faces), so they are
    defined at stopping pairs too.  `J` = h/p exists wherever p > 0.
    `reachable` lists the in-domain pairs the chain itself can occupy from
    the initial state, independently of any policy.
    """

    period: int
    h: Mapping[Pair, Scalar]
    p: Mapping[Pair, Scalar]
    J: Mapping[Pair, Scalar]
    reachable: frozenset


@dataclass(frozen=True)
class PeriodicEquilibrium:
    policy: PeriodicMarkovPolicy
    evaluation: PolicyEvaluation


def reachable_pairs(model: MarkovModel, period: int) -> frozenset:
    """In-domain (phase, state) pairs the chain can occupy from the start.

    Reachability ignores policies: a stopping policy ends the observer's
    game, not the chain, and every (phase, state) the chain can visit hosts
    an observer whose bit matters.
    """
    start = (0, model.initial)
    seen = {start}
    frontier = [start]
    while frontier:
        phase, x = frontier.pop()
        nxt = (phase + 1) % period
        for y, prob in model.transitions[x].items():
            if prob > 0 and y in model.domain and (nxt, y) not in seen:
                seen.add((nxt, y))
                frontier.append((nxt, y))
    return frozenset(seen)


def _require_infinite(model: MarkovModel) -> None:
    if model.horizon is not None:
        raise ModelError("this operation requires an infinite-horizon model")
    if model.time_payoff is not None:
        raise ModelError(
            "time-dependent payoffs break stationarity; only per-state payoffs "
            "are supported on infinite horizons"
        )


def _validate_regions(model: MarkovModel, policy: PeriodicMarkovPolicy) -> None:
    pinned = model.exit_states | model.forced_stop
    for phase, region in enumerate(policy.regions):
        if not region <= set(model.states):
            unknown = sorted(map(str, region - set(model.states)))
            raise PolicyError(f"region for phase {phase} references unknown states {unknown}")
        missing = pinned - region
        if missing:
            raise PolicyError(
                f"region for phase {phase} must contain exit and forced-stop states; "
                f"missing {sorted(map(str, missing))}"
            )


def _domain_pairs(model: MarkovModel, period: int) -> list[Pair]:
    return [
        (phase, x)
        for phase in range(period)
        for x in model.states
        if x in model.domain
    ]


def _closure(pairs: list, seeds: set, successors) -> set:
    """Members of `pairs` (product pairs or states) that reach `seeds` via `successors`."""
    hit = set(seeds)
    changed = True
    while changed:
        changed = False
        for pair in pairs:
            if pair in hit:
                continue
            if any(s in hit for s in successors(pair)):
                hit.add(pair)
                changed = True
    return hit


def evaluate(model: MarkovModel, policy: PeriodicMarkovPolicy) -> PolicyEvaluation:
    """Exact (h, p, J) tables for a periodic Markov policy.

    Raises when the policy is unusable: a reachable in-domain pair that
    continues but whose continuation leaves the domain almost surely has no
    conditional value (the observer would condition on a null event).
    """
    _require_infinite(model)
    _validate_regions(model, policy)
    mode = model.mode
    period = policy.period
    delta = model.discount
    pairs = _domain_pairs(model, period)
    continue_pairs = [
        (phase, x) for (phase, x) in pairs if not policy.stops(phase, x)
    ]
    index = {pair: i for i, pair in enumerate(continue_pairs)}

    def continue_successors(pair: Pair):
        phase, x = pair
        nxt = (phase + 1) % period
        for y, prob in model.transitions[x].items():
            if prob > 0 and y in model.domain and (nxt, y) in index:
                yield (nxt, y)

    def exit_mass(x: State) -> Scalar:
        return sum(
            (p for y, p in model.transitions[x].items() if y not in model.domain),
            mode.zero,
        )

    if mode.eq(delta, 1):
        absorbing = {
            pair
            for pair in continue_pairs
            if exit_mass(pair[1]) > 0
            or any(
                prob > 0 and y in model.domain and ((pair[0] + 1) % period, y) not in index
                for y, prob in model.transitions[pair[1]].items()
            )
        }
        transient = _closure(continue_pairs, absorbing, continue_successors)
        stuck = [pair for pair in continue_pairs if pair not in transient]
        if stuck:
            raise PolicyError(
                "discount 1 requires the continuation region to reach a stop or "
                f"exit almost surely; pair (phase {stuck[0][0]}, state {stuck[0][1]!r}) cannot"
            )

    # Conditional payoff numerator: one unknown per continuing pair.
    n = len(continue_pairs)
    h_cont: dict[Pair, Scalar] = {}
    if n:
        matrix = [[mode.zero] * n for _ in range(n)]
        rhs = [mode.zero] * n
        for i, (phase, x) in enumerate(continue_pairs):
            matrix[i][i] = mode.one
            nxt = (phase + 1) % period
            for y, prob in model.transitions[x].items():
                if not prob > 0 or y not in model.domain:
                    continue
                if (nxt, y) in index:
                    matrix[i][index[(nxt, y)]] -= delta * prob
                else:
                    rhs[i] += delta * prob * model.payoff[y]
        solution = solve_linear(matrix, rhs)
        h_cont = {pair: solution[i] for i, pair in enumerate(continue_pairs)}

    # Exit-hitting probability: minimal nonnegative solution, i.e. zero on
    # pairs from which the exit is unreachable, then a nonsingular system on
    # the rest.
    exit_seeds = {pair for pair in continue_pairs if exit_mass(pair[1]) > 0}
    can_exit = _closure(continue_pairs, exit_seeds, continue_successors)
    qpairs = [pair for pair in continue_pairs if pair in can_exit]
    qindex = {pair: i for i, pair in enumerate(qpairs)}
    q_cont: dict[Pair, Scalar] = {pair: mode.zero for pair in continue_pairs}
    if qpairs:
        matrix = [[mode.zero] * len(qpairs) for _ in range(len(qpairs))]
        rhs = [mode.zero] * len(qpairs)
        for i, (phase, x) in enumerate(qpairs):
            matrix[i][i] = mode.one
            nxt = (phase + 1) % period
            rhs[i] = exit_mass(x)
            for y, prob in model.transitions[x].items():
                if not prob > 0 or y not in model.domain:
                    continue
                if (nxt, y) in qindex:
                    matrix[i][qindex[(nxt, y)]] -= prob
        solution = solve_linear(matrix, rhs)
        for i, pair in enumerate(qpairs):
            q_cont[pair] = solution[i]

    def one_step(phase: int, x: State) -> tuple[Scalar, Scalar]:
        """(h, q) of the continuation starting one step after (phase, x)."""
        nxt = (phase + 1) % period
        h_val = mode.zero
        q_val = exit_mass(x)
        for y, prob in model.transitions[x].items():
            if not prob > 0 or y not in model.domain:
                continue
            if (nxt, y) in index:
                h_val += delta * prob * h_cont[(nxt, y)]
                q_val += prob * q_cont[(nxt, y)]
            else:
                h_val += delta * prob * model.payoff[y]
        return h_val, q_val

    h_table: dict[Pair, Scalar] = {}
    p_table: dict[Pair, Scalar] = {}
    j_table: dict[Pair, Scalar] = {}
    for phase, x in pairs:
        if (phase, x) in index:
            h_val = h_cont[(phase, x)]
            q_val = q_cont[(phase, x)]
        else:
            h_val, q_val = one_step(phase, x)
        h_table[(phase, x)] = h_val
        p_table[(phase, x)] = mode.one - q_val
        if mode.gt(p_table[(phase, x)], 0):
            j_table[(phase, x)] = h_val / p_table[(phase, x)]

    reachable = reachable_pairs(model, period)
    for phase, x in pairs:
        if (phase, x) in reachable and (phase, x) in index:
            if not mode.gt(p_table[(phase, x)], 0):
                if not mode.gt(model.domain_successor_mass(x), 0):
                    reason = "must stop when every transition leaves the domain"
                else:
                    reason = "continuation almost surely leaves the domain before stopping"
                raise InadmissiblePolicyError(
                    AdmissibilityResult(False, f"(phase {phase}, state {x})", reason)
                )

    return PolicyEvaluation(period, h_table, p_table, j_table, reachable)


def phi_markov(
    model: MarkovModel, policy: PeriodicMarkovPolicy
) -> PeriodicMarkovPolicy:
    """Best response within the periodic class, pair by pair.

    The new bit stops when the state payoff strictly beats J = h/p, continues
    when it strictly loses, and keeps the old bit on ties.  Pairs whose every
    transition leaves the domain must stop; pairs with p = 0 keep their old
    bit (no conditional value exists to compare against); exit and forced
    states stay in every region.
    """
    evaluation = evaluate(model, policy)
    mode = model.mode
    pinned = model.exit_states | model.forced_stop
    regions = []
    for phase in range(policy.period):
        region = set(pinned)
        for x in model.states:
            if x not in model.domain or x in model.forced_stop:
                continue
            old = policy.stops(phase, x)
            if not mode.gt(model.domain_successor_mass(x), 0):
                stop = True
            elif (phase, x) in evaluation.J:
                sign = mode.compare(model.payoff[x], evaluation.J[(phase, x)])
                stop = old if sign == 0 else sign > 0
            else:
                stop = old
            if stop:
                region.add(x)
        regions.append(frozenset(region))
    return PeriodicMarkovPolicy(policy.period, tuple(regions))


def _equilibrium_deviations(
    model: MarkovModel,
    policy: PeriodicMarkovPolicy,
    evaluation: PolicyEvaluation,
    preference: MarkovPreference,
) -> tuple[str, ...]:
    """Reachable pairs whose bit is not a best response (or breaks a tie rule)."""
    mode = model.mode
    deviations = []
    order = {x: i for i, x in enumerate(model.states)}
    for phase, x in sorted(evaluation.reachable, key=lambda pr: (pr[0], order[pr[1]])):
        bit = policy.stops(phase, x)
        if (phase, x) not in evaluation.J:
            continue  # no conditional value: stopping is trivially unimproved
        sign = mode.compare(model.payoff[x], evaluation.J[(phase, x)])
        if sign > 0 and not bit:
            deviations.append(f"(phase {phase}, state {x}): payoff beats continuation")
        elif sign < 0 and bit:
            deviations.append(f"(phase {phase}, state {x}): continuation beats payoff")
        elif (
            sign == 0
            and preference in ("early", "late")
            and x not in model.forced_stop
            and bit != (preference == "early")
        ):
            deviations.append(f"(phase {phase}, state {x}): tie broken against preference")
    return tuple(deviations)


def is_periodic_equilibrium(
    model: MarkovModel,
    policy: PeriodicMarkovPolicy,
    preference: MarkovPreference = None,
) -> EquilibriumResult:
    """Equilibrium check on reachable pairs: admissible and a fixed point there."""
    try:
        evaluation = evaluate(model, policy)
    except PolicyError as exc:
        return EquilibriumResult(False, reason=str(exc))
    deviations = _equilibrium_deviations(model, policy, evaluation, preference)
    if deviations:
        return EquilibriumResult(False, deviations, "not a fixed point of the best response")
    return EquilibriumResult(True)


def enumerate_periodic_equilibria(
    model: MarkovModel,
    period: int,
    preference: MarkovPreference = None,
    size_guard: Optional[int] = None,
) -> list[PeriodicEquilibrium]:
    """All period-p equilibria up to almost-sure equality, one per class.

    Candidates range over the reachable free slots: pairs (phase, x) with x a
    free state (domain minus forced stops) that the chain can occupy at that
    phase.  Bits elsewhere never reach a reachable J value, so each candidate
    stands for one almost-sure class.  Its representative has bit 0 at every
    unreachable pair, except at discount 1, where unreachable traps (free
    states that reach neither a stop nor an exit when every free state
    continues) get bit 1: `evaluate` rejects any discount-1 policy that
    continues at a trap, so bit 0 there would knock out whole classes.  Exit
    and forced states sit in every region.  A candidate survives when
    evaluation succeeds and every reachable pair's bit is a best response;
    with no preference, ties admit both bits.  The size guard counts the
    2**slots candidates.
    """
    _require_infinite(model)
    if period < 1:
        raise PolicyError("period must be at least 1")
    guard = DEFAULT_POLICY_GUARD if size_guard is None else size_guard
    free = [x for x in model.states if x in model.domain and x not in model.forced_stop]
    reachable = reachable_pairs(model, period)
    slots = [(phase, x) for phase in range(period) for x in free if (phase, x) in reachable]
    total = 2 ** len(slots)
    if total > guard:
        raise SizeGuardError(total, guard)
    pinned = model.exit_states | model.forced_stop
    if preference == "all":
        preference = None
    if preference not in (None, "early", "late"):
        raise PolicyError(f"unknown preference {preference!r}")

    traps: set = set()
    if model.mode.eq(model.discount, 1):
        def free_successors(x: State):
            return (y for y, prob in model.transitions[x].items() if prob > 0 and y in free)

        ends = {
            x
            for x in free
            if any(prob > 0 and y in pinned for y, prob in model.transitions[x].items())
        }
        traps = set(free) - _closure(free, ends, free_successors)
    base = [
        pinned | {x for x in traps if (phase, x) not in reachable} for phase in range(period)
    ]

    found: list[PeriodicEquilibrium] = []
    for mask in range(total):
        regions = [set(region) for region in base]
        for i, (phase, x) in enumerate(slots):
            if (mask >> i) & 1:
                regions[phase].add(x)
        policy = PeriodicMarkovPolicy(period, tuple(regions))
        try:
            evaluation = evaluate(model, policy)
        except PolicyError:
            continue
        if _equilibrium_deviations(model, policy, evaluation, preference):
            continue
        found.append(PeriodicEquilibrium(policy, evaluation))
    return found


def check_growth(model: MarkovModel, c: Scalar) -> bool:
    """Well-posedness screen for the infinite-horizon problem.

    True iff some reachable in-domain state has a nonnegative payoff (so a
    maximizer has anything to collect) and c**t times the realized gain stays
    bounded above along the chain — for geometric discounting this holds
    exactly when c * discount <= 1, or vacuously when every reachable payoff
    is nonpositive.
    """
    _require_infinite(model)
    mode = model.mode
    if not c > 1:
        raise NumericError(f"growth constant must exceed 1, got {c}")
    reachable = model.reachable_domain_states()
    has_nonnegative = any(mode.ge(model.payoff[x], 0) for x in reachable)
    bounded = mode.le(c * model.discount, 1) or all(
        mode.le(model.payoff[x], 0) for x in reachable
    )
    return has_nonnegative and bounded


@dataclass(frozen=True)
class TruncationReport:
    """Stability of finite-horizon solutions as the horizon grows.

    `decisions` maps each in-domain (time, state) cell up to the reporting
    depth to its stabilized stop bit, or None when the last `stability_window`
    horizons disagree there.  When every cell stabilizes, `regions_by_time`
    lists the stop region per time and `candidate` holds a periodic policy
    read off those rows (smallest period up to 8), ready to be verified as a
    fixed point of the best response.
    """

    max_horizon: int
    stability_window: int
    depth: int
    decisions: Mapping[tuple[int, State], Optional[int]]
    unstable: tuple[tuple[int, State], ...]
    stable: bool
    regions_by_time: Optional[tuple[frozenset, ...]]
    candidate: Optional[PeriodicMarkovPolicy]


def _markov_bits(model: MarkovModel, horizon: int) -> dict[tuple[int, State], int]:
    """Per-(time, state) stop bits of the finite-horizon solution."""
    tree = unroll(model, horizon)
    _, policy = backward_solve(tree)
    bits: dict[tuple[int, State], int] = {}
    for atom in tree.atoms():
        if not atom.in_domain:
            continue
        cell = (atom.level, atom.state)
        bit = policy.bit(atom.id)
        if cell in bits and bits[cell] != bit:
            raise RuntimeError(
                f"finite-horizon solution is not constant across atoms at {cell}"
            )
        bits[cell] = bit
    return bits


def truncation_limit(
    model: MarkovModel, max_horizon: int, stability_window: int
) -> TruncationReport:
    """Solve horizons 1..max_horizon and report which decisions stabilize.

    Instability inside the window is reported, not raised: limits of
    truncations are only guaranteed along subsequences, and a persistent
    cycle in the per-horizon solutions is itself informative.
    """
    _require_infinite(model)
    if max_horizon < 1 or stability_window < 1:
        raise ValueError("max_horizon and stability_window must be at least 1")
    if stability_window > max_horizon:
        raise ValueError("stability window cannot exceed the max horizon")
    window = range(max_horizon - stability_window + 1, max_horizon + 1)
    bits_by_horizon = {n: _markov_bits(model, n) for n in window}
    depth = max_horizon - stability_window

    order = {x: i for i, x in enumerate(model.states)}
    cells = sorted(
        (cell for cell in bits_by_horizon[max_horizon] if cell[0] <= depth),
        key=lambda cell: (cell[0], order[cell[1]]),
    )
    decisions: dict[tuple[int, State], Optional[int]] = {}
    unstable = []
    for cell in cells:
        values = {bits_by_horizon[n][cell] for n in window}
        if len(values) == 1:
            decisions[cell] = values.pop()
        else:
            decisions[cell] = None
            unstable.append(cell)
    stable = not unstable

    regions_by_time = None
    candidate = None
    if stable:
        regions_by_time = tuple(
            frozenset(x for (t, x), bit in decisions.items() if t == time and bit)
            for time in range(depth + 1)
        )
        pinned = model.exit_states | model.forced_stop
        for period in range(1, min(8, depth + 1) + 1):
            merged: list[dict[State, int]] = [dict() for _ in range(period)]
            consistent = True
            for (time, x), bit in decisions.items():
                phase = time % period
                if merged[phase].get(x, bit) != bit:
                    consistent = False
                    break
                merged[phase][x] = bit
            if consistent:
                candidate = PeriodicMarkovPolicy(
                    period,
                    tuple(
                        frozenset(pinned | {x for x, bit in row.items() if bit})
                        for row in merged
                    ),
                )
                break
    return TruncationReport(
        max_horizon=max_horizon,
        stability_window=stability_window,
        depth=depth,
        decisions=decisions,
        unstable=tuple(unstable),
        stable=stable,
        regions_by_time=regions_by_time,
        candidate=candidate,
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
