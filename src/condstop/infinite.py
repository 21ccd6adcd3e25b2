"""Infinite-horizon stopping on discounted Markov chains.

Periodic Markov policies (stop iff the state lies in the region for the
current time modulo a period) are evaluated exactly on the product chain of
(state, phase).  Two linear systems do all the work; in exact mode each row
is scaled to integers and the systems are solved over the integers, so a
rational is made only for survivors and `evaluate`:

  * the conditional payoff numerator h(x, phase) of the first stop strictly
    after the present, with one row per continuing product-chain pair —
    strictly contractive for discount < 1, where the tail payoff of never
    stopping is 0;
  * the probability q(x, phase) that the chain leaves the domain at or before
    that stop, taken as the *minimal nonnegative* solution of its hitting
    system.  Survival is p = 1 - q, which correctly counts paths that neither
    stop nor exit: "stop before exit, or exit never happens" holds on them.

The conditional continuation value is J = h / p wherever p > 0, directly
comparable with the undiscounted per-state payoff.  One best-response rule
(forced-stop states and dead ends always stop) serves the best-response map
on periodic policies, the equilibrium check (a fixed point of that map on the
reachable pairs) and the census of reachable (phase, state) pairs, one
candidate per almost-sure class.  The census first pins the states whose
payoff beats every continuation value they can face, then runs a depth-first
search that prunes every completion of a partial assignment that must fail.
A truncation diagnostic reports which finite-horizon decisions stabilize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .model import AtomTree, MarkovModel, ModelError, State, _Cells
from .numeric import NumericError, Scalar, solve_integer, solve_linear, sum_in_order
from .policy import (
    DEFAULT_POLICY_GUARD,
    AdmissibilityResult,
    EquilibriumResult,
    InadmissiblePolicyError,
    PolicyError,
    SizeGuardError,
    StoppingPolicy,
    _best_bit,
    _preference,
    _sweep,
)

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

    def stops(self, time: int, state: State) -> bool:
        return state in self.regions[time % self.period]

    def on_tree(self, tree: AtomTree) -> StoppingPolicy:
        """Project onto an unrolled tree: per-atom bits, 1 outside the domain."""
        return StoppingPolicy.from_state_rule(tree, self.stops)


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
    return frozenset({start, *_reached(model, start, period)})


def _reached(model: MarkovModel, start: Pair, period: int) -> set:
    """The (phase mod `period`, state) pairs `start` reaches in one or more in-domain steps."""
    seen, frontier = set(), [start]
    while frontier:
        phase, x = frontier.pop()
        nxt = (phase + 1) % period
        for y, _ in model._split[x][0]:
            if (nxt, y) not in seen:
                seen.add((nxt, y))
                frontier.append((nxt, y))
    return seen


def _require_infinite(model: MarkovModel) -> None:
    if model.horizon is not None:
        raise ModelError("this operation requires an infinite-horizon model")


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


def _steps(model: MarkovModel, pairs: list, period: int) -> dict:
    """Per (phase, x) of `pairs`, the row of x scaled by s: each in-domain
    successor y of x in `model._split` as ((phase + 1 mod period, y), s * p,
    s * discount * p, s * discount * p * payoff(y)), then s * the exit mass
    of x, then s, then the pairs of `pairs` with a step into (phase, x), the
    predecessor lists `_closure` walks.  `pairs` must be closed under
    in-domain steps.  In exact mode s is the least positive integer that
    makes every entry an integer; in float mode s = 1 and the entries are
    floats."""
    delta, payoff, exact = model.discount, model.payoff, model.mode.exact
    rows, steps = {}, {}
    predecessors: dict = {pair: [] for pair in pairs}
    for phase, x in pairs:
        if x not in rows:
            successors, exit_mass = model._split[x]
            row = [(y, p, delta * p, delta * p * payoff[y]) for y, p in successors]
            scale = 1
            if exact:
                entries = [exit_mass, *(v for _, *vs in row for v in vs)]
                scale = math.lcm(*(v.denominator for v in entries))
                row = [(y, *(v.numerator * scale // v.denominator for v in vs)) for y, *vs in row]
                exit_mass = exit_mass.numerator * scale // exit_mass.denominator
            rows[x] = row, exit_mass, scale
        row, exit_mass, scale = rows[x]
        nxt = (phase + 1) % period
        out = [((nxt, y), *coefficients) for y, *coefficients in row]
        steps[phase, x] = out, exit_mass, scale, predecessors[phase, x]
        for step in out:
            predecessors[step[0]].append((phase, x))
    return steps


def _dominant(model: MarkovModel, free: list) -> set:
    """Free states whose payoff beats every continuation value they can have.

    J at a pair in state x is a conditional mean of discount**t * payoff(y),
    t >= 1, over the domain states y that x reaches by in-domain steps, and a
    path that never stops adds 0.  So J is at most discount * max payoff(y)
    when that is positive and at most 0 otherwise.  Where the payoff at x
    beats that bound, continuing at a reachable pair in state x either leaves
    p = 0 there or deviates, so every equilibrium stops there.
    """
    mode = model.mode
    dominant = set()
    for x in free:
        seen = _reached(model, (0, x), 1)
        bound = max([mode.zero] + [model.discount * model.payoff[y] for _, y in seen])
        if mode.compare(model.payoff[x], bound) > 0:
            dominant.add(x)
    return dominant


def _traps(model: MarkovModel) -> set:
    """At discount 1, the free states from which no path reaches an exit or a
    forced stop; none below 1.  A class representative stops at the
    unreachable pairs of a trap and continues at other unreachable free
    pairs: at discount 1, `evaluate` rejects a policy that stops nowhere a
    trap's pair reaches."""
    if not model.mode.eq(model.discount, 1):
        return set()
    ends = {y for y in model.domain if model._split[y][1] > 0 or y in model.forced_stop}
    return {
        x
        for x in model.domain - model.forced_stop
        if x not in ends and not any(y in ends for _, y in _reached(model, (0, x), 1))
    }


def _closure(members, seeds, steps: dict) -> set:
    """`seeds` and the pairs of `members` that reach them through `members`:
    one breadth-first walk back along the predecessor lists of `_steps`."""
    hit = set(seeds)
    frontier = list(hit)
    for pair in frontier:  # the walk appends to the list it reads
        for pred in steps[pair][3]:
            if pred in members and pred not in hit:
                hit.add(pred)
                frontier.append(pred)
    return hit


def _settled(steps: dict, reached: frozenset, continuing: set, unassigned: set) -> frozenset:
    """The pairs of `reached` whose J no completion of a census node changes:
    those with no step into a pair that reaches an `unassigned` slot through
    `continuing` pairs."""
    unsettled = _closure(continuing, unassigned, steps)
    return reached - {pred for pair in unsettled for pred in steps[pair][3]}


def _solve_on(mode, steps: dict, unknowns: list, column: int, constant) -> tuple[dict, int]:
    """Solve s * u = constant + sum(coefficient * u(next)) on `unknowns`, where
    s is the row scale of `_steps`, the coefficient is entry `column` of a
    successor there (1: prob, 2: discount * prob, both times s) and a
    successor outside `unknowns` adds nothing.  Returns the numerators of u
    and their common denominator: exact mode solves over the integers with
    `solve_integer`, float mode with `solve_linear` over denominator 1."""
    if not unknowns:
        return {}, 1
    index = {pair: i for i, pair in enumerate(unknowns)}
    matrix = []
    for i, pair in enumerate(unknowns):
        row_steps, _, scale, _ = steps[pair]
        row = [0] * len(unknowns)
        row[i] = scale
        for step in row_steps:
            j = index.get(step[0])
            if j is not None:  # a successor pair occurs once per row
                row[j] = scale - step[column] if j == i else -step[column]
        matrix.append(row)
    rhs = [constant(pair) for pair in unknowns]
    if mode.exact:
        numerators, denominator = solve_integer(matrix, rhs)
    else:
        numerators, denominator = solve_linear(matrix, rhs), 1
    return dict(zip(unknowns, numerators)), denominator


class _Numerators(dict):
    """`_evaluate`'s numerators by pair, with `pairs`, the pairs evaluated, in
    order; `entry(pair)` forms a stopping pair's the first time it is read."""

    def __missing__(self, pair: Pair) -> tuple:
        self[pair] = value = self.entry(pair)
        return value


def _evaluate(
    model: MarkovModel, steps: dict, continuing: set, pairs: list, reachable: frozenset
) -> _Numerators:
    """`evaluate` on `pairs`, domain pairs closed under in-domain transitions,
    of the policy that continues at `continuing` (pairs of `pairs`) and
    stops elsewhere, as numerators: per pair (h, p, hd, qd) with h/hd and
    p/qd the entries of `evaluate` and J = (h * qd) / (p * hd) where p > 0.

    No continuation leaves a closed set, so the tables on `pairs` are those
    of `evaluate`.  `steps` is `_steps` on at least `pairs` for the policy's
    period.  Both systems are solved for numerators over a common
    denominator, and each pair's h and q numerators are accumulated from
    them in row order; hd and qd are positive integers (1 in float mode).
    Continuing pairs are filled at once, in `pairs` order, with admissibility
    checked on those in `reachable`; stopping pairs when first read.
    `_tables` converts the entries and `_response` compares against them.
    """
    mode, delta = model.mode, model.discount
    cont = [pair for pair in pairs if pair in continuing]
    exiting = {pair for pair in cont if steps[pair][1] > 0}

    if mode.eq(delta, 1):  # the continuing pairs that reach an exit or a stop
        transient = _closure(continuing, exiting | (set(pairs) - continuing), steps)
        stuck = [pair for pair in cont if pair not in transient]
        if stuck:
            raise PolicyError(
                "discount 1 requires the continuation region to reach a stop or "
                f"exit almost surely; pair (phase {stuck[0][0]}, state {stuck[0][1]!r}) cannot"
            )

    # Conditional payoff numerator: one unknown per continuing pair.
    def stop_gain(pair: Pair) -> Scalar:
        return sum_in_order((step[3] for step in steps[pair][0] if step[0] not in continuing), 0)

    h_cont, h_den = _solve_on(mode, steps, cont, 2, stop_gain)
    # Exit-hitting probability: minimal nonnegative solution, i.e. zero on
    # pairs from which the exit is unreachable, then a nonsingular system on
    # the rest.
    can_exit = _closure(continuing, exiting, steps)
    qpairs = [pair for pair in cont if pair in can_exit]
    q_solved, q_den = _solve_on(mode, steps, qpairs, 1, lambda pair: steps[pair][1])
    q_cont = dict.fromkeys(cont, 0) | q_solved

    def entry(pair: Pair) -> tuple:
        if pair in continuing:
            h, q, scale = h_cont[pair], q_cont[pair], 1
        else:  # one step, then the continuation or a stop, in state order
            row, exit_mass, scale, _ = steps[pair]
            h, q = 0, exit_mass * q_den
            for succ, prob, discounted, gain in row:
                if succ in continuing:
                    h += discounted * h_cont[succ]
                    q += prob * q_cont[succ]
                else:
                    h += gain * h_den
        qd = scale * q_den
        return h, qd - q, scale * h_den, qd

    # p > floor is mode.gt(p / qd, 0): qd > 0, and qd = 1 in float mode.
    floor = mode.tolerance()
    numerators = _Numerators()
    numerators.pairs, numerators.entry = pairs, entry
    for pair in cont:
        numerators[pair] = value = entry(pair)
        if not value[1] > floor and pair in reachable:
            phase, x = pair
            if not mode.gt(model.domain_successor_mass(x), 0):
                reason = "must stop when every transition leaves the domain"
            else:
                reason = "continuation almost surely leaves the domain before stopping"
            raise InadmissiblePolicyError(
                AdmissibilityResult(False, f"(phase {phase}, state {x})", reason)
            )
    return numerators


def _tables(
    model: MarkovModel, period: int, numerators: _Numerators, reachable: frozenset
) -> PolicyEvaluation:
    """The `PolicyEvaluation` of `_evaluate`'s numerators, one conversion per
    entry by `NumericMode.ratio`, in the order of `numerators.pairs`."""
    ratio = model.mode.ratio
    floor = model.mode.tolerance()
    entries = [(pair, numerators[pair]) for pair in numerators.pairs]
    return PolicyEvaluation(
        period,
        {pair: ratio(h, hd) for pair, (h, _, hd, _) in entries},
        {pair: ratio(p, qd) for pair, (_, p, _, qd) in entries},
        {pair: ratio(h * qd, p * hd) for pair, (h, p, hd, qd) in entries if p > floor},
        reachable,
    )


def _numerators(model: MarkovModel, policy: PeriodicMarkovPolicy) -> tuple:
    """`_evaluate` on every domain pair, the reachable pairs, and the pairs
    where `policy` continues."""
    _require_infinite(model)
    _validate_regions(model, policy)
    pairs = _domain_pairs(model, policy.period)
    steps = _steps(model, pairs, policy.period)
    continuing = {pair for pair in pairs if not policy.stops(*pair)}
    reachable = reachable_pairs(model, policy.period)
    return _evaluate(model, steps, continuing, pairs, reachable), reachable, continuing


def evaluate(model: MarkovModel, policy: PeriodicMarkovPolicy) -> PolicyEvaluation:
    """Exact (h, p, J) tables for a periodic Markov policy on every domain pair.

    Raises when the policy is unusable: a reachable in-domain pair that
    continues but whose continuation leaves the domain almost surely has no
    conditional value (the observer would condition on a null event).
    """
    numerators, reachable, _ = _numerators(model, policy)
    return _tables(model, policy.period, numerators, reachable)


def _must_stop(model: MarkovModel) -> frozenset:
    """Forced-stop states and dead ends (every transition leaves the domain)."""
    dead = {x for x in model.domain if not model.mode.gt(model.domain_successor_mass(x), 0)}
    return model.forced_stop | dead


def _response(
    model: MarkovModel, numerators: dict, pair: Pair, must_stop: frozenset
) -> Optional[int]:
    """The best response at a domain pair as a sign: +1 stop, -1 continue,
    0 a tie, None where p = 0; always +1 on `must_stop` (`_must_stop(model)`).

    Read off `_evaluate`'s numerators.  In exact mode payoff a/b against
    J = h * qd / (p * hd) is the sign of a * p * hd - b * h * qd, since b, p,
    hd and qd are positive; float mode compares with the float J at scale 1.
    """
    if pair[1] in must_stop:
        return 1
    h, p, hd, qd = numerators[pair]
    mode, payoff = model.mode, model.payoff[pair[1]]
    if not p > mode.tolerance():
        return None
    if mode.exact:
        diff = payoff.numerator * p * hd - payoff.denominator * h * qd
        return (diff > 0) - (diff < 0)
    return mode.compare(payoff, h * qd / (p * hd))


def phi_markov(model: MarkovModel, policy: PeriodicMarkovPolicy) -> PeriodicMarkovPolicy:
    """Best response within the periodic class, pair by pair, by `_response`.

    The new bit stops when the state payoff strictly beats J = h/p, continues
    when it strictly loses, and keeps the old bit on ties and where p = 0 (no
    conditional value exists to compare against).  Forced-stop states, dead
    ends and exit states stop in every region.
    """
    numerators, must_stop = _numerators(model, policy)[0], _must_stop(model)
    regions = []
    for phase in range(policy.period):
        signs = {x: _response(model, numerators, (phase, x), must_stop) for x in model.domain}
        stop = {x for x, sign in signs.items() if (sign > 0 if sign else policy.stops(phase, x))}
        regions.append(model.exit_states | stop)
    return PeriodicMarkovPolicy(policy.period, tuple(regions))


def _equilibrium_deviations(
    model: MarkovModel,
    continuing: set,
    numerators: dict,
    preference: MarkovPreference,
    reached: Iterable[Pair],
    must_stop: frozenset,
) -> tuple[str, ...]:
    """Pairs of `reached` whose bit (0 on `continuing`) is not the best
    response of `_response`; a tie must take the preferred bit when a
    preference is set."""
    deviations = []
    for phase, x in reached:
        sign = _response(model, numerators, (phase, x), must_stop)
        if sign is None or (sign == 0 and preference is None):
            continue
        stop = sign > 0 if sign else preference == "early"
        if stop == ((phase, x) in continuing):
            reason = ("continuation beats payoff", "tie broken against preference",
                      "payoff beats continuation")[sign + 1]
            deviations.append(f"(phase {phase}, state {x}): {reason}")
    return tuple(deviations)


def is_periodic_equilibrium(
    model: MarkovModel,
    policy: PeriodicMarkovPolicy,
    preference: MarkovPreference = None,
) -> EquilibriumResult:
    """Admissible and a fixed point of `phi_markov` on the reachable pairs,
    where a tie must take the preferred bit when a preference is set."""
    preference = _preference(preference)
    try:
        numerators, reachable, continuing = _numerators(model, policy)
    except PolicyError as exc:
        return EquilibriumResult(False, reason=str(exc))
    reached = [pair for pair in numerators.pairs if pair in reachable]
    deviations = _equilibrium_deviations(
        model, continuing, numerators, preference, reached, _must_stop(model)
    )
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
    stands for one almost-sure class, represented as `_traps` says.  Exit
    and forced states sit in every region.  A candidate survives when its
    evaluation succeeds and it is a fixed point of `phi_markov` on the
    reachable pairs, ties taking the preferred bit if one is set.

    Dominant states (`_dominant`) have a payoff above every J they can face,
    so every equilibrium stops at their reachable pairs: those pairs get bit
    1 and are not slots.  Every survivor has bit 1 there anyway, so dropping
    them changes neither the survivors nor their order.

    The search is depth first over the open slots, slots[-1] first and
    slots[0] last, bit 0 before bit 1, so survivors come in the order of
    their bits read as a binary number (bit i for slots[i]).  A node stops
    at the slots it has not assigned and is evaluated on the reachable
    pairs, which are closed under in-domain transitions; the step table and
    the reachable pairs are built once.  Two rules prune every completion
    below a node.  If its evaluation fails, so does each completion:
    continuing at more slots only lowers p and, at discount 1, only grows
    the pairs that reach no stop.  And a pair's J is final once no
    unassigned slot can be reached from its successors through continuing
    pairs, so an assigned pair whose final J disagrees with its bit is a
    deviation in every completion.  A slot whose J is already final takes
    the bits its best response allows (both on a tie with no preference).
    The pairs that reach an unassigned slot come from one backward walk of
    the step table's predecessor lists; the final pairs are the reachable
    pairs outside their predecessors.

    A node carries its continuing pairs (a bit-0 child adds its slot, a
    bit-1 child keeps them and shares its parent's evaluation) and the
    assigned final pairs already checked, and checks only its newly final
    ones.  The final pairs only grow down the tree: a child's unassigned
    slots are its parent's less the slot it assigns, and at most that slot
    joins its continuing pairs, so a pair that reaches a child's unassigned
    slot reached a parent's.  A final pair's J and bit are the same in every
    completion, and so is its verdict (in float mode, up to the rounding of
    the solve).  A node reads each best response as a sign from `_evaluate`'s
    numerators, which it forms at a stopping pair only when read.  Only
    survivors are evaluated on every domain pair (unless every domain pair
    is reachable) and converted, so each carries the tables `evaluate`
    gives.  The size guard counts candidates, here search nodes, made and
    queued, and raises once they exceed it, before the node just taken
    queues its children.
    """
    _require_infinite(model)
    if period < 1:
        raise PolicyError("period must be at least 1")
    guard = DEFAULT_POLICY_GUARD if size_guard is None else size_guard
    free = [x for x in model.states if x in model.domain and x not in model.forced_stop]
    reachable = reachable_pairs(model, period)
    dominant = _dominant(model, free)
    slots = [
        (phase, x)
        for phase in range(period)
        for x in free
        if (phase, x) in reachable and x not in dominant
    ]
    preference = _preference(preference)
    pairs = _domain_pairs(model, period)
    reached = [pair for pair in pairs if pair in reachable]
    must_stop = _must_stop(model)

    steps = _steps(model, pairs, period)
    traps = _traps(model)  # a representative continues at other unreachable free pairs
    idle = {(t, x) for t, x in pairs if (t, x) not in reachable and x in free and x not in traps}

    # A node: slots[:k] unassigned, its continuing and checked pairs, and its
    # numerators, None until popped unless shared with a bit-1 parent.
    found: list[PeriodicEquilibrium] = []
    stack = [(len(slots), frozenset(), frozenset(), None)]
    made = 0
    while stack:
        k, continuing, checked, numerators = stack.pop()
        made += 1
        if made + len(stack) > guard:
            raise SizeGuardError(made + len(stack), guard)
        if numerators is None:
            try:
                numerators = _evaluate(model, steps, continuing, reached, reachable)
            except PolicyError:
                continue  # continuing at more slots cannot repair it
        unassigned = set(slots[:k])
        final = _settled(steps, reachable, continuing, unassigned)
        fresh = final - unassigned - checked
        if fresh and _equilibrium_deviations(
            model, continuing, numerators, preference, fresh, must_stop
        ):
            continue
        checked |= fresh
        if not k:
            every = continuing | idle
            regions = [{x for x in model.states if (t, x) not in every} for t in range(period)]
            policy = PeriodicMarkovPolicy(period, tuple(regions))
            if len(reached) < len(pairs):
                numerators = _evaluate(model, steps, every, pairs, reachable)
            found.append(PeriodicEquilibrium(policy, _tables(model, period, numerators, reachable)))
            continue
        slot = slots[k - 1]
        bits = (0, 1)
        if slot in final:
            sign = _response(model, numerators, slot, must_stop)
            if sign is None or sign > 0:
                bits = (1,)
            elif sign < 0:
                bits = (0,)
            elif preference is not None:
                bits = (int(preference == "early"),)
        if 1 in bits:
            stack.append((k - 1, continuing, checked, numerators))
        if 0 in bits:
            stack.append((k - 1, continuing | {slot}, checked, None))
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
    reachable = {x for _, x in reachable_pairs(model, 1)}
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
    fixed point of the best response; at pairs no truncation decided, it
    takes the census's representative bits (`_traps`).
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
    """Per-(time, state) stop bits of the finite-horizon solution, by one sweep of
    the cells."""
    cells = _Cells(model, horizon)
    bits = _sweep(cells, _best_bit(cells, lambda _: 1))[0]
    return {cell: bit for cell, bit in bits.items() if cell[1] is not None}


def truncation_limit(
    model: MarkovModel, max_horizon: int, stability_window: int
) -> TruncationReport:
    """Solve the last `stability_window` horizons up to max_horizon, horizon T
    by one sweep over the (time, state) cells at cost O(T·|S|²), and report
    which decisions stabilize.

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
        default = dict.fromkeys(_traps(model), 1)  # where no truncation decided
        for period in range(1, min(8, depth + 1) + 1):
            merged: list[dict[State, int]] = [dict() for _ in range(period)]
            for (time, x), bit in decisions.items():
                if merged[time % period].setdefault(x, bit) != bit:
                    break
            else:
                candidate = PeriodicMarkovPolicy(
                    period,
                    tuple(
                        frozenset(pinned | {x for x, bit in (default | row).items() if bit})
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
