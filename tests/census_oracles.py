"""Oracles for the periodic census's node evaluation and bookkeeping.

`evaluate_by_fractions` is `infinite._evaluate` as it was before the node
evaluation moved to integers: the step table holds unscaled rationals (or
floats), the h and q systems are solved as `Fraction` matrices by
`solve_exact` (exact mode) or `solve_linear` (float mode), and every table
entry is built by `Fraction` (or float) arithmetic.  `infinite._evaluate`,
which scales each row once per census and solves over the integers, must
give numerators that `infinite._tables` converts to the same tables, bit
for bit in float mode, and raise the same errors.

`closure_by_fixpoint` is the fixed-point loop that `infinite._closure`'s
backward walk replaced, and `response_by_tables` the best-response rule as
it read J before `infinite._response` took signs from numerators.

`census_by_full_checks` is the periodic census's node loop as it was before
nodes carried their state: each node holds its policy, scans the reached
pairs for its continuing set, forms the numerators of every reached pair
and checks every assigned final pair, however many of its ancestors
checked it already.
"""

import math
from fractions import Fraction
from operator import truediv

from condstop import infinite
from condstop.infinite import PeriodicEquilibrium, PeriodicMarkovPolicy, PolicyEvaluation
from condstop.numeric import SingularSystemError, solve_linear, sum_in_order
from condstop.policy import (
    DEFAULT_POLICY_GUARD,
    AdmissibilityResult,
    InadmissiblePolicyError,
    PolicyError,
    SizeGuardError,
    _preference,
)


def solve_exact(matrix, rhs):
    """`solve_linear` on rationals, by fraction-free elimination over integers:
    each row is scaled by the lcm of its denominators, and one Fraction is
    made per unknown."""
    n = len(rhs)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix shape does not match right-hand side")
    rows = []
    for row, b in zip(matrix, rhs):
        entries = [*row, b]
        scale = math.lcm(*(a.denominator for a in entries))
        rows.append([a.numerator * (scale // a.denominator) for a in entries])
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            raise SingularSystemError(f"singular at column {col}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivots = rows[col]
        pivot = pivots[col]
        for r in range(n):
            factor = rows[r][col]
            if r == col or not factor:
                continue
            row = [pivot * a - factor * b for a, b in zip(rows[r], pivots)]
            divisor = math.gcd(*row)
            rows[r] = [a // divisor for a in row] if divisor > 1 else row
    return [Fraction(row[n], row[i]) for i, row in enumerate(rows)]


def closure_by_fixpoint(pairs, seeds, successors):
    """Members of `pairs` (product pairs or states) that reach `seeds` via
    `successors`, and the seeds: sweep `pairs` until nothing is added."""
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


def response_by_tables(model, evaluation, pair, must_stop):
    """The best response at a domain pair from a `PolicyEvaluation`: +1 on
    `must_stop`, None where J is missing, else `mode.compare(payoff, J)`."""
    if pair[1] in must_stop:
        return 1
    J = evaluation.J.get(pair)
    return None if J is None else model.mode.compare(model.payoff[pair[1]], J)


def rational_steps(model, pairs, period):
    """Per (phase, x) of `pairs`: the in-domain successors y of x, each as
    ((phase + 1 mod period, y), p, discount * p, discount * p * payoff(y)),
    and the exit mass of x."""
    delta, payoff = model.discount, model.payoff
    steps = {}
    for phase, x in pairs:
        successors, exit_mass = model._split[x]
        nxt = (phase + 1) % period
        steps[phase, x] = (
            [((nxt, y), p, delta * p, delta * p * payoff[y]) for y, p in successors],
            exit_mass,
        )
    return steps


def _solve_on(mode, steps, unknowns, column, constant):
    if not unknowns:
        return {}
    index = {pair: i for i, pair in enumerate(unknowns)}
    matrix = [[mode.zero] * len(unknowns) for _ in unknowns]
    for i, pair in enumerate(unknowns):
        matrix[i][i] = mode.one
        for step in steps[pair][0]:
            j = index.get(step[0])
            if j is not None:
                matrix[i][j] = mode.one - step[column] if j == i else -step[column]
    solve = solve_exact if mode.exact else solve_linear
    return dict(zip(unknowns, solve(matrix, [constant(pair) for pair in unknowns])))


def evaluate_by_fractions(model, policy, pairs, reachable):
    """The (h, p, J) tables of `policy` on `pairs`, domain pairs closed under
    in-domain transitions, with admissibility checked on `reachable`."""
    mode, delta = model.mode, model.discount
    steps = rational_steps(model, pairs, policy.period)
    continuing = [pair for pair in pairs if not policy.stops(*pair)]
    cont = set(continuing)
    exiting = {pair for pair in continuing if steps[pair][1] > 0}

    def successors(pair):
        return (step[0] for step in steps[pair][0])

    if mode.eq(delta, 1):
        ends = exiting | {p for p in continuing if any(s not in cont for s in successors(p))}
        transient = closure_by_fixpoint(continuing, ends, successors)
        stuck = [pair for pair in continuing if pair not in transient]
        if stuck:
            raise PolicyError(
                "discount 1 requires the continuation region to reach a stop or "
                f"exit almost surely; pair (phase {stuck[0][0]}, state {stuck[0][1]!r}) cannot"
            )

    def stop_gain(pair):
        gains = (step[3] for step in steps[pair][0] if step[0] not in cont)
        return sum_in_order(gains, mode.zero)

    h_cont = _solve_on(mode, steps, continuing, 2, stop_gain)
    can_exit = closure_by_fixpoint(continuing, exiting, successors)
    qpairs = [pair for pair in continuing if pair in can_exit]
    q_cont = dict.fromkeys(continuing, mode.zero)
    q_cont.update(_solve_on(mode, steps, qpairs, 1, lambda pair: steps[pair][1]))

    h_table, p_table, j_table = {}, {}, {}
    for pair in pairs:
        if pair in cont:
            h_val, q_val = h_cont[pair], q_cont[pair]
        else:
            row, q_val = steps[pair]
            h_val = mode.zero
            for succ, prob, discounted, gain in row:
                if succ in cont:
                    h_val += discounted * h_cont[succ]
                    q_val += prob * q_cont[succ]
                else:
                    h_val += gain
        h_table[pair] = h_val
        p_table[pair] = p_val = mode.one - q_val
        if mode.gt(p_val, 0):
            j_table[pair] = h_val / p_val
        elif pair in cont and pair in reachable:
            phase, x = pair
            if not mode.gt(model.domain_successor_mass(x), 0):
                reason = "must stop when every transition leaves the domain"
            else:
                reason = "continuation almost surely leaves the domain before stopping"
            raise InadmissiblePolicyError(
                AdmissibilityResult(False, f"(phase {phase}, state {x})", reason)
            )
    return PolicyEvaluation(policy.period, h_table, p_table, j_table, reachable)


def _eager(model, steps, policy, pairs, reachable):
    """`infinite._evaluate` for `policy` on `pairs`, as a plain dict with an
    entry for every pair, in `pairs` order."""
    continuing = {pair for pair in pairs if not policy.stops(*pair)}
    numerators = infinite._evaluate(model, steps, continuing, pairs, reachable)
    return {pair: numerators[pair] for pair in pairs}


def _tables_by_items(model, period, numerators, reachable):
    """The `PolicyEvaluation` of an eager numerator dict, in its key order."""
    ratio = Fraction if model.mode.exact else truediv
    floor, entries = model.mode.tolerance(), numerators.items()
    return PolicyEvaluation(
        period,
        {pair: ratio(h, hd) for pair, (h, _, hd, _) in entries},
        {pair: ratio(p, qd) for pair, (_, p, _, qd) in entries},
        {pair: ratio(h * qd, p * hd) for pair, (h, p, hd, qd) in entries if p > floor},
        reachable,
    )


def _deviates(model, policy, numerators, preference, assigned, must_stop):
    """Some pair of `assigned` takes a bit its best response rules out."""
    for pair in assigned:
        sign = infinite._response(model, numerators, pair, must_stop)
        if sign is None or (sign == 0 and preference is None):
            continue
        if (sign > 0 if sign else preference == "early") != policy.stops(*pair):
            return True
    return False


def census_by_full_checks(model, period, preference=None, size_guard=None):
    """`infinite.enumerate_periodic_equilibria`, node by node as described in
    the module docstring: the same search order, pruning and size guard."""
    infinite._require_infinite(model)
    if period < 1:
        raise PolicyError("period must be at least 1")
    guard = DEFAULT_POLICY_GUARD if size_guard is None else size_guard
    free = [x for x in model.states if x in model.domain and x not in model.forced_stop]
    reachable = infinite.reachable_pairs(model, period)
    dominant = infinite._dominant(model, free)
    slots = [
        (phase, x)
        for phase in range(period)
        for x in free
        if (phase, x) in reachable and x not in dominant
    ]
    preference = _preference(preference)
    pairs = infinite._domain_pairs(model, period)
    reached = [pair for pair in pairs if pair in reachable]
    must_stop = infinite._must_stop(model)
    steps = infinite._steps(model, pairs, period)
    traps = infinite._traps(model)
    stop_all = [
        model.exit_states
        | model.forced_stop
        | {x for x in traps if (phase, x) not in reachable}
        | {x for x in free if (phase, x) in reachable}
        for phase in range(period)
    ]
    found = []
    stack = [(len(slots), PeriodicMarkovPolicy(period, tuple(stop_all)), None)]
    made = 0
    while stack:
        k, policy, numerators = stack.pop()
        made += 1
        if made + len(stack) > guard:
            raise SizeGuardError(made + len(stack), guard)
        if numerators is None:
            try:
                numerators = _eager(model, steps, policy, reached, reachable)
            except PolicyError:
                continue
        unassigned = set(slots[:k])
        continuing = {pair for pair in reached if not policy.stops(*pair)}
        final = infinite._settled(steps, reachable, continuing, unassigned)
        assigned = [pair for pair in reached if pair in final and pair not in unassigned]
        if _deviates(model, policy, numerators, preference, assigned, must_stop):
            continue
        if not k:
            if len(reached) < len(pairs):
                numerators = _eager(model, steps, policy, pairs, reachable)
            evaluation = _tables_by_items(model, period, numerators, reachable)
            found.append(PeriodicEquilibrium(policy, evaluation))
            continue
        slot = slots[k - 1]
        bits = (0, 1)
        if slot in final:
            sign = infinite._response(model, numerators, slot, must_stop)
            if sign is None or sign > 0:
                bits = (1,)
            elif sign < 0:
                bits = (0,)
            elif preference is not None:
                bits = (int(preference == "early"),)
        if 1 in bits:
            stack.append((k - 1, policy, numerators))
        if 0 in bits:
            phase, x = slot
            regions = list(policy.regions)
            regions[phase] = regions[phase] - {x}
            stack.append((k - 1, PeriodicMarkovPolicy(period, tuple(regions)), None))
    return found
