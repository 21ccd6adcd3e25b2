"""Command-line front end.

Subcommands map one-to-one onto library operations: `solve` runs the backward
recursion, `precommit` the precommitted optimum by Dinkelbach sweeps, `phi`
one step of the best-response map, `enumerate` equilibrium enumeration
(finite trees or periodic Markov), `verify` the condition batteries,
`truncate` the growing-horizon diagnostic, and `example` the full battery on
a built-in model.  Reports are printed as tables or, with --json, as a
deterministic JSON document whose only run-dependent field is the timing.

Exit codes: 0 success, 1 a verification ran and failed, 2 unparsable input,
3 structurally invalid model or policy, 4 an equilibrium census counted more
candidates than its size guard allows (set it with CONDSTOP_SIZE_GUARD).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from typing import Optional, Union

from .catalog import (
    BUILTIN_MODELS,
    builtin_model,
    check_minnie_donald_conditions,
    minnie_donald_cycle_regions,
    minnie_donald_homogeneous_policy,
    two_state_history_policy,
)
from .infinite import (
    PeriodicMarkovPolicy,
    check_growth,
    enumerate_periodic_equilibria,
    is_periodic_equilibrium,
    phi_markov,
    truncation_limit,
)
from .model import AtomTree, MarkovModel, ModelError, _Cells, unroll
from .modelio import (
    CellPairText,
    ParseError,
    PolicyDocument,
    _indented,
    cell_pair,
    dump_pair,
    dump_policy,
    load_model,
    load_pair,
    load_policy,
    model_digest,
    read_json,
)
from .numeric import (
    EXACT,
    NumericError,
    SingularSystemError,
    decimal_render,
    float_mode,
    format_scalar,
)
from .policy import (
    PolicyError,
    SizeGuardError,
    StoppingPolicy,
    _equilibria,
    enumerate_equilibria,
    is_equilibrium,
    phi,
    precommitted,
)
from .recursion import SnellPair, backward_solve, verify_pair_and_policy, verify_snell_pair

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_INVALID_MODEL = 3
EXIT_SIZE_GUARD = 4

_INVALID = (ModelError, NumericError, PolicyError)  # exit 3


def _fmt(value) -> str:
    return f"{format_scalar(value)} ({decimal_render(value)})"


def _size_guard() -> Optional[int]:
    raw = os.environ.get("CONDSTOP_SIZE_GUARD")
    if raw is None:
        return None
    try:
        guard = int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer CONDSTOP_SIZE_GUARD={raw!r}", file=sys.stderr)
        return None
    if guard < 1:  # every census makes at least one candidate
        print(f"warning: ignoring CONDSTOP_SIZE_GUARD={raw!r} below 1", file=sys.stderr)
        return None
    return guard


def _mode(args):
    """The float mode at --eps (default 1e-9) with --float, else exact mode,
    which has no tolerance and refuses an --eps it would ignore."""
    if args.eps is None:
        return float_mode() if args.float else EXACT
    if not (math.isfinite(args.eps) and args.eps > 0):
        raise ParseError(f"--eps must be finite and positive, got {args.eps!r}")
    if not args.float:
        raise ModelError(f"exact mode compares without tolerance; --eps {args.eps} does not apply")
    return float_mode(args.eps)


def _load_any_model(args):
    if args.model in BUILTIN_MODELS:
        return builtin_model(args.model, mode=_mode(args))
    return load_model(read_json(args.model), mode=_mode(args))


def _chain_horizon(model: MarkovModel, horizon: Optional[int]) -> Optional[int]:
    if horizon is None and model.horizon is None:
        raise ModelError("infinite-horizon chain: supply --horizon to unroll")
    return horizon


def _as_tree(model, horizon: Optional[int]) -> AtomTree:
    if isinstance(model, AtomTree):
        if horizon is not None and horizon != model.horizon:
            raise ModelError(
                f"tree model has horizon {model.horizon}; --horizon {horizon} conflicts"
            )
        return model
    return unroll(model, _chain_horizon(model, horizon))


def _as_cells(model, horizon: Optional[int]) -> Union[AtomTree, _Cells]:
    """`_as_tree` without unrolling: a chain's (time, state) cells; a tree
    model as `_as_tree` returns it."""
    if isinstance(model, AtomTree):
        return _as_tree(model, horizon)
    return _Cells(model, _chain_horizon(model, horizon))


def _no_horizon(args, reason: str) -> None:
    """Refuse a --horizon the command would otherwise ignore."""
    if args.horizon is not None:
        raise ModelError(f"{reason}; --horizon {args.horizon} does not apply")


def _periodic_chain(args, model) -> None:
    """Refuse --period off a chain, or with a --horizon it would ignore."""
    if not isinstance(model, MarkovModel):
        raise ModelError("--period applies to chain models only")
    _no_horizon(args, "--period works on the infinite-horizon chain")


def _tree_policy(doc_policy, tree: AtomTree) -> Optional[StoppingPolicy]:
    """A region document projected onto the tree or cells; a `decisions`
    policy, or no policy, as it is."""
    if doc_policy is None or isinstance(doc_policy, StoppingPolicy):
        return doc_policy
    return doc_policy.on_tree(tree)


def _policy_document(tree: AtomTree, policy: StoppingPolicy) -> dict:
    """Stop regions per level when the policy is Markov, else per-atom bits."""
    bits = policy.markov_bits(tree)
    if bits is None:
        return dump_policy(policy)
    regions: dict[str, list] = {}
    for (level, x), bit in bits.items():  # in level order
        row = regions.setdefault(str(level), [])
        if bit:
            row.append(str(x))
    return {"regions": {level: sorted(row) for level, row in regions.items()}}


def cmd_solve(args):
    """Backward recursion and its equilibrium check.  A chain is solved on its
    cells, since its stop rule, V and S depend only on (time, state); only the
    pair document lists the atoms of the unrolled tree, and its text is made
    only when a `--json` report is written (`CellPairText`)."""
    model = _load_any_model(args)
    tree = _as_cells(model, args.horizon)
    pair, policy = backward_solve(tree)
    check = is_equilibrium(tree, policy)
    root = tree.root.id
    results = {
        "V0": format_scalar(pair.values[root]),
        "S0": format_scalar(pair.survival[root]),
        "theta0": policy.bit(root),
        "policy": _policy_document(tree, policy),
        "pair": dump_pair(pair) if isinstance(tree, AtomTree) else CellPairText(tree, pair),
    }
    verification = {"is_equilibrium": bool(check)}
    lines = [
        f"V_0 = {_fmt(pair.values[root])}",
        f"S_0 = {_fmt(pair.survival[root])}",
        f"theta_0 = {policy.bit(root)}",
        f"equilibrium: {'yes' if check else 'no'}",
    ]
    regions = results["policy"].get("regions")
    if regions:
        lines.append("stop regions by time:")
        for level, states in regions.items():
            lines.append(f"  t={level}: {{{', '.join(states)}}}")
    else:
        stops = sorted(aid for aid in policy.decisions if policy.stops(aid))
        lines.append(f"stop atoms: {{{', '.join(stops)}}}")
    code = EXIT_OK if check else EXIT_VERIFICATION_FAILED
    return model, results, verification, lines, code


def cmd_precommit(args):
    model = _load_any_model(args)
    tree = _as_tree(model, args.horizon)
    result = precommitted(tree)
    results = {
        "value": format_scalar(result.value),
        "stop_atoms": sorted(result.stop_atoms),
        "stopping_times_examined": result.candidates,
    }
    lines = [
        f"precommitted value = {_fmt(result.value)}",
        f"maximizer stops at: {{{', '.join(sorted(result.stop_atoms))}}}",
        f"stopping times examined: {result.candidates}",
    ]
    return model, results, {}, lines, EXIT_OK


def cmd_phi(args):
    model = _load_any_model(args)
    doc = _read_policy(args, model)
    if args.period is not None:
        _periodic_chain(args, model)
        if not isinstance(doc, PeriodicMarkovPolicy):
            raise ParseError("--period needs a policy document with a 'period' field")
        if doc.period != args.period:
            raise ParseError(
                f"--period {args.period} disagrees with the policy's period {doc.period}"
            )
        updated = phi_markov(model, doc)
        changed = {}
        for phase in range(doc.period):
            before, after = doc.regions[phase], updated.regions[phase]
            if before != after:
                changed[str(phase)] = {
                    "added": sorted(map(str, after - before)),
                    "removed": sorted(map(str, before - after)),
                }
        results = {"policy": dump_policy(updated), "changed": changed}
        lines = ["updated policy:"]
        for phase, region in enumerate(updated.regions):
            lines.append(f"  phase {phase}: {{{', '.join(sorted(map(str, region)))}}}")
        lines.append(f"changed phases: {list(changed) if changed else 'none'}")
        return model, results, {}, lines, EXIT_OK
    tree = _as_tree(model, args.horizon)
    policy = _tree_policy(doc, tree)
    updated = phi(tree, policy)
    changed = sorted(
        aid for aid in tree.atom_ids() if policy.bit(aid) != updated.bit(aid)
    )
    results = {"policy": _policy_document(tree, updated), "changed": changed}
    lines = [
        f"changed atoms: {{{', '.join(changed)}}}" if changed else "fixed point: no change"
    ]
    return model, results, {}, lines, EXIT_OK


def cmd_enumerate(args):
    model = _load_any_model(args)
    if args.period is not None:
        _periodic_chain(args, model)
        found = enumerate_periodic_equilibria(
            model, args.period, preference=args.preference, size_guard=_size_guard()
        )
        order = {x: i for i, x in enumerate(model.states)}
        entries = []
        for eq in found:
            values = {
                f"phase {phase}, state {x}": format_scalar(eq.evaluation.J[(phase, x)])
                for (phase, x) in sorted(
                    eq.evaluation.reachable, key=lambda pr: (pr[0], order[pr[1]])
                )
                if (phase, x) in eq.evaluation.J
            }
            entries.append({"policy": dump_policy(eq.policy), "J": values})
        results = {"count": len(found), "equilibria": entries}
        lines = [f"equilibria found: {len(found)}"]
        for i, (eq, entry) in enumerate(zip(found, entries)):
            lines.append(f"equilibrium {i + 1}:")
            for phase, region in enumerate(eq.policy.regions):
                lines.append(f"  phase {phase}: {{{', '.join(sorted(map(str, region)))}}}")
            for pair_name, value in entry["J"].items():
                lines.append(f"  J({pair_name}) = {value}")
        return model, results, {}, lines, EXIT_OK
    tree = _as_tree(model, args.horizon)
    found = _equilibria(tree, args.preference, _size_guard())
    entries = []
    root = tree.root.id
    for bits, tables in found:
        value = tree.root.payoff if bits[root] else tree.mode.ratio(*tables[root][:2])
        entries.append(
            {
                "policy": _policy_document(tree, StoppingPolicy(bits)),
                "stop_atoms": sorted(a for a, bit in bits.items() if bit),
                "root_value": format_scalar(value),
            }
        )
    results = {"count": len(found), "equilibria": entries}
    lines = [f"equilibria found: {len(found)}"]
    for i, entry in enumerate(entries):
        lines.append(
            f"equilibrium {i + 1}: root value {entry['root_value']}, "
            f"stops at {{{', '.join(entry['stop_atoms'])}}}"
        )
    return model, results, {}, lines, EXIT_OK


def _read_policy(args, model) -> Optional[PolicyDocument]:
    if args.policy is None:
        return None
    return load_policy(read_json(args.policy), model if isinstance(model, MarkovModel) else None)


def _conditions(report) -> dict:
    return {
        c.name: {"passed": c.passed, "failures": [list(f) for f in c.failures]}
        for c in report.conditions
    }


def _verify_report(
    tree, pair: Optional[SnellPair], policy: Optional[StoppingPolicy]
) -> tuple[dict, list[str], int]:
    """The verification document, report lines and exit code of the battery
    for what is given: the pair, the policy, or both together."""
    report = check = identities = None
    if pair is not None and policy is not None:
        report, check, identities = verify_pair_and_policy(tree, pair, policy)
    elif pair is not None:
        report = verify_snell_pair(tree, pair)
    else:
        check = is_equilibrium(tree, policy)
    verification: dict = {}
    lines: list[str] = []
    failed = False
    if report is not None:
        verification["snell_pair"] = _conditions(report)
        failed |= not report.passed
        lines.append("value/survival pair conditions:")
        for c in report.conditions:
            lines.append(f"  {c.name}: {'pass' if c.passed else 'FAIL'}")
            for atom, why in c.failures[:3]:
                lines.append(f"    {atom}: {why}")
    if check is not None:
        verification["equilibrium"] = {
            "passed": bool(check),
            "deviations": list(check.deviations),
            "reason": check.reason,
        }
        failed |= not check
        lines.append(f"equilibrium: {'pass' if check else 'FAIL'}")
        if not check:
            lines.append(f"  reason: {check.reason}")
            for atom in check.deviations[:5]:
                lines.append(f"  deviation at {atom}")
    if identities is not None:
        verification["survival_identities"] = _conditions(identities)
        failed |= not identities.passed
        lines.append("survival identities:")
        for c in identities.conditions:
            lines.append(f"  {c.name}: {'pass' if c.passed else 'FAIL'}")
    return verification, lines, EXIT_VERIFICATION_FAILED if failed else EXIT_OK


def cmd_verify(args):
    """The pair and policy condition batteries.

    Each document is read and parsed once, before any unroll, so a malformed
    one exits 2 on the cells as on the tree.  A chain is checked on its
    (time, state) cells when the parsed pair is constant on each cell
    (`cell_pair`) and the policy is a region document.  Each cell's checks
    are those of each of its atoms, so a pass there is the tree's pass, and a
    region document that names no region for some time is refused there as on
    the tree.  Otherwise, to report a failure per atom or to check a pair or
    policy that is not Markov, the chain is unrolled and the same pair and
    policy are checked on the tree, the only path for a tree model.
    """
    if args.pair is None and args.policy is None:
        raise ParseError("verify requires --pair and/or --policy")
    model = _load_any_model(args)
    cells = _as_cells(model, args.horizon)
    pair = None if args.pair is None else load_pair(read_json(args.pair), mode=_mode(args))
    doc_policy = _read_policy(args, model)
    if isinstance(cells, _Cells) and not isinstance(doc_policy, StoppingPolicy):
        on_cells = None if pair is None else cell_pair(cells, pair)
        if pair is None or on_cells is not None:
            report = _verify_report(cells, on_cells, _tree_policy(doc_policy, cells))
            if report[2] == EXIT_OK:
                return model, {}, *report
    tree = _as_tree(model, args.horizon)
    return model, {}, *_verify_report(tree, pair, _tree_policy(doc_policy, tree))


def cmd_truncate(args):
    model = _load_any_model(args)
    if not isinstance(model, MarkovModel):
        raise ModelError("truncate applies to chain models only")
    _no_horizon(args, "truncate sweeps the horizons 1..--max-horizon")
    try:
        report = truncation_limit(model, args.max_horizon, args.window)
    except _INVALID:
        raise
    except ValueError as exc:  # horizon/window arguments out of range
        raise ParseError(str(exc)) from exc
    decisions = {
        f"t={t}, state {x}": ("unstable" if bit is None else bit)
        for (t, x), bit in sorted(report.decisions.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
    }
    results = {
        "max_horizon": report.max_horizon,
        "stability_window": report.stability_window,
        "depth": report.depth,
        "stable": report.stable,
        "decisions": decisions,
        "unstable_cells": [f"t={t}, state {x}" for t, x in report.unstable],
    }
    verification = {}
    if report.candidate is not None:
        results["candidate"] = dump_policy(report.candidate)
        verification["candidate_fixed_point"] = bool(
            is_periodic_equilibrium(model, report.candidate)
        )
    lines = [
        f"horizons 1..{report.max_horizon}, window {report.stability_window}, "
        f"reporting depth {report.depth}",
        f"stable: {'yes' if report.stable else 'no'}",
    ]
    for cell, bit in decisions.items():
        lines.append(f"  {cell}: {bit}")
    if report.candidate is not None:
        lines.append(f"candidate period: {report.candidate.period}")
        lines.append(
            f"candidate is a best-response fixed point: "
            f"{'yes' if verification['candidate_fixed_point'] else 'no'}"
        )
    return model, results, verification, lines, EXIT_OK


def _example_binomial(args):
    tree = _as_tree(builtin_model("binomial", mode=_mode(args)), args.horizon)
    pair, policy = backward_solve(tree)
    pre = precommitted(tree)
    equilibria = enumerate_equilibria(tree)
    snell, check, identities = verify_pair_and_policy(tree, pair, policy)
    root = tree.root.id
    results = {
        "precommitted_value": format_scalar(pre.value),
        "precommitted_stops": sorted(pre.stop_atoms),
        "V0": format_scalar(pair.values[root]),
        "S0": format_scalar(pair.survival[root]),
        "theta0": policy.bit(root),
        "equilibria_count": len(equilibria),
    }
    verification = {
        "is_equilibrium": bool(check),
        "snell_pair": snell.passed,
        "survival_identities": identities.passed,
    }
    lines = [
        f"precommitted value = {_fmt(pre.value)}, stopping at "
        f"{{{', '.join(sorted(pre.stop_atoms))}}}",
        f"equilibrium V_0 = {_fmt(pair.values[root])}, theta_0 = {policy.bit(root)}",
        f"equilibria: {len(equilibria)}",
        f"pair and identity checks: "
        f"{'pass' if snell.passed and identities.passed else 'FAIL'}",
    ]
    return tree, results, verification, lines


def _example_two_state(args):
    model = builtin_model("two-state", mode=_mode(args))
    horizon = 6 if args.horizon is None else args.horizon
    tree = unroll(model, horizon)
    pair, policy = backward_solve(tree)
    equilibria = enumerate_periodic_equilibria(model, 1)
    jlines = {}
    for eq in equilibria:
        name = ",".join(sorted(map(str, eq.policy.regions[0])))
        jlines[f"J(state 1) under {{{name}}}"] = format_scalar(eq.evaluation.J[(0, 1)])
    trunc = truncation_limit(model, 10, 3)
    history = two_state_history_policy(tree)
    history_check = is_equilibrium(tree, history)
    last_level = {atom.id for atom in tree.levels[horizon - 1]}
    results = {
        "solve_regions": _policy_document(tree, policy),
        "p1_equilibria": len(equilibria),
        "J_values": jlines,
        "truncation_stable": trunc.stable,
        "truncation_candidate": dump_policy(trunc.candidate) if trunc.candidate else None,
        "history_policy_deviations": list(history_check.deviations),
    }
    verification = {
        "is_equilibrium": bool(is_equilibrium(tree, policy)),
        "growth_check": check_growth(model, (1 + 1 / model.discount) / 2),
        "truncation_candidate_fixed_point": (
            bool(is_periodic_equilibrium(model, trunc.candidate))
            if trunc.candidate
            else None
        ),
        "history_deviations_on_last_level": bool(history_check.deviations)
        and set(history_check.deviations) <= last_level,
    }
    lines = [f"time-homogeneous equilibria: {len(equilibria)}"]
    for name, value in jlines.items():
        lines.append(f"  {name} = {value}")
    lines.append(
        f"truncations stabilize: {'yes' if trunc.stable else 'no'}"
        + (
            f" (candidate period {trunc.candidate.period})"
            if trunc.candidate
            else ""
        )
    )
    lines.append(
        "history-dependent pattern deviates only at the final free level: "
        f"{'yes' if verification['history_deviations_on_last_level'] else 'no'}"
    )
    return model, results, verification, lines


def _example_minnie_donald(args):
    model = builtin_model("minnie-donald", mode=_mode(args))
    _no_horizon(args, "the minnie-donald example is about the infinite-horizon chain")
    conditions = check_minnie_donald_conditions(
        model.discount, model.payoff[1], model.payoff[4]
    )
    p1 = enumerate_periodic_equilibria(model, 1)
    p4 = enumerate_periodic_equilibria(model, 4)
    regions = minnie_donald_cycle_regions()
    cycle_ok = {}
    for n in range(1, 5):
        twice = phi_markov(model, phi_markov(model, minnie_donald_homogeneous_policy(n)))
        expected = regions[(n + 1) % 4]
        cycle_ok[f"R_{n} -> R_{(n + 1) % 4 + 1}"] = twice.regions[0] == expected
    results = {
        "conditions": {
            check.description: check.holds for check in conditions.checks()
        },
        "p1_equilibria": len(p1),
        "p4_equilibria": len(p4),
        "p4_policies": [dump_policy(eq.policy) for eq in p4],
    }
    verification = {
        "all_conditions_hold": conditions.all_hold,
        "best_response_cycle": cycle_ok,
    }
    lines = [
        f"parameter conditions: {'all hold' if conditions.all_hold else 'VIOLATED'}",
        f"time-homogeneous equilibria: {len(p1)}",
        f"period-4 equilibria (distinct a.s.): {len(p4)}",
        f"double best response advances the region cycle: "
        f"{'yes' if all(cycle_ok.values()) else 'no'}",
    ]
    return model, results, verification, lines


EXAMPLES = {
    "binomial": _example_binomial,
    "two-state": _example_two_state,
    "minnie-donald": _example_minnie_donald,
}


def cmd_example(args):
    return (*EXAMPLES[args.name](args), EXIT_OK)


COMMANDS = {
    "solve": cmd_solve,
    "precommit": cmd_precommit,
    "phi": cmd_phi,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "truncate": cmd_truncate,
    "example": cmd_example,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condstop",
        description="Equilibrium and precommitted solvers for conditional optimal stopping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # name -> its parser, read by `_parse`

    def common(p, model_required=True):
        if model_required:
            p.add_argument(
                "--model",
                required=True,
                help="model JSON file, or a builtin name "
                f"({', '.join(sorted(BUILTIN_MODELS))})",
            )
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--float", action="store_true", help="use float arithmetic")
        p.add_argument("--eps", type=float, default=None,
                       help="float-mode tolerance (default 1e-9); needs --float")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("solve", help="backward recursion for the early-stopping equilibrium")
    common(p)
    p = sub.add_parser("precommit", help="precommitted optimum by Dinkelbach sweeps")
    common(p)
    p = sub.add_parser("phi", help="one best-response step")
    common(p)
    p.add_argument("--policy", required=True, help="policy JSON file")
    p.add_argument("--period", type=int, default=None)
    p = sub.add_parser("enumerate", help="all equilibria")
    common(p)
    p.add_argument("--period", type=int, default=None)
    p.add_argument("--preference", choices=["early", "late", "all"], default=None)
    p = sub.add_parser("verify", help="condition batteries for pairs and policies")
    common(p)
    p.add_argument("--policy", default=None, help="policy JSON file")
    p.add_argument("--pair", default=None, help="value/survival pair JSON file")
    p = sub.add_parser("truncate", help="growing-horizon stability diagnostic")
    common(p)
    p.add_argument("--max-horizon", type=int, required=True, dest="max_horizon")
    p.add_argument("--window", type=int, default=3)
    p = sub.add_parser("example", help="full battery on a builtin model")
    p.add_argument("name", choices=sorted(EXAMPLES))
    common(p, model_required=False)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """`_parser().parse_args(argv)`, reading argv once.  When argv starts
    with a subcommand, the top-level parser would only scan the arguments
    and hand the rest to that subcommand's parser; here its parser reads
    them directly, and the top-level parser reports any left over, as it
    does.  Any other argv goes through the top-level parser."""
    parser = _parser()
    subparser = parser.subcommands.get(argv[0]) if argv else None
    if subparser is None:
        return parser.parse_args(argv)
    args, extras = subparser.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    start = time.perf_counter()
    try:
        model, results, verification, lines, code = COMMANDS[args.command](args)
        elapsed = time.perf_counter() - start
        digest = model_digest(model)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except _INVALID as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    except SingularSystemError as exc:  # only float rounding makes a census system singular
        print(
            f"error: float arithmetic made a linear system singular ({exc}); "
            "run without --float to solve it exactly",
            file=sys.stderr,
        )
        return EXIT_INVALID_MODEL
    try:
        if args.json:
            report = {
                "command": list(argv),
                "model_digest": digest,
                "results": results,
                "verification": verification,
                "timing_seconds": round(elapsed, 6),
            }
            print("".join(_indented(report)))
        else:
            print(f"model digest: {digest[:16]}")
            for line in lines:
                print(line)
            print(f"({elapsed:.3f}s)")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`... | head`); send what is left to
        # devnull so the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
