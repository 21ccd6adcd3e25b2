"""Command-line front end.

Subcommands map one-to-one onto library operations: `solve` runs the backward
recursion, `precommit` the exhaustive precommitted search, `phi` one step of
the best-response map, `enumerate` equilibrium enumeration (finite trees or
periodic Markov), `verify` the condition batteries, `truncate` the
growing-horizon diagnostic, and `example` the full battery on a built-in
model.  Reports are printed as tables or, with --json, as a deterministic
JSON document whose only run-dependent field is the timing.

Exit codes: 0 success, 1 a verification ran and failed, 2 unparsable input,
3 structurally invalid model or policy, 4 enumeration size guard tripped
(override with the CONDSTOP_SIZE_GUARD environment variable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional

from .catalog import (
    BUILTIN_MODELS,
    builtin_model,
    minnie_donald_cycle_regions,
    minnie_donald_homogeneous_policy,
    two_state_history_policy,
)
from .infinite import (
    PeriodicMarkovPolicy,
    check_growth,
    check_minnie_donald_conditions,
    enumerate_periodic_equilibria,
    evaluate,
    is_periodic_equilibrium,
    phi_markov,
    truncation_limit,
)
from .model import AtomTree, MarkovModel, ModelError, unroll
from .modelio import (
    ParseError,
    TimedRegions,
    dump_pair,
    dump_policy,
    load_model,
    load_pair,
    load_policy,
    model_digest,
    read_json,
)
from .numeric import EXACT, NumericError, decimal_render, float_mode, format_scalar
from .policy import (
    PolicyError,
    SizeGuardError,
    StoppingPolicy,
    enumerate_equilibria,
    is_equilibrium,
    phi,
    precommitted,
    _continuation_tables,
)
from .recursion import (
    backward_solve,
    pair_from_policy,
    survival_identities,
    verify_snell_pair,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_INVALID_MODEL = 3
EXIT_SIZE_GUARD = 4


@dataclass(frozen=True)
class RunReport:
    command: tuple[str, ...]
    model_digest: Optional[str]
    results: dict
    verification: dict
    timing_seconds: float

    def to_document(self) -> dict:
        return {
            "command": list(self.command),
            "model_digest": self.model_digest,
            "results": self.results,
            "verification": self.verification,
            "timing_seconds": self.timing_seconds,
        }


def _fmt(value) -> str:
    return f"{format_scalar(value)} ({decimal_render(value)})"


def _size_guard() -> Optional[int]:
    raw = os.environ.get("CONDSTOP_SIZE_GUARD")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer CONDSTOP_SIZE_GUARD={raw!r}", file=sys.stderr)
        return None


def _mode(args):
    return float_mode(args.eps) if args.float else EXACT


def _load_any_model(args):
    if args.model in BUILTIN_MODELS:
        return builtin_model(args.model, mode=_mode(args))
    return load_model(read_json(args.model), mode=_mode(args))


def _as_tree(model, horizon: Optional[int]) -> AtomTree:
    if isinstance(model, AtomTree):
        if horizon is not None and horizon != model.horizon:
            raise ModelError(
                f"tree model has horizon {model.horizon}; --horizon {horizon} conflicts"
            )
        return model
    if horizon is None and model.horizon is None:
        raise ModelError("infinite-horizon chain: supply --horizon to unroll")
    return unroll(model, horizon)


def _tree_policy(doc_policy, model, tree: AtomTree) -> StoppingPolicy:
    if isinstance(doc_policy, StoppingPolicy):
        return doc_policy
    if isinstance(doc_policy, (TimedRegions, PeriodicMarkovPolicy)):
        return doc_policy.on_tree(tree)
    raise ParseError(f"unsupported policy document {doc_policy!r}")


def _markov_regions(tree: AtomTree, policy: StoppingPolicy) -> Optional[dict]:
    """Stop regions per level when bits are constant per (level, state)."""
    rows: dict[int, dict] = {}
    for atom in tree.atoms():
        if not atom.in_domain:
            continue
        if atom.state is None:
            return None
        row = rows.setdefault(atom.level, {})
        bit = policy.bit(atom.id)
        if row.setdefault(atom.state, bit) != bit:
            return None
    if not rows:
        return None
    return {
        str(level): sorted((str(x) for x, bit in row.items() if bit))
        for level, row in sorted(rows.items())
    }


def _policy_document(tree: AtomTree, policy: StoppingPolicy) -> dict:
    regions = _markov_regions(tree, policy)
    if regions is not None:
        return {"regions": regions}
    return dump_policy(policy)


def cmd_solve(args):
    model = _load_any_model(args)
    tree = _as_tree(model, args.horizon)
    pair, policy = backward_solve(tree)
    check = is_equilibrium(tree, policy)
    root = tree.root.id
    results = {
        "V0": format_scalar(pair.values[root]),
        "S0": format_scalar(pair.survival[root]),
        "theta0": policy.bit(root),
        "policy": _policy_document(tree, policy),
        "pair": dump_pair(pair),
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
    result = precommitted(tree, size_guard=_size_guard())
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
    if args.policy is None:
        raise ParseError("phi requires --policy")
    doc = load_policy(
        read_json(args.policy), model if isinstance(model, MarkovModel) else None
    )
    if args.period is not None:
        if not isinstance(model, MarkovModel):
            raise ModelError("--period applies to chain models only")
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
        lines.append(f"changed phases: {sorted(changed) if changed else 'none'}")
        return model, results, {}, lines, EXIT_OK
    tree = _as_tree(model, args.horizon)
    policy = _tree_policy(doc, model, tree)
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
    preference = args.preference or "all"
    if args.period is not None:
        if not isinstance(model, MarkovModel):
            raise ModelError("--period applies to chain models only")
        found = enumerate_periodic_equilibria(
            model, args.period, preference=preference, size_guard=_size_guard()
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
        for i, entry in enumerate(entries):
            lines.append(f"equilibrium {i + 1}:")
            for phase, region in sorted(entry["policy"]["regions"].items()):
                lines.append(f"  phase {phase}: {{{', '.join(map(str, region))}}}")
            for pair_name, value in entry["J"].items():
                lines.append(f"  J({pair_name}) = {value}")
        return model, results, {}, lines, EXIT_OK
    tree = _as_tree(model, args.horizon)
    found = enumerate_equilibria(tree, preference=preference, size_guard=_size_guard())
    entries = []
    for policy in found:
        num, den = _continuation_tables(tree, policy)
        root = tree.root
        value = root.payoff if policy.stops(root.id) else num[root.id] / den[root.id]
        entries.append(
            {
                "policy": _policy_document(tree, policy),
                "stop_atoms": sorted(a for a in policy.decisions if policy.stops(a)),
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


def cmd_verify(args):
    model = _load_any_model(args)
    tree = _as_tree(model, args.horizon)
    if args.pair is None and args.policy is None:
        raise ParseError("verify requires --pair and/or --policy")
    verification: dict = {}
    lines: list[str] = []
    failed = False

    pair = policy = None
    if args.pair is not None:
        pair = load_pair(read_json(args.pair), mode=_mode(args))
        report = verify_snell_pair(tree, pair)
        verification["snell_pair"] = {
            c.name: {"passed": c.passed, "failures": [list(f) for f in c.failures]}
            for c in report.conditions
        }
        failed |= not report.passed
        lines.append("value/survival pair conditions:")
        for c in report.conditions:
            lines.append(f"  {c.name}: {'pass' if c.passed else 'FAIL'}")
            for atom, why in c.failures[:3]:
                lines.append(f"    {atom}: {why}")
    if args.policy is not None:
        doc = load_policy(
            read_json(args.policy), model if isinstance(model, MarkovModel) else None
        )
        policy = _tree_policy(doc, model, tree)
        check = is_equilibrium(tree, policy)
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
    if pair is not None and policy is not None:
        report = survival_identities(tree, policy, pair)
        verification["survival_identities"] = {
            c.name: {"passed": c.passed, "failures": [list(f) for f in c.failures]}
            for c in report.conditions
        }
        failed |= not report.passed
        lines.append("survival identities:")
        for c in report.conditions:
            lines.append(f"  {c.name}: {'pass' if c.passed else 'FAIL'}")
    code = EXIT_VERIFICATION_FAILED if failed else EXIT_OK
    return model, {}, verification, lines, code


def cmd_truncate(args):
    model = _load_any_model(args)
    if not isinstance(model, MarkovModel):
        raise ModelError("truncate applies to chain models only")
    try:
        report = truncation_limit(model, args.max_horizon, args.window)
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
    tree = builtin_model("binomial", mode=_mode(args))
    pair, policy = backward_solve(tree)
    pre = precommitted(tree)
    equilibria = enumerate_equilibria(tree)
    snell = verify_snell_pair(tree, pair)
    identities = survival_identities(tree, policy, pair)
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
        "is_equilibrium": bool(is_equilibrium(tree, policy)),
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
    horizon = args.horizon or 6
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


def cmd_example(args):
    name = args.name
    if name == "binomial":
        model, results, verification, lines = _example_binomial(args)
    elif name == "two-state":
        model, results, verification, lines = _example_two_state(args)
    elif name == "minnie-donald":
        model, results, verification, lines = _example_minnie_donald(args)
    else:
        raise ParseError(f"unknown example {name!r}; available: {sorted(BUILTIN_MODELS)}")
    return model, results, verification, lines, EXIT_OK


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
        p.add_argument("--eps", type=float, default=1e-9, help="float-mode tolerance")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("solve", help="backward recursion for the early-stopping equilibrium")
    common(p)
    p = sub.add_parser("precommit", help="exhaustive precommitted optimum")
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
    p.add_argument("name", choices=sorted(BUILTIN_MODELS))
    common(p, model_required=False)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        model, results, verification, lines, code = COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except (ModelError, NumericError, PolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    elapsed = time.perf_counter() - start
    report = RunReport(
        command=tuple(sys.argv[1:] if argv is None else argv),
        model_digest=model_digest(model),
        results=results,
        verification=verification,
        timing_seconds=round(elapsed, 6),
    )
    if args.json:
        print(json.dumps(report.to_document(), sort_keys=True, indent=2))
    else:
        print(f"model digest: {report.model_digest[:16]}")
        for line in lines:
            print(line)
        print(f"({elapsed:.3f}s)")
    return code


if __name__ == "__main__":
    sys.exit(main())
