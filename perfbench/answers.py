"""Answer gate: compare each CLI report with the answer recorded for its call.

A report's `results` and `verification` are reduced to a canonical JSON text
and hashed.  `timing_seconds` lies outside them; the work counter
`stopping_times_examined` is removed, so a change that examines fewer
stopping times still passes.

Float-mode reports are compared within a tolerance: each float in the report
is replaced by the index of the recorded value it lies within `eps` of, and
only then hashed.  The record keeps the sorted distinct floats of the answer
and the hash of its indexed form, so every float is checked within `eps` and
everything else (decision sets, stop bits, verdicts) exactly.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import re

WORK_COUNTERS = ("stopping_times_examined",)
_INTEGER_OR_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def _is_float_text(value) -> bool:
    if not isinstance(value, str) or _INTEGER_OR_RATIONAL.fullmatch(value):
        return False
    try:
        float(value)
    except ValueError:
        return False
    return True


def answer_of(report: dict) -> dict:
    results = {k: v for k, v in report["results"].items() if k not in WORK_COUNTERS}
    return {"results": results, "verification": report["verification"]}


def float_values(answer) -> list[float]:
    """Sorted distinct floats written as text anywhere in the answer."""
    found = set()

    def walk(node):
        if isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
        elif _is_float_text(node):
            found.add(float(node))

    walk(answer)
    return sorted(found)


def within(a: float, b: float, eps: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= eps * max(1.0, abs(a), abs(b))


def _index_floats(node, values: list[float], eps: float):
    """Replace float texts by the index of the recorded value within eps."""
    if isinstance(node, dict):
        return {k: _index_floats(v, values, eps) for k, v in node.items()}
    if isinstance(node, list):
        return [_index_floats(v, values, eps) for v in node]
    if not _is_float_text(node):
        return node
    x = float(node)
    i = bisect.bisect_left(values, x)
    for j in (i - 1, i):
        if 0 <= j < len(values) and within(x, values[j], eps):
            return f"#{j}"
    return f"unmatched {node}"


def digest(answer, values: list[float] | None = None, eps: float = 0.0) -> str:
    if values is not None:
        answer = _index_floats(answer, values, eps)
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def record(report: dict, eps: float | None):
    """Reference entry for a report: a digest, or for float mode (`eps` set)
    the digest of the indexed answer with its distinct floats."""
    answer = answer_of(report)
    if eps is None:
        return digest(answer)
    values = float_values(answer)
    for a, b in zip(values, values[1:]):
        if within(a, b, 2 * eps):
            raise ValueError(f"recorded floats {a!r} and {b!r} are closer than 2*eps")
    return {"digest": digest(answer, values, eps), "floats": values}


def matches(report: dict, entry, eps: float) -> bool:
    answer = answer_of(report)
    if isinstance(entry, dict):
        return digest(answer, entry["floats"], eps) == entry["digest"]
    return digest(answer) == entry
