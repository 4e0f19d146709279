"""Output checks for every document the benchmark times.

Each checker takes an operation and its outcome and returns a list of
problems; an empty list means the output is right. Exit codes other than
0 (and 4 for verify) are failures the runner counts before checking, so
checkers only see documents. Byte identity across passes is checked by
the runner, which holds the first pass of every operation.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import hypersum
from hypersum.checks import CHECK_ORDER

from workloads import Operation, Outcome

# A root r of p is accepted when |p(r)| <= BACKWARD_TOL * sum_k |c_k||r|^k.
BACKWARD_TOL = 1e-10
# Zero localization: every root modulus of g_n is >= 1 on these families.
MODULUS_FLOOR = 1.0 - 1e-9

SWEEP_HEADER = ["quantity", "grid_param", "grid_index", "grid_value", "n", "value"]


def _number(x) -> complex:
    """A JSON number as the CLI writes it: bare, [re, im], or a string
    for a non-finite value."""
    if isinstance(x, list) and len(x) == 2:
        return complex(float(x[0]), float(x[1]))
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return complex(x)
    return complex(math.nan)


def check_verify(op: Operation, outcome: Outcome) -> list[str]:
    try:
        doc = json.loads(outcome.output)
        results = doc["results"]
        statuses = {name: results[name]["status"] for name in results}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verify document: {exc!r}"]
    problems = []
    missing = [name for name in CHECK_ORDER if name not in statuses]
    if missing:
        problems.append(f"checks missing from the document: {missing}")
    any_fail = any(s == "FAIL" for s in statuses.values())
    if (outcome.code == 0) == any_fail:
        problems.append(
            f"exit code {outcome.code} disagrees with statuses {statuses}"
        )
    return problems


def check_sweep(op: Operation, outcome: Outcome) -> list[str]:
    rows = list(csv.reader(io.StringIO(outcome.output)))
    if not rows or rows[0] != SWEEP_HEADER:
        return [f"unexpected sweep header {rows[:1]}"]
    body = rows[1:]
    problems = []
    want = {(gi, n) for gi in range(len(op.grid)) for n in op.n_list}
    try:
        got = {(int(r[2]), int(r[4])) for r in body}
        values = [float(r[5]) for r in body]
    except (ValueError, IndexError) as exc:
        return [f"unreadable sweep row: {exc!r}"]
    if len(body) != len(want) or got != want:
        problems.append(f"{len(body)} rows for {len(want)} (grid, n) cells")
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite values {bad}")
    if op.quantity == "root-modulus":
        low = [v for v in values if v < MODULUS_FLOOR]
        if low:
            problems.append(f"root moduli below {MODULUS_FLOOR}: {low}")
    return problems


def backward_errors(a, b, n: int, roots) -> np.ndarray:
    """|g_n(r)| / sum_k |c_k||r|^k per root, evaluated with numpy from the
    coefficients gn_direct gives, independently of the finder's own gate."""
    coeffs = np.array(hypersum.gn_direct(hypersum.HypParams(a=a, b=b), n).coeffs)
    r = np.asarray(roots, dtype=complex)
    values = np.abs(np.polyval(coeffs[::-1], r))
    mass = np.polyval(np.abs(coeffs[::-1]), np.abs(r))
    return values / mass


def _check_roots_list(op: Operation, roots) -> list[str]:
    if len(roots) != op.n:
        return [f"{len(roots)} roots for degree {op.n}"]
    err = backward_errors(op.a, op.b, op.n, roots)
    if not np.all(err <= BACKWARD_TOL):
        worst = float(np.nanmax(err)) if np.any(np.isfinite(err)) else math.nan
        return [f"backward error {worst:.3e} exceeds {BACKWARD_TOL}"]
    return []


def check_roots(op: Operation, outcome: Outcome) -> list[str]:
    try:
        roots = [_number(x) for x in json.loads(outcome.output)["results"]["roots"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable roots document: {exc!r}"]
    return _check_roots_list(op, roots)


def check_find_roots(op: Operation, outcome: Outcome) -> list[str]:
    return _check_roots_list(op, list(outcome.output))


CHECKERS = {
    "verify": check_verify,
    "sweep": check_sweep,
    "roots": check_roots,
    "find_roots": check_find_roots,
}


def check(op: Operation, outcome: Outcome) -> list[str]:
    return CHECKERS[op.command](op, outcome)
