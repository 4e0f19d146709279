"""Seeded operation lists for the three benchmark workloads, and the one
place that executes an operation against hypersum.

Every operation is what a user of hypersum runs: one CLI document through
`hypersum.cli.main(argv)`, or, for the one family the `roots` command
refuses, the public `find_roots(gn_direct(...))`. The lists are stratified
(every workload covers the same shapes and degree bands on every seed) so
that a seed changes parameter values, not the amount or kind of work; that
keeps run-to-run spread across seeds small.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback
from dataclasses import dataclass

import hypersum
from hypersum import cli

WORKLOADS = ("verify-suite", "sweep-grid", "roots-ladder")

# verify-suite: one `verify --check all` document per (p, q) shape.
VERIFY_SHAPES = tuple((p, q) for p in range(4) for q in range(4))
VERIFY_N_MAX = (10, 25)

# sweep-grid: one gram-offdiag document for every shape with a b1 slot that
# the localization preconditions allow (q >= 1, p <= q), and root-modulus
# and convergence documents for the 0F1 shape, whose root-modulus document
# exits 3 at n = 30 on every seed. gram-offdiag is most of the time a user
# spends in sweeps; with 9 of 11 documents the median document sits in the
# middle of the gram documents, and the failure count is the same on every
# seed.
SWEEP_SHAPES = tuple((p, q) for q in range(1, 4) for p in range(q + 1))
SWEEP_GRID_SIZE = 4
SWEEP_GRAM_N_LIST = (10, 20, 30, 40)
SWEEP_N_LISTS = (("root-modulus", (10, 20, 30)), ("convergence", (10, 20, 30)))

# roots-ladder: the families of the known root-finder defect, whose first
# failing degrees are 30 (0F1), 32 (2F3), 38 (exp, 1F1(1;1)) and 55
# (1F1(1;2)), plus 2F1(1,1;2), which the finder solves up to the cap.
ROOTS_FAMILIES = {
    "exp": ((), ()),
    "0F1(;1)": ((), (1.0,)),
    "1F1(1;1)": ((1.0,), (1.0,)),
    "1F1(1;2)": ((1.0,), (2.0,)),
    "2F3(1,1.5;2,2.5,3)": ((1.0, 1.5), (2.0, 2.5, 3.0)),
    "2F1(1,1;2)": ((1.0, 1.0), (2.0,)),
}
# Narrow bands keep the cost of a rung nearly seed-independent. Five sit
# below every onset, one between the onsets (only 1F1(1;2) and 2F1 solve
# there) and one above all of them. With most rungs low, the median
# operation is a cheap solve, where costs differ little between families.
ROOTS_BANDS = ((2, 4), (6, 8), (10, 12), (14, 16), (20, 22), (40, 42), (60, 62))
# A failed solve near the cap costs ~5 s, so the cap band holds 2F1 and a
# single entire family drawn by the seed.
ROOTS_CAP_BAND = (166, 170)
FIND_ROOTS_FAMILY = "2F1(1,1;2)"


@dataclass(frozen=True)
class Operation:
    """One unit of work; `argv` is what `hypersum.cli.main` receives.

    For `command == "find_roots"` argv only describes the call (the CLI has
    no such command) and the call itself uses `a`, `b` and `n`.
    """

    command: str
    argv: tuple[str, ...]
    a: tuple[complex, ...] = ()
    b: tuple[complex, ...] = ()
    n: int = 0
    quantity: str = ""
    grid: tuple[float, ...] = ()
    n_list: tuple[int, ...] = ()


@dataclass(frozen=True)
class Outcome:
    """Exit code (0 success, as the CLI defines it) and the output:
    the document text, the root tuple of a find_roots call, or the
    error message of a failure."""

    code: int
    output: object


def _literal(x: complex) -> str:
    """A CLI complex literal that parses back to exactly x."""
    if x.imag == 0:
        return repr(x.real)
    sign = "+" if x.imag >= 0 else "-"
    return f"{x.real!r}{sign}{abs(x.imag)!r}i"


def _family_args(a, b) -> list[str]:
    return [
        "--p", str(len(a)), "--q", str(len(b)),
        "--a", ",".join(_literal(x) for x in a),
        "--b", ",".join(_literal(x) for x in b),
    ]


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _acceptance_family(rng: random.Random, p: int, q: int, real: bool):
    """Parameters with positive real part. Real draws also meet the
    localization preconditions wherever p <= q (0 < a_j <= b_j, b >= 1),
    so the `roots` check runs on them."""
    if not real:
        def draw():
            return complex(_u(rng, 0.5, 3.0), _u(rng, -1.0, 1.0))
        return tuple(draw() for _ in range(p)), tuple(draw() for _ in range(q))
    b = tuple(complex(_u(rng, 1.0, 4.0)) for _ in range(q))
    a = tuple(
        complex(_u(rng, 0.05, b[j].real) if j < q else _u(rng, 0.2, 3.0))
        for j in range(p)
    )
    return a, b


def verify_suite(seed: int) -> list[Operation]:
    rng = random.Random(f"verify-suite:{seed}")
    shapes = list(VERIFY_SHAPES)
    rng.shuffle(shapes)
    # Half real, half complex families; half at each n_max.
    half = len(shapes) // 2
    reals = [True] * half + [False] * (len(shapes) - half)
    n_maxes = [VERIFY_N_MAX[i % 2] for i in range(len(shapes))]
    rng.shuffle(reals)
    rng.shuffle(n_maxes)
    ops = []
    for (p, q), real, n_max in zip(shapes, reals, n_maxes):
        a, b = _acceptance_family(rng, p, q, real)
        argv = ("verify", *_family_args(a, b), "--check", "all",
                "--n-max", str(n_max), "--seed", str(rng.randrange(1000)))
        ops.append(Operation("verify", argv, a, b, n=n_max))
    return ops


def _sweep_op(a, b, values, quantity, n_list) -> Operation:
    argv = ("sweep", *_family_args(a, b), "--quantity", quantity,
            "--grid-param", "b1",
            "--grid-values", ",".join(repr(v) for v in values),
            "--n-list", ",".join(str(n) for n in n_list))
    return Operation("sweep", argv, a, b, quantity=quantity, grid=values,
                     n_list=n_list)


def sweep_grid(seed: int) -> list[Operation]:
    rng = random.Random(f"sweep-grid:{seed}")
    ops = []
    for p, q in SWEEP_SHAPES:
        a, b = _acceptance_family(rng, p, q, real=True)
        # b1 must stay >= 1 and >= a_1 at every grid value.
        lo = max(1.0, a[0].real) if p else 1.0
        grid: set[float] = set()
        while len(grid) < SWEEP_GRID_SIZE:
            grid.add(_u(rng, lo, lo + 3.0))
        values = tuple(sorted(grid))
        ops.append(_sweep_op(a, b, values, "gram-offdiag", SWEEP_GRAM_N_LIST))
        if (p, q) == (0, 1):
            ops += [_sweep_op(a, b, values, quantity, n_list)
                    for quantity, n_list in SWEEP_N_LISTS]
    return ops


def _accepts(a, b, n: int) -> bool:
    """False where gn_direct refuses the degree (xi_n underflows)."""
    try:
        hypersum.gn_direct(hypersum.HypParams(a=a, b=b), n)
    except hypersum.DomainError:
        return False
    return True


def _roots_op(name: str, a, b, n: int) -> Operation:
    a = tuple(complex(x) for x in a)
    b = tuple(complex(x) for x in b)
    command = "find_roots" if name == FIND_ROOTS_FAMILY else "roots"
    argv = (command, *_family_args(a, b), "--n", str(n))
    return Operation(command, argv, a, b, n=n)


def roots_ladder(seed: int) -> list[Operation]:
    rng = random.Random(f"roots-ladder:{seed}")
    ops = []
    for name, (a, b) in ROOTS_FAMILIES.items():
        for lo, hi in ROOTS_BANDS:
            n = rng.randint(lo, hi)
            if _accepts(a, b, n):
                ops.append(_roots_op(name, a, b, n))
    n = rng.randint(*ROOTS_CAP_BAND)
    entire = [name for name, (a, b) in ROOTS_FAMILIES.items()
              if name != FIND_ROOTS_FAMILY and _accepts(a, b, n)]
    name = rng.choice(entire)
    ops.append(_roots_op(name, *ROOTS_FAMILIES[name], n))
    ops.append(_roots_op(FIND_ROOTS_FAMILY, *ROOTS_FAMILIES[FIND_ROOTS_FAMILY],
                         rng.randint(*ROOTS_CAP_BAND)))
    return ops


GENERATORS = {
    "verify-suite": verify_suite,
    "sweep-grid": sweep_grid,
    "roots-ladder": roots_ladder,
}


def operations(workload: str, seed: int) -> list[Operation]:
    return GENERATORS[workload](seed)


def digest(ops: list[Operation]) -> str:
    """sha256 of the argv list: equal digests mean equal work."""
    text = json.dumps([list(op.argv) for op in ops])
    return hashlib.sha256(text.encode()).hexdigest()


def execute(op: Operation) -> Outcome:
    """Run one operation. Documented refusals become exit code 3 as in the
    CLI; any other exception is a failed operation, reported on stderr."""
    if op.command == "find_roots":
        try:
            f = hypersum.gn_direct(hypersum.HypParams(a=op.a, b=op.b), op.n)
            return Outcome(0, hypersum.find_roots(f))
        except (hypersum.DomainError, hypersum.ConvergenceError) as exc:
            return Outcome(3, f"{type(exc).__name__}: {exc}")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the benchmark keeps running and counts the failure
        traceback.print_exc()
        return Outcome(1, traceback.format_exc())
    return Outcome(code, out.getvalue() if code in (0, 4) else err.getvalue())
