"""Command-line interface.

Commands: gen, eval, roots, verify, pencil, sweep. Documents go to stdout
(or --out FILE) as JSON (default) or CSV; sweep is always CSV. Exit codes:
0 success, 2 usage/parse error, 3 domain/precondition error, 4 verification
failure.

Serialization rules, applied uniformly: every float is rendered with 17
significant digits; complex values appear as a bare number when the
imaginary part is exactly zero and as a two-element [re, im] array
otherwise; non-finite values are the strings "nan", "inf", "-inf". JSON
objects are emitted with sorted keys, so identical configurations produce
byte-identical documents.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re as re_mod
import sys

from . import __version__ as VERSION
from .checks import CHECK_ORDER, run_checks
from .errors import ConvergenceError, DomainError
from .operators import build_R, kappa
from .partial_sums import Gn_monic, HypParams, delta_k, gn_direct
from .pfq import convergence_report, pfq_eval
from .ri_pencils import JacobiPencil, pencil_polynomials, pencil_residual
from .roots import location_report
from .sobolev import gram_extremes, sobolev_gram

_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re_mod.compile(
    rf"^([+-]?{_NUMBER})(?:([+-]{_NUMBER})i)?$"
)


def parse_complex(text: str) -> complex:
    """Literal grammar: RE, RE+IMi, RE-IMi; no whitespace inside."""
    m = _COMPLEX_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(f"malformed complex literal {text!r}")
    re_part = float(m.group(1))
    im_part = float(m.group(2)) if m.group(2) else 0.0
    return complex(re_part, im_part)


def parse_complex_list(text: str) -> tuple[complex, ...]:
    if text == "":
        return ()
    return tuple(parse_complex(part) for part in text.split(","))


def parse_real(text: str) -> float:
    c = parse_complex(text)
    if c.imag != 0:
        raise argparse.ArgumentTypeError(f"expected a real number, got {text!r}")
    return c.real


def parse_real_list(text: str) -> tuple[float, ...]:
    if text == "":
        return ()
    return tuple(parse_real(part) for part in text.split(","))


def parse_int_list(text: str) -> tuple[int, ...]:
    if text == "":
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed integer list {text!r}")


# -- serialization -----------------------------------------------------------


def _json_number(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _emit(x, out: list, ind: int) -> None:
    pad = " " * ind
    if x is None:
        out.append("null")
    elif isinstance(x, bool):
        out.append("true" if x else "false")
    elif isinstance(x, str):
        out.append(json.dumps(x))
    elif isinstance(x, int):
        out.append(str(x))
    elif isinstance(x, float):
        out.append(_json_number(x))
    elif isinstance(x, complex):
        if x.imag == 0:
            out.append(_json_number(x.real))
        else:
            _emit([x.real, x.imag], out, ind)
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(x):
            out.append(" " * (ind + 2))
            _emit(v, out, ind + 2)
            out.append(",\n" if i < len(x) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(x)
        for i, k in enumerate(keys):
            out.append(" " * (ind + 2) + json.dumps(str(k)) + ": ")
            _emit(x[k], out, ind + 2)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(x).__name__}")


def render_json(obj) -> str:
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(c) for c in row])
    return buf.getvalue()


def _document(command: str, params: HypParams, results, diagnostics) -> dict:
    return {
        "command": command,
        "params": {
            "p": params.p,
            "q": params.q,
            "a": list(params.a),
            "b": list(params.b),
        },
        "results": results,
        "diagnostics": diagnostics,
        "version": VERSION,
    }


def _poly_coeffs(f) -> list[complex]:
    return list(f.coeffs)


def _complex_cells(c: complex) -> tuple[float, float]:
    return (c.real, c.imag)


# -- command handlers --------------------------------------------------------


def _params_from_args(args, parser) -> HypParams:
    if len(args.a) != args.p:
        parser.error(f"--a expects {args.p} comma-separated values, got {len(args.a)}")
    if len(args.b) != args.q:
        parser.error(f"--b expects {args.q} comma-separated values, got {len(args.b)}")
    return HypParams(a=args.a, b=args.b)


def cmd_gen(args, parser) -> tuple[str, int]:
    params = _params_from_args(args, parser)
    n = args.n
    g = gn_direct(params, n)
    deltas = [delta_k(params, k) for k in range(1, n + 1)]
    R = build_R(params)
    r_coeffs = [_poly_coeffs(c) for c in R.coeffs]
    results = {
        "g": _poly_coeffs(g),
        "delta": deltas,
        "kappa": kappa(params, n),
        "R_coeffs": r_coeffs,
    }
    if args.monic:
        results["G"] = _poly_coeffs(Gn_monic(params, n))
    diagnostics = {"n": n, "monic": bool(args.monic)}
    if args.format == "csv":
        rows = []
        for k, c in enumerate(results["g"]):
            rows.append(("g", n, k) + _complex_cells(c))
        if args.monic:
            for k, c in enumerate(results["G"]):
                rows.append(("G", n, k) + _complex_cells(c))
        for k, d in enumerate(deltas, start=1):
            rows.append(("delta", k, None) + _complex_cells(d))
        rows.append(("kappa", n, None) + _complex_cells(results["kappa"]))
        for l, coeffs in enumerate(r_coeffs):
            for k, c in enumerate(coeffs):
                rows.append(("R_coeff", l, k) + _complex_cells(c))
        return render_csv(("object", "index", "k", "re", "im"), rows), 0
    return render_json(_document("gen", params, results, diagnostics)), 0


def cmd_eval(args, parser) -> tuple[str, int]:
    params = _params_from_args(args, parser)
    if not args.z:
        parser.error("--z expects at least one point")
    g = gn_direct(params, args.n)
    zs = list(args.z)
    g_vals = [g(z) for z in zs]
    results = {"z": zs, "g": g_vals}
    diagnostics: dict = {"n": args.n, "series": bool(args.series)}
    if args.series:
        series = [pfq_eval(params, z) for z in zs]
        results["series"] = [sv.value for sv in series]
        results["abs_diff"] = [abs(sv.value - gv) for sv, gv in zip(series, g_vals)]
        diagnostics["series_terms"] = [sv.terms_used for sv in series]
    if args.format == "csv":
        header = ["z_re", "z_im", "g_re", "g_im"]
        if args.series:
            header += ["series_re", "series_im", "abs_diff"]
        rows = []
        for i, z in enumerate(zs):
            row = list(_complex_cells(z) + _complex_cells(g_vals[i]))
            if args.series:
                row += list(_complex_cells(results["series"][i]))
                row.append(results["abs_diff"][i])
            rows.append(row)
        return render_csv(header, rows), 0
    return render_json(_document("eval", params, results, diagnostics)), 0


def cmd_roots(args, parser) -> tuple[str, int]:
    params = _params_from_args(args, parser)
    report = location_report(params, args.n)
    ordered = sorted(report.roots, key=lambda r: (r.real, r.imag))
    results = {
        "roots": ordered,
        "min_modulus": report.min_modulus,
        "min_pair_distance": report.min_pair_distance,
        "simple": report.simple,
        "boundary_root_count": report.boundary_root_count,
        "positive_real_root_found": report.positive_real_root_found,
        "ek_annulus": list(report.ek_annulus) if report.ek_annulus else None,
    }
    diagnostics = {"n": args.n}
    if args.format == "csv":
        rows = [
            (i,) + _complex_cells(r) + (abs(r),) for i, r in enumerate(ordered)
        ]
        return render_csv(("index", "re", "im", "modulus"), rows), 0
    return render_json(_document("roots", params, results, diagnostics)), 0


def cmd_verify(args, parser) -> tuple[str, int]:
    params = _params_from_args(args, parser)
    if args.tol is not None and args.check == "all":
        # The checks' tolerances have different scales (see checks).
        parser.error("--tol needs a single --check")
    names = list(CHECK_ORDER) if args.check == "all" else [args.check]
    results_list = run_checks(
        params,
        n_max=args.n_max,
        seed=args.seed,
        names=names,
        draws=args.draws,
        skip_inapplicable=(args.check == "all"),
        tol=args.tol,
    )
    any_fail = any(r.status == "FAIL" for r in results_list)
    results = {
        r.name: {
            "status": r.status,
            "max_residual": r.max_residual,
            "tolerance": r.tolerance,
            "detail": r.detail,
        }
        for r in results_list
    }
    diagnostics = {
        "n_max": args.n_max,
        "seed": args.seed,
        "draws": args.draws,
        "checks_run": [r.name for r in results_list],
        "any_fail": any_fail,
    }
    code = 4 if any_fail else 0
    if args.format == "csv":
        rows = [
            (r.name, r.status, r.max_residual, r.tolerance, r.detail)
            for r in results_list
        ]
        header = ("check", "status", "max_residual", "tolerance", "detail")
        return render_csv(header, rows), code
    return render_json(_document("verify", params, results, diagnostics)), code


def cmd_pencil(args, parser) -> tuple[str, int]:
    params = _params_from_args(args, parser)
    pencil = JacobiPencil(
        j3_diag=args.j3_diag,
        j3_offdiag=args.j3_offdiag,
        j5_diag=args.j5_diag,
        j5_off1=args.j5_off1,
        j5_off2=args.j5_off2,
        alpha=args.alpha,
        beta=args.beta,
    )
    polys = pencil_polynomials(pencil, args.n)
    rows_count = max(args.n - 1, 0)
    residual_max = pencil_residual(pencil, polys, args.lam, rows_count)
    results = {
        "p": [_poly_coeffs(f) for f in polys],
        "residual_max": residual_max,
        "lambdas": list(args.lam),
        "rows": rows_count,
    }
    diagnostics = {"n": args.n}
    if args.format == "csv":
        rows = []
        for n, f in enumerate(polys):
            for k, c in enumerate(f.coeffs):
                rows.append(("p", n, k) + _complex_cells(c))
        rows.append(("residual_max", None, None, residual_max, None))
        return render_csv(("object", "index", "k", "re", "im"), rows), 0
    return render_json(_document("pencil", params, results, diagnostics)), 0


# -- sweep -------------------------------------------------------------------


_GRID_RE = re_mod.compile(r"^([ab])([1-9])$")


def _apply_grid(params: HypParams, name: str, value: float) -> HypParams:
    m = _GRID_RE.match(name)
    if not m:
        raise DomainError(f"grid parameter {name!r} must look like a1 or b2")
    which, idx_text = m.groups()
    idx = int(idx_text)
    a, b = list(params.a), list(params.b)
    seq = a if which == "a" else b
    if idx > len(seq):
        raise DomainError(
            f"grid parameter {name} needs --{which} to supply slot {idx}"
        )
    seq[idx - 1] = complex(value)
    return HypParams(a=tuple(a), b=tuple(b))


def _sweep_convergence(params: HypParams, ns: list[int]) -> list[float]:
    if params.p > params.q:
        raise DomainError("convergence sweep requires p <= q")
    taus = (2.0 * math.pi * j / 64.0 for j in range(64))
    points = [complex(math.cos(t), math.sin(t)) for t in taus]
    report = convergence_report(params, ns, points)
    if report.failed_points:
        # Raises the ConvergenceError of the first point that failed.
        pfq_eval(params, report.failed_points[0])
    sup = {row.n: row.sup_error for row in report.rows}
    return [sup[n] for n in ns]


def _sweep_root_modulus(params: HypParams, ns: list[int]) -> list[float]:
    return [location_report(params, n).min_modulus for n in ns]


def _sweep_gram_offdiag(params: HypParams, ns: list[int]) -> list[float]:
    extremes = (gram_extremes(sobolev_gram(params, n)) for n in ns)
    return [off / max_diag for off, max_diag in extremes]


# Each quantity maps (cell parameters, sorted degrees) to one value per degree.
_SWEEP_FUNCS = {
    "convergence": _sweep_convergence,
    "root-modulus": _sweep_root_modulus,
    "gram-offdiag": _sweep_gram_offdiag,
}


def cmd_sweep(args, parser) -> tuple[str, int]:
    params = _params_from_args(args, parser)
    func = _SWEEP_FUNCS[args.quantity]
    ns = sorted(args.n_list)
    rows = []
    for gi, gv in enumerate(args.grid_values):
        cell_params = _apply_grid(params, args.grid_param, gv)
        for n, value in zip(ns, func(cell_params, ns) if ns else []):
            rows.append((args.quantity, args.grid_param, gi, gv, n, value))
    header = ("quantity", "grid_param", "grid_index", "grid_value", "n", "value")
    return render_csv(header, rows), 0


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every main() call can share it."""
    parser = argparse.ArgumentParser(
        prog="hypersum",
        description=(
            "Partial sums of generalized hypergeometric series: "
            "construction, evaluation, root localization, identity "
            "verification, and parameter sweeps."
        ),
    )
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, fmt=True):
        sp.add_argument("--p", type=int, default=0, help="number of a parameters")
        sp.add_argument("--q", type=int, default=0, help="number of b parameters")
        sp.add_argument(
            "--a",
            type=parse_complex_list,
            default=(),
            help="comma-separated a parameters (complex literals like 1.5-0.25i)",
        )
        sp.add_argument(
            "--b",
            type=parse_complex_list,
            default=(),
            help="comma-separated b parameters",
        )
        sp.add_argument("--out", default=None, help="write the document to FILE")
        if fmt:
            sp.add_argument(
                "--format", choices=("json", "csv"), default="json"
            )

    sp = sub.add_parser("gen", help="emit g_n/G_n coefficients, delta_k, kappa_n, R")
    add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--monic", action="store_true", help="also emit monic G_n")
    sp.set_defaults(handler=cmd_gen)

    sp = sub.add_parser("eval", help="evaluate g_n (and optionally the series)")
    add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument(
        "--z", type=parse_complex_list, required=True, help="evaluation points"
    )
    sp.add_argument(
        "--series",
        action="store_true",
        help="also evaluate the full series and report |series - g_n|",
    )
    sp.set_defaults(handler=cmd_eval)

    sp = sub.add_parser("roots", help="roots of g_n with localization report")
    add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(handler=cmd_roots)

    sp = sub.add_parser("verify", help="run identity checks (PASS/FAIL)")
    add_common(sp)
    sp.add_argument("--n-max", type=int, default=10)
    sp.add_argument(
        "--check", choices=CHECK_ORDER + ("all",), default="all"
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--draws", type=int, default=200)
    sp.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override the tolerance of the one selected --check",
    )
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("pencil", help="pencil-associated polynomials and residuals")
    add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--j3-diag", type=parse_real_list, default=())
    sp.add_argument("--j3-offdiag", type=parse_real_list, default=())
    sp.add_argument("--j5-diag", type=parse_real_list, default=())
    sp.add_argument("--j5-off1", type=parse_real_list, default=())
    sp.add_argument("--j5-off2", type=parse_real_list, default=())
    sp.add_argument("--alpha", type=parse_real, default=1.0)
    sp.add_argument("--beta", type=parse_real, default=0.0)
    sp.add_argument(
        "--lam",
        type=parse_complex_list,
        default=(0 + 0j, 1 + 0j, -1 + 0j, 2 + 1j),
        help="lambda values for the residual report",
    )
    sp.set_defaults(handler=cmd_pencil)

    sp = sub.add_parser("sweep", help="CSV sweep over a parameter grid")
    add_common(sp, fmt=False)
    sp.add_argument(
        "--quantity", choices=tuple(sorted(_SWEEP_FUNCS)), required=True
    )
    sp.add_argument(
        "--grid-param", required=True, help="which slot varies, e.g. b1"
    )
    sp.add_argument(
        "--grid-values", type=parse_real_list, required=True,
        help="comma-separated grid values (empty for a header-only sweep)",
    )
    sp.add_argument("--n-list", type=parse_int_list, required=True)
    sp.set_defaults(handler=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        document, code = args.handler(args, parser)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(document)
    else:
        sys.stdout.write(document)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
