"""End-to-end command line behavior through subprocess.

Covers the documented output schema, exit codes (0 ok, 2 usage, 3 domain,
4 verification failure), byte-level determinism, and the sweep table.
"""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hypersum
from hypersum import cli, pfq, roots, sobolev
from hypersum.errors import ConvergenceError, DomainError
from hypersum.partial_sums import HypParams, _check_cap, gn_direct, read_family
from hypersum.polycore import Poly
from hypersum.roots import location_report
from hypersum.sobolev import _gram_stack, gram_extremes, sobolev_gram
from test_checks import OVERFLOW_ERRORS

# The child process imports the same hypersum package as this test.
PACKAGE_PARENT = os.path.dirname(os.path.dirname(hypersum.__file__))


def run_cli(*args, env_extra=None, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_PARENT, env.get("PYTHONPATH")])
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hypersum", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_gen_exponential_matches_documented_example():
    out = run_cli("gen", "--p", "0", "--q", "0", "--n", "2")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["command"] == "gen"
    assert doc["version"] == "0.1.0"
    assert doc["results"]["g"] == [1, 1, 0.5]
    assert doc["results"]["delta"] == [1, 2]
    assert doc["results"]["R_coeffs"] == [[-1], [1]]
    assert doc["params"] == {"a": [], "b": [], "p": 0, "q": 0}


def test_gen_monic_confluent():
    out = run_cli(
        "gen", "--p", "1", "--q", "1", "--a", "1", "--b", "2", "--n", "1",
        "--monic",
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["results"]["G"] == [2, 1]


def test_gen_csv_round_trips_values():
    out = run_cli("gen", "--p", "0", "--q", "0", "--n", "3", "--format", "csv")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "object,index,k,re,im"
    g_rows = [l for l in lines if l.startswith("g,")]
    assert len(g_rows) == 4


def test_malformed_complex_literal_names_the_flag():
    out = run_cli("eval", "--p", "0", "--q", "0", "--n", "2", "--z", "1+2j")
    assert out.returncode == 2
    assert "--z" in out.stderr


def test_malformed_param_list_is_usage_error():
    out = run_cli("gen", "--p", "1", "--q", "0", "--a", "abc", "--n", "2")
    assert out.returncode == 2
    assert "--a" in out.stderr


def test_param_count_mismatch_is_usage_error():
    out = run_cli("gen", "--p", "2", "--q", "0", "--a", "1", "--n", "2")
    assert out.returncode == 2


def test_eval_value_matches_library():
    out = run_cli("eval", "--p", "0", "--q", "0", "--n", "5", "--z", "0.3+0.2i")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    want = gn_direct(HypParams(a=(), b=()), 5)(complex(0.3, 0.2))
    got = doc["results"]["g"][0]
    assert got[0] == pytest.approx(want.real, rel=1e-15)
    assert got[1] == pytest.approx(want.imag, rel=1e-15)


def test_eval_series_matches_pointwise_evaluation(capsys):
    params = HypParams(a=(1.5 + 0.5j,), b=(2.0 - 0.25j, 1.25 + 1.0j))
    zs = (0.5, 3 + 2j, -4.5, 10j, 0.5)
    argv = ["eval", "--p", "1", "--q", "2", "--a", "1.5+0.5i",
            "--b", "2-0.25i,1.25+1i", "--n", "7", "--z", "0.5,3+2i,-4.5,0+10i,0.5",
            "--series"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    want = [pfq.pfq_eval(params, z) for z in zs]
    assert doc["results"]["series"] == [[v.value.real, v.value.imag] for v in want]
    assert doc["diagnostics"]["series_terms"] == [v.terms_used for v in want]


@pytest.mark.parametrize("z_list, message", [
    ("1,2", "convergence failure: series did not converge within 10000 terms "
     "at z = (1+0j)\n"),
    ("2,1", "domain error: |z| = 2.0 is outside the closed unit disk"),
])
def test_eval_series_reports_the_first_failing_point(z_list, message, capsys):
    argv = ["eval", "--p", "2", "--q", "1", "--a", "1,1", "--b", "2",
            "--n", "3", "--z", z_list, "--series"]
    assert cli.main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(message)


@pytest.mark.parametrize("argv, usage", [
    (["verify", "--check", "all", "--tol", "1e-9"], "usage: hypersum verify "),
    (["gen", "--p", "2", "--a", "1", "--n", "2"], "usage: hypersum gen "),
])
def test_usage_errors_print_the_subcommand_usage(argv, usage, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[0].startswith(usage)


def test_unknown_flag_prints_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--foo"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hypersum verify ")
    assert err.rstrip().endswith("error: unrecognized arguments: --foo")


def test_unknown_flag_before_the_subcommand_prints_the_root_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--foo", "verify"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hypersum [-h] [--version] ")
    assert err.rstrip().endswith("hypersum: error: unrecognized arguments: --foo")


def test_negative_leading_list_value_is_written_with_equals(capsys):
    # The sweep form, --n-list=-1,5, is covered by the gram-offdiag
    # domain-error test below.
    assert cli.main(["eval", "--n", "3", "--z=-1,2"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["z"] == [-1, 2]
    # Without "=" argparse reads "-1,2" as an option name.
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--n", "3", "--z", "-1,2"])
    assert exc.value.code == 2
    assert "argument --z: expected one argument" in capsys.readouterr().err


def test_complex_grammar_rejects_whitespace():
    out = run_cli("eval", "--p", "0", "--q", "0", "--n", "2", "--z", "1 + 2i")
    assert out.returncode == 2


def test_roots_command_reports_localization():
    out = run_cli("roots", "--p", "0", "--q", "0", "--n", "2")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    res = doc["results"]
    assert res["roots"] == [[-1, -1], [-1, 1]]
    assert res["min_modulus"] == pytest.approx(2 ** 0.5, rel=1e-12)
    assert res["ek_annulus"] == [1, 2]
    assert res["positive_real_root_found"] is False


def test_roots_rejects_invalid_family():
    out = run_cli("roots", "--p", "1", "--q", "0", "--a", "2", "--n", "3")
    assert out.returncode == 3
    assert "domain error" in out.stderr


OVERFLOWING_COEFFICIENT_COMMANDS = [
    ("gen", "--p", "2", "--q", "0", "--a", "1e200,1e200", "--n", "1"),
    ("eval", "--p", "2", "--q", "0", "--a", "1e200,1e200", "--n", "1",
     "--z", "0.5"),
    ("verify", "--p", "2", "--q", "0", "--a", "1e200,1e200", "--n-max", "2"),
    ("verify", "--p", "1", "--q", "0", "--a", "1e200", "--check", "sobolev",
     "--n-max", "1"),
    ("sweep", "--p", "1", "--q", "1", "--a", "1e200", "--b", "1",
     "--quantity", "gram-offdiag", "--grid-param", "b1", "--grid-values", "1",
     "--n-list", "1"),
    ("gen", "--p", "1", "--q", "0", "--a", "1e200", "--n", "1"),
    # Poly arithmetic overflows: building R (a_1·a_2), or forming R g_n.
    ("gen", "--p", "2", "--q", "0", "--a", "1e200,1e200", "--n", "0"),
    ("verify", "--p", "2", "--q", "0", "--a", "1e200,1e200", "--n-max", "0"),
    ("verify", "--p", "1", "--q", "0", "--a", "1e200", "--check", "ode",
     "--n-max", "1"),
    ("verify", "--p", "0", "--q", "2", "--b", "1e200,1e200", "--check", "ode",
     "--n-max", "0"),
]


# Commands whose overflow happens while expanding the operator R.
R_EXPANSION_OVERFLOWS = {OVERFLOWING_COEFFICIENT_COMMANDS[i] for i in (6, 9)}


@pytest.mark.parametrize("args", OVERFLOWING_COEFFICIENT_COMMANDS)
def test_overflowing_coefficients_are_domain_errors(args):
    out = run_cli(*args, env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert out.returncode == 3
    assert out.stderr.startswith("domain error: ")
    assert out.stdout == ""
    if args in R_EXPANSION_OVERFLOWS:
        assert "expanding R" in out.stderr


def test_monic_recurrence_overflow_is_domain_error_naming_the_degree():
    # The monic recurrence of this family overflows at degree 2, but the
    # check reads the coefficient sequence first, and xi_2 underflows.
    out = run_cli("verify", "--p", "0", "--q", "3", "--b", "1e100,1e100,1e100",
                  "--check", "rifrac", "--n-max", "25")
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == (
        "domain error: coefficient xi_2 underflowed to zero; degree would "
        "collapse\n"
    )


def test_a_modulus_beyond_the_float_range_is_a_refusal_not_a_crash():
    # |1/xi_2| exceeds the float range with finite parts. The monic
    # comparison would divide that row's deviation to 0, so it is refused;
    # the sobolev check, whose target |kappa_2|^-2 rounds to 0, runs.
    family = ("verify", "--p", "0", "--q", "1",
              "--b=9.44001724555802e+153-2.940212464201619e+153i", "--n-max", "2")
    out = run_cli(*family, "--check", "all",
                  env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == (
        "domain error: the coefficient scale of G_2 overflowed double "
        "precision in the recurrence check\n"
    )
    out = run_cli(*family, "--check", "sobolev",
                  env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert out.returncode == 0
    assert json.loads(out.stdout)["results"]["sobolev"]["status"] == "PASS"


@pytest.mark.parametrize("family, n_max, message", [
    # |g_3(-0.1)| is beyond the float range: Python's abs used to raise
    # (exit 1); the termwise integral is nan. From n_max 4 the sequence
    # refuses first, at xi_4, as in --check all.
    (("--p", "1", "--q", "3",
      "--a=1.1936179894187185e+153-1.3402462889824693e+153i",
      "--b=1680217685.9134743-946698586.9080684i,"
      "-1872940909705610.2+3300280769800696.5i,-2.32772429875795e+25"),
     "3", "the termwise clause is nan at degree 3, x = -0.1"),
    # The Gauss-Legendre integrand overflows: the quadrature is nan, and
    # the check used to drop it and PASS, printing numpy RuntimeWarnings.
    (("--p", "1", "--q", "0",
      "--a=2.1591727072926584e+152-7.419495869424143e+151i"),
     "2", "the quadrature clause is nan at degree 2, x = -0.1"),
])
def test_a_nan_axis_rep_clause_is_a_refusal(family, n_max, message):
    out = run_cli("verify", *family, "--check", "axis-rep", "--n-max", n_max)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr.startswith(f"domain error: {message} (g_")
    assert out.stderr.endswith(") in the axis-rep check\n")
    assert "Warning" not in out.stderr


@pytest.mark.parametrize("b", ["1e154", "2.2e154"])
def test_a_nan_vieta_clause_is_a_refusal(b):
    # xi_2 is subnormal, so the Vieta target c_0/c_2 is inf and the measure
    # nan; the check used to drop it and PASS.
    out = run_cli("verify", "--p", "0", "--q", "1", "--b", b, "--check",
                  "roots", "--n-max", "2",
                  env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == (
        "domain error: the Vieta clause is nan at degree 2 in the roots check\n"
    )


# 0F2(;1e300,1e300): xi_1 = 1e-600 is already 0. Every command names xi_1,
# as verify does; gen, eval and roots named the degree asked for (xi_5) and
# the convergence sweep its smallest degree (xi_2).
@pytest.mark.parametrize("argv", [
    ("roots", "--n", "5"),
    ("gen", "--n", "5"),
    ("gen", "--n", "5", "--monic"),
    ("eval", "--n", "5", "--z", "1"),
    ("sweep", "--quantity", "convergence", "--grid-param", "b1",
     "--grid-values", "1e300", "--n-list", "2,5"),
    ("verify", "--n-max", "5"),
])
def test_every_command_names_the_first_underflowed_coefficient(argv, capsys):
    family = ("--p", "0", "--q", "2", "--b", "1e300,1e300")
    assert cli.main([argv[0], *family, *argv[1:]]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("domain error: coefficient xi_1 underflowed to zero; "
                       "degree would collapse\n")


@pytest.mark.parametrize("a, b, messages", OVERFLOW_ERRORS)
def test_family_check_overflows_exit_3_with_the_first_error(a, b, messages, capsys):
    family = ["--p", str(len(a)), "--q", str(len(b)),
              "--a", ",".join(map(repr, a)), "--b", ",".join(map(repr, b))]
    for check, message in messages.items():
        argv = ["verify", *family, "--check", check, "--n-max", "25"]
        assert cli.main(argv) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"domain error: {message}\n"


def test_verify_single_check_passes():
    out = run_cli(
        "verify", "--check", "roots", "--p", "0", "--q", "1", "--b", "1.5",
        "--n-max", "12",
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    rows = doc["results"]
    assert list(rows) == ["roots"]
    assert rows["roots"]["status"] == "PASS"
    assert rows["roots"]["max_residual"] <= rows["roots"]["tolerance"]


def test_verify_inapplicable_single_check_exits_3():
    out = run_cli("verify", "--p", "1", "--q", "0", "--a", "2", "--check",
                  "circle-rep")
    assert out.returncode == 3
    assert "circle" in out.stderr


def test_verify_all_skips_inapplicable_and_passes():
    out = run_cli(
        "verify", "--p", "1", "--q", "0", "--a", "1", "--check", "all",
        "--n-max", "8", "--draws", "20",
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    statuses = {name: row["status"] for name, row in doc["results"].items()}
    assert statuses["circle-rep"] == "SKIP"
    assert statuses["roots"] == "SKIP"
    assert statuses["recurrence"] == "PASS"


def test_verify_failure_exits_4():
    out = run_cli(
        "verify", "--p", "0", "--q", "0", "--check", "recurrence",
        "--n-max", "6", "--tol", "1e-30",
    )
    assert out.returncode == 4
    doc = json.loads(out.stdout)
    assert doc["results"]["recurrence"]["status"] == "FAIL"


def test_verify_tolerance_override_needs_a_single_check():
    out = run_cli(
        "verify", "--p", "1", "--q", "1", "--a", "1", "--b", "2", "--check",
        "all", "--tol", "1e-9", "--n-max", "6",
    )
    assert out.returncode == 2
    assert "--tol needs a single --check" in out.stderr
    assert out.stdout == ""


def test_verify_all_is_byte_deterministic():
    args = ("verify", "--p", "0", "--q", "0", "--check", "all", "--seed", "7",
            "--n-max", "8", "--draws", "20")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_verify_csv_format():
    out = run_cli(
        "verify", "--p", "0", "--q", "0", "--check", "recurrence",
        "--format", "csv",
    )
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "check,status,max_residual,tolerance,detail"
    assert lines[1].startswith("recurrence,PASS,")


def test_sweep_rows_and_ordering():
    out = run_cli(
        "sweep", "--p", "0", "--q", "1", "--b", "2", "--quantity",
        "root-modulus", "--grid-param", "b1", "--grid-values", "1.5,2.5",
        "--n-list", "3,2",
    )
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "quantity,grid_param,grid_index,grid_value,n,value"
    assert len(lines) == 5
    # Rows sorted by (grid_index, n) regardless of the order given.
    cells = [line.split(",") for line in lines[1:]]
    assert [(c[2], c[4]) for c in cells] == [
        ("0", "2"), ("0", "3"), ("1", "2"), ("1", "3")
    ]
    for c in cells:
        assert float(c[5]) >= 1.0


def test_sweep_root_modulus_solves_the_grid_in_one_root_table(monkeypatch, capsys):
    # Unsorted and repeated degrees, 0 and 1 among them: every value is
    # location_report's, bit for bit, and the whole grid is one root table
    # without a row for g_0.
    ns, grid = (12, 0, 5, 1, 12), (1.0, 3.5)
    want = [
        (str(gi), str(n), location_report(HypParams((0.5,), (gv, 2.25)), n).min_modulus)
        for gi, gv in enumerate(grid) for n in sorted(ns)
    ]
    degrees = []
    table = roots._root_table

    def recording(polys, *args):
        degrees.append([g.degree for g in polys])
        return table(polys, *args)

    monkeypatch.setattr(roots, "_root_table", recording)
    argv = ["sweep", "--p", "1", "--q", "2", "--a", "0.5", "--b", "1.5,2.25",
            "--quantity", "root-modulus", "--grid-param", "b1",
            "--grid-values", "1,3.5", "--n-list", "12,0,5,1,12"]
    assert cli.main(argv) == 0
    assert degrees == [[1, 5, 12, 12] * len(grid)]
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert [(r[2], r[4], float(r[5])) for r in rows] == want


def test_sweep_empty_grid_is_header_only():
    out = run_cli(
        "sweep", "--p", "0", "--q", "0", "--quantity", "convergence",
        "--grid-param", "b1", "--grid-values", "", "--n-list", "2",
    )
    assert out.returncode == 0
    assert out.stdout == "quantity,grid_param,grid_index,grid_value,n,value\n"


def test_sweep_unknown_grid_slot_is_domain_error():
    out = run_cli(
        "sweep", "--p", "0", "--q", "0", "--quantity", "convergence",
        "--grid-param", "b2", "--grid-values", "1.0", "--n-list", "2",
    )
    assert out.returncode == 3


def test_sweep_gram_offdiag_is_byte_deterministic():
    args = (
        "sweep", "--p", "0", "--q", "1", "--b", "2", "--quantity",
        "gram-offdiag", "--grid-param", "b1", "--grid-values", "1.5,2.0,3.0",
        "--n-list", "4,2",
    )
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    rows = [line.split(",") for line in a.stdout.splitlines()[1:]]
    assert [(r[2], r[4]) for r in rows] == [
        (gi, n) for gi in "012" for n in "24"
    ]


def test_sweep_gram_offdiag_reads_every_degree_off_one_gram(monkeypatch, capsys):
    # Unsorted and repeated degrees; the oracle builds the Gram per degree.
    ns, grid = (17, 3, 40, 3, 0), (1.0, 3.5)
    calls = []

    def recording(images):
        calls.append(images.shape)
        return _gram_stack(images)

    monkeypatch.setattr(sobolev, "_gram_stack", recording)
    argv = ["sweep", "--p", "1", "--q", "2", "--a", "1.5+0.5i",
            "--b", "2,1.25+1i", "--quantity", "gram-offdiag", "--grid-param",
            "b1", "--grid-values", "1,3.5", "--n-list", "17,3,40,3,0"]
    assert cli.main(argv) == 0
    assert calls == [(2, 41, 41)]  # one engine call covers both cells
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    want = []
    for gi, gv in enumerate(grid):
        params = HypParams(a=(1.5 + 0.5j,), b=(gv, 1.25 + 1j))
        for n in sorted(ns):
            off, max_diag = gram_extremes(sobolev_gram(params, n))
            want.append((str(gi), str(n), off / max_diag))
    assert [(r[2], r[4], float(r[5])) for r in rows] == want


@pytest.mark.parametrize("a, b, n_args, message", [
    # The Gram of degree 0 overflows, and xi_3 underflows.
    ("1e155", "1e300", ["--n-list", "0,5"], "coefficient xi_3 underflowed"),
    # A negative degree is refused before the one Gram is built.
    ("1", "2", ["--n-list=-1,5"], "order must be nonnegative"),
])
def test_sweep_gram_cell_that_raises_is_a_domain_error(a, b, n_args, message, capsys):
    argv = ["sweep", "--p", "1", "--q", "1", "--a", a, "--b", b,
            "--quantity", "gram-offdiag", "--grid-param", "b1",
            "--grid-values", b, *n_args]
    assert cli.main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"domain error: {message}")


@pytest.mark.parametrize("grid, message", [
    # The first cell in grid order that fails, at any stage, decides: its
    # parameters, its coefficient sequence, or the overflow of its Gram.
    ("1e155,-1", "Gram matrix overflowed double precision"),
    ("1e155,1e300", "Gram matrix overflowed double precision"),
    ("1e300,1e155", "coefficient xi_3 underflowed"),
    ("-1,1e155", "parameter (-1+0j) lies within 1e-12"),
])
def test_sweep_gram_fails_with_the_first_failing_cell(grid, message, capsys):
    # b1 = 1e155 builds, and its Gram overflows; b1 = 1e300 underflows xi_3.
    argv = ["sweep", "--p", "1", "--q", "1", "--a", "1e155", "--b", "2",
            "--quantity", "gram-offdiag", "--grid-param", "b1",
            f"--grid-values={grid}", "--n-list", "5"]
    assert cli.main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"domain error: {message}")


SWEEP_HEADER = "quantity,grid_param,grid_index,grid_value,n,value\n"


@pytest.mark.parametrize("grid, n_list, code, out, err", [
    # No cell: nothing is built, so not even a negative degree is refused.
    ("", "-1", 0, SWEEP_HEADER, ""),
    # No degree: every cell is still built, and none computes a Gram.
    ("2,3", "", 0, SWEEP_HEADER, ""),
    ("2,-1", "", 3, "", "domain error: parameter (-1+0j) lies within"),
])
def test_sweep_gram_with_an_empty_list(grid, n_list, code, out, err, capsys):
    argv = ["sweep", "--p", "1", "--q", "1", "--a", "1", "--b", "2",
            "--quantity", "gram-offdiag", "--grid-param", "b1",
            f"--grid-values={grid}", f"--n-list={n_list}"]
    assert cli.main(argv) == code
    got = capsys.readouterr()
    assert got.out == out
    assert got.err.startswith(err)


CIRCLE_PROBES = [
    complex(math.cos(2.0 * math.pi * j / 64.0), math.sin(2.0 * math.pi * j / 64.0))
    for j in range(64)
]


@pytest.mark.parametrize("params", [
    HypParams(a=(), b=(1.3,)),
    HypParams(a=(), b=(0.37,)),
    HypParams(a=(1.2,), b=(2.5,)),
    HypParams(a=(0.5 + 0.25j,), b=(1.5, 2.0 - 0.5j)),
    HypParams(a=(1.0, 1.5), b=(2.0, 2.5, 3.0)),
])
def test_sweep_convergence_is_the_sup_over_circle_probes(params):
    # Per degree, the sup of |g_n - series| over 64 equispaced points on
    # the unit circle, with repeated degrees kept.
    ns = [0, 2, 5, 5, 9]
    want = [
        max(abs(gn_direct(params, n)(z) - pfq.pfq_eval(params, z).value)
            for z in CIRCLE_PROBES)
        for n in ns
    ]
    assert cli._sweep_convergence([params], ns) == [want]


def test_sweep_with_no_degrees_evaluates_nothing(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("no series evaluation expected")

    monkeypatch.setattr(pfq, "pfq_eval", refuse)
    monkeypatch.setattr(pfq, "_sum_series", refuse)
    for p, a in (("1", "1.0"), ("2", "1.0,1.0")):
        argv = ["sweep", "--p", p, "--q", "1", "--a", a, "--b", "2.0",
                "--quantity", "convergence", "--grid-param", "b1",
                "--grid-values", "2.0,3.0", "--n-list", ""]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (
            "quantity,grid_param,grid_index,grid_value,n,value\n"
        )


def test_sweep_convergence_reports_the_first_failed_point(monkeypatch):
    monkeypatch.setattr(pfq, "SERIES_TERM_CAP", 2)
    with pytest.raises(ConvergenceError) as exc:
        cli._sweep_convergence([HypParams(a=(1.0,), b=(2.0,))], [3])
    assert str(exc.value) == "series did not converge within 2 terms at z = (1+0j)"


def _convergence_cell(params, ns):
    """Oracle: the convergence sweep of one cell, as it was computed cell
    by cell: convergence_report's refusals, the series point by point
    (pfq_eval raises at the first probe that fails), g_n by Poly
    evaluation, and Python's max."""
    if params.p > params.q:
        raise DomainError("convergence sweep requires p <= q")
    _check_cap(ns[0])
    seq = read_family(params, ns[-1]).seq(ns[-1])
    series = [pfq.pfq_eval(params, z).value for z in CIRCLE_PROBES]
    return [max(abs(Poly(seq[: n + 1])(z) - fz) for z, fz in zip(CIRCLE_PROBES, series))
            for n in ns]


def _root_modulus_cell(params, ns):
    """Oracle: the root-modulus sweep of one cell, one root table per
    cell."""
    _check_cap(ns[0])
    roots._require_positive_conditions(params)
    seq = read_family(params, ns[-1]).seq(ns[-1])
    return [report.min_modulus for report in roots._location_reports([seq], ns)[0]]


def _gram_offdiag_cell(params, ns):
    """Oracle: the gram-offdiag sweep of one cell, its Gram to the largest
    degree by sobolev_gram, then gram_extremes on each degree's leading
    block."""
    _check_cap(ns[0])
    gram = np.array(sobolev_gram(params, ns[-1]))
    return [off / max_diag for off, max_diag in
            (gram_extremes(gram[: n + 1, : n + 1]) for n in ns)]


SWEEP_ORACLES = {"convergence": _convergence_cell, "root-modulus": _root_modulus_cell,
                 "gram-offdiag": _gram_offdiag_cell}


def _sweep_outcome(argv, capsys):
    code = cli.main(argv)
    got = capsys.readouterr()
    return code, got.out, got.err


def _equals_cell_by_cell(monkeypatch, capsys, quantity, family, grid, n_list):
    """The stacked sweep's document or refusal is the one of its oracle
    taken cell by cell, in grid order."""
    argv = ["sweep", *family, "--quantity", quantity, "--grid-param", "b1",
            f"--grid-values={grid}", f"--n-list={n_list}"]
    stacked = _sweep_outcome(argv, capsys)
    oracle = SWEEP_ORACLES[quantity]
    with monkeypatch.context() as m:
        m.setitem(cli._SWEEP_FUNCS, quantity,
                  lambda cells, ns: [oracle(params, ns) for params in cells])
        assert stacked == _sweep_outcome(argv, capsys)
    return stacked


CONVERGENCE_FAMILY = ("--p", "1", "--q", "2", "--a", "0.5+0.25i", "--b", "1.5,2.0-0.5i")
ROOT_FAMILY = ("--p", "1", "--q", "2", "--a", "0.5", "--b", "1.5,2.25")


@pytest.mark.parametrize("quantity, family, grid, n_list", [
    # Unsorted and repeated degrees, 0 and 1 among them; complex parameters.
    ("convergence", CONVERGENCE_FAMILY, "1.5,2.5,3.25,4", "0,2,5,5,9"),
    ("convergence", ("--p", "0", "--q", "1", "--b", "2"), "0.37,1.3", "9,1,0,1"),
    ("root-modulus", ROOT_FAMILY, "1,3.5,2,1.25", "12,0,5,1,12,40"),
    ("root-modulus", ("--p", "0", "--q", "1", "--b", "2"), "1.5,2.5", "3,2"),
    ("gram-offdiag", CONVERGENCE_FAMILY, "1,3.5,2,1.25", "17,3,40,3,0"),
    ("gram-offdiag", ("--p", "0", "--q", "1", "--b", "2"), "1.5,2.5", "3,2"),
])
def test_stacked_sweep_values_are_the_cell_by_cell_values(
        quantity, family, grid, n_list, monkeypatch, capsys):
    code, out, _ = _equals_cell_by_cell(monkeypatch, capsys, quantity, family,
                                        grid, n_list)
    assert code == 0
    assert len(out.splitlines()) == 1 + len(grid.split(",")) * len(n_list.split(","))


@pytest.mark.parametrize("quantity", ["convergence", "root-modulus", "gram-offdiag"])
def test_stacked_sweep_of_an_empty_grid_is_header_only(quantity, monkeypatch, capsys):
    got = _equals_cell_by_cell(monkeypatch, capsys, quantity, ROOT_FAMILY, "", "2,5")
    assert got == (0, SWEEP_HEADER, "")


@pytest.mark.parametrize("grid, err", [
    # Cell 0's root table fails (g_5's eigenvalues are moved off its roots);
    # cell 1 fails the localization preconditions (a_1 > b_1), or its
    # parameter is excluded. The earlier cell decides, whatever its stage.
    ("1.5,0.25", "convergence failure: residual"),
    ("0.25,1.5", "domain error: need 0 < a_1 <= b_1"),
    ("1.5,-1", "convergence failure: residual"),
    ("1.5,1.25,0.25", "convergence failure: residual"),
])
def test_stacked_root_modulus_fails_with_the_first_failing_cell(
        grid, err, monkeypatch, capsys):
    companion = roots._companion_roots

    def shifted(coeffs):
        w = companion(coeffs)
        return w * 0 + 100.0 if len(coeffs) - 1 == 5 else w

    monkeypatch.setattr(roots, "_companion_roots", shifted)
    family = ("--p", "1", "--q", "1", "--a", "0.5", "--b", "1.5")
    code, out, got = _equals_cell_by_cell(monkeypatch, capsys, "root-modulus",
                                          family, grid, "3,5")
    assert (code, out) == (3, "")
    assert got.startswith(err)


@pytest.mark.parametrize("grid, err", [
    # With the series cap lowered, every probe of b1 = 1.5 fails; b1 = 1e300
    # underflows xi_2, b1 = -1 is excluded. The earlier cell decides.
    ("1.5,1e300", "convergence failure: series did not converge within 5 terms"),
    ("1e300,1.5", "domain error: coefficient xi_2 underflowed"),
    ("1.5,-1", "convergence failure: series did not converge within 5 terms"),
    ("-1,1.5", "domain error: parameter (-1+0j) lies within"),
])
def test_stacked_convergence_fails_with_the_first_failing_cell(
        grid, err, monkeypatch, capsys):
    monkeypatch.setattr(pfq, "SERIES_TERM_CAP", 5)
    family = ("--p", "0", "--q", "1", "--b", "2")
    code, out, got = _equals_cell_by_cell(monkeypatch, capsys, "convergence",
                                          family, grid, "2,4")
    assert (code, out) == (3, "")
    assert got.startswith(err)


@pytest.mark.parametrize("grid, err", [
    # 1F1(1e60; b1) to degree 5. b1 = 1e60 and 2e60 are sound; b1 = 1e20
    # builds, and its Gram overflows; b1 = 1e300 underflows xi_2; R g_5 of
    # b1 = 1 overflows while the R images are read, before any Gram; b1 =
    # -1 is excluded. The earlier cell decides, whatever its stage.
    ("1e60,1e20,1e300", "domain error: Gram matrix overflowed"),
    ("1e60,1e300,1e20", "domain error: coefficient xi_2 underflowed"),
    ("1e20,1e60", "domain error: Gram matrix overflowed"),
    ("1e60,1e20,-1", "domain error: Gram matrix overflowed"),
    ("1e60,2e60,-1", "domain error: parameter (-1+0j) lies within"),
    ("-1", "domain error: parameter (-1+0j) lies within"),
    ("1e60,1,1e20", "domain error: R applied to row 5 overflowed"),
    ("1e20,1", "domain error: Gram matrix overflowed"),
    ("1e60,1,-1", "domain error: R applied to row 5 overflowed"),
])
def test_stacked_gram_offdiag_fails_with_the_first_failing_cell(
        grid, err, monkeypatch, capsys):
    family = ("--p", "1", "--q", "1", "--a", "1e60", "--b", "2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, got = _equals_cell_by_cell(monkeypatch, capsys, "gram-offdiag",
                                              family, grid, "2,5")
    assert (code, out) == (3, "")
    assert got.startswith(err)


def test_a_failing_convergence_probe_is_summed_once(monkeypatch):
    # The sweep words the failed probe from the sums it holds; it sums no
    # series a second time.
    calls, summed = [], pfq._sum_series

    def counting(*args):
        calls.append(len(args[2]))
        return summed(*args)

    monkeypatch.setattr(pfq, "SERIES_TERM_CAP", 5)
    monkeypatch.setattr(pfq, "_sum_series", counting)
    cells = [HypParams(b=(2.0,)), HypParams(b=(1.5,))]
    with pytest.raises(ConvergenceError) as exc:
        cli._sweep_convergence(cells, [2, 4])
    assert str(exc.value) == "series did not converge within 5 terms at z = (1+0j)"
    assert calls == [2 * len(CIRCLE_PROBES)]


def test_circle_rep_names_the_node_its_series_failed_at(monkeypatch, capsys):
    # The circle representation refuses as pfq_eval and the convergence
    # sweep do: the first failed node, and why.
    monkeypatch.setattr(pfq, "SERIES_TERM_CAP", 5)
    code = cli.main(["verify", "--p", "1", "--q", "1", "--a", "1", "--b", "2",
                     "--check", "circle-rep", "--n-max", "4"])
    result = json.loads(capsys.readouterr().out)["results"]["circle-rep"]
    assert code == 4
    assert result["status"] == "FAIL"
    assert result["detail"] == (
        "did not converge: series did not converge within 5 terms at z = (1+0j)"
    )


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "doc.json"
    out = run_cli(
        "gen", "--p", "0", "--q", "0", "--n", "2", "--out", str(target)
    )
    assert out.returncode == 0
    assert out.stdout == ""
    doc = json.loads(target.read_text())
    assert doc["results"]["g"] == [1, 1, 0.5]


def test_unknown_command_is_usage_error():
    out = run_cli("frobnicate")
    assert out.returncode == 2


# What argparse prints at a terminal 80 columns wide, taken from the program
# before the --check choices moved out of hypersum.checks: the root and the
# verify help, and the refusal of an unknown check.
ROOT_HELP = """\
usage: hypersum [-h] [--version] {gen,eval,roots,verify,pencil,sweep} ...

Partial sums of generalized hypergeometric series: construction, evaluation,
root localization, identity verification, and parameter sweeps.

positional arguments:
  {gen,eval,roots,verify,pencil,sweep}
    gen                 emit g_n/G_n coefficients, delta_k, kappa_n, R
    eval                evaluate g_n (and optionally the series)
    roots               roots of g_n with localization report
    verify              run identity checks (PASS/FAIL)
    pencil              pencil-associated polynomials and residuals
    sweep               CSV sweep over a parameter grid

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""
VERIFY_USAGE = """\
usage: hypersum verify [-h] [--p P] [--q Q] [--a A] [--b B] [--out OUT]
                       [--format {json,csv}] [--n-max N_MAX]
                       [--check {recurrence,ode,sobolev,circle-rep,axis-rep,roots,rifrac,pencil,all}]
                       [--seed SEED] [--draws DRAWS] [--tol TOL]
"""
VERIFY_HELP = VERIFY_USAGE + """\

options:
  -h, --help            show this help message and exit
  --p P                 number of a parameters
  --q Q                 number of b parameters
  --a A                 comma-separated a parameters (complex literals like
                        1.5-0.25i)
  --b B                 comma-separated b parameters
  --out OUT             write the document to FILE
  --format {json,csv}
  --n-max N_MAX
  --check {recurrence,ode,sobolev,circle-rep,axis-rep,roots,rifrac,pencil,all}
  --seed SEED
  --draws DRAWS
  --tol TOL             override the tolerance of the one selected --check
"""
BOGUS_CHECK = VERIFY_USAGE + (
    "hypersum verify: error: argument --check: invalid choice: 'bogus' "
    "(choose from 'recurrence', 'ode', 'sobolev', 'circle-rep', 'axis-rep', "
    "'roots', 'rifrac', 'pencil', 'all')\n"
)


@pytest.mark.parametrize("args, code, stdout, stderr", [
    (("--help",), 0, ROOT_HELP, ""),
    (("verify", "--help"), 0, VERIFY_HELP, ""),
    (("verify", "--check", "bogus"), 2, "", BOGUS_CHECK),
], ids=["root-help", "verify-help", "unknown-check"])
def test_help_and_usage_texts_are_pinned(args, code, stdout, stderr):
    out = run_cli(*args, env_extra={"COLUMNS": "80"})
    assert (out.returncode, out.stdout, out.stderr) == (code, stdout, stderr)


def test_pencil_command_worked_example():
    out = run_cli(
        "pencil", "--n", "2",
        "--j3-diag", "0,0", "--j3-offdiag", "1,1",
        "--j5-diag", "0,0", "--j5-off1", "0,0", "--j5-off2", "1,1",
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["results"]["p"][2] == [0, 0, 1]
    assert doc["results"]["residual_max"] <= 1e-10


def test_pencil_command_with_no_rows():
    # p_0 = 1 needs no band entry, and n = 0 leaves no row to check.
    out = run_cli("pencil", "--n", "0")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["results"]["p"] == [[1]]
    assert doc["results"]["rows"] == 0
    assert doc["results"]["residual_max"] == 0


def test_pencil_command_past_the_degree_cap_is_domain_error():
    band = ",".join(["0.5"] * 172)
    out = run_cli("pencil", "--n", "172", "--j3-diag", band, "--j3-offdiag", band,
                  "--j5-diag", band, "--j5-off1", band, "--j5-off2", band)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr.startswith("domain error: N = 172 exceeds the degree cap 170")


def test_an_overflowing_pencil_is_one_domain_error_line():
    # Bands of 1e308 printed numpy RuntimeWarnings, then refused with
    # "non-finite coefficient: -inf".
    band = "1e308,1e308,1e308"
    out = run_cli("pencil", "--n", "4", "--j3-diag", band, "--j3-offdiag", band,
                  "--j5-diag", band, "--j5-off1", band, "--j5-off2", band)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == "domain error: p_4 overflowed double precision\n"


@pytest.mark.parametrize("check", ["recurrence", "ode", "sobolev", "circle-rep",
                                   "axis-rep", "roots", "rifrac", "all"])
def test_verify_refuses_negative_n_max(check, capsys):
    argv = ["verify", "--p", "1", "--q", "1", "--a", "1", "--b", "2",
            "--check", check, "--n-max", "-1"]
    assert cli.main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "domain error: order must be nonnegative\n"


def test_verify_refuses_negative_draws(capsys):
    argv = ["verify", "--p", "1", "--q", "1", "--a", "1", "--b", "2",
            "--check", "pencil"]
    assert cli.main(argv + ["--draws", "-5"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "domain error: draws must be nonnegative\n"
    assert cli.main(argv + ["--draws", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["pencil"]["status"] == "PASS"


def test_in_process_sequence_matches_separate_runs(capsys):
    # main() reuses one parser per process; a sequence of commands in one
    # process, with a usage error among them, must print what separate
    # processes print.
    verify = ("verify", "--p", "1", "--q", "1", "--a", "1.0", "--b", "2.0",
              "--n-max", "8", "--draws", "20", "--seed", "3")
    sweep = ("sweep", "--p", "1", "--q", "1", "--a", "1.0", "--b", "2.0",
             "--quantity", "gram-offdiag", "--grid-param", "b1",
             "--grid-values", "2.0,3.0", "--n-list", "4,8")
    pencil = ("pencil", "--n", "3", "--j3-diag", "1,2", "--j3-offdiag",
              "0.5,0.5", "--j5-diag", "1,1", "--j5-off1", "0.2,0.2",
              "--j5-off2", "0.1,0.1", "--lam", "0,1-2i", "--format", "csv")
    separate = []
    for argv in (verify, sweep, pencil, verify):
        out = run_cli(*argv)
        assert out.returncode == 0
        separate.append(out.stdout)
    in_process = []
    for argv in (verify, sweep, pencil, verify):
        assert cli.main(list(argv)) == 0
        in_process.append(capsys.readouterr().out)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--n-max", "ten"])
        assert exc.value.code == 2
        capsys.readouterr()
    assert in_process == separate
    assert cli.build_parser() is cli.build_parser()


NAN, INF = float("nan"), float("inf")
EDGE_DOCUMENT = {
    "b": [None, True, False, 0, -3],
    "a": {},
    "B": [],
    "10": (1.5, -0.0, 1e-300, 0.1, 1.0),
    "9": [NAN, INF, -INF],
    "c": [2 + 0j, 1 - 2j, complex(1, NAN), complex(NAN, 0)],
    "s": ['a"b\\c\n', "é"],
    "n": [[], [[1]], {"y": (), "x": None}],
}
EDGE_JSON = r"""{
  "10": [
    1.5,
    -0,
    1e-300,
    0.10000000000000001,
    1
  ],
  "9": [
    "nan",
    "inf",
    "-inf"
  ],
  "B": [],
  "a": {},
  "b": [
    null,
    true,
    false,
    0,
    -3
  ],
  "c": [
    2,
    [
      1,
      -2
    ],
    [
      1,
      "nan"
    ],
    "nan"
  ],
  "n": [
    [],
    [
      [
        1
      ]
    ],
    {
      "x": null,
      "y": []
    }
  ],
  "s": [
    "a\"b\\c\n",
    "\u00e9"
  ]
}
"""


def test_renderers_write_the_documented_text():
    # Keys sorted as strings, two-space indent, one element per line,
    # bool before int, None as null, non-finite floats quoted, tuples as
    # arrays, complex as a bare number or [re, im].
    assert cli.render_json(EDGE_DOCUMENT) == EDGE_JSON
    assert [cli.render_json(x) for x in ([], {}, (), 1 - 0j, "x", None, 7)] == [
        "[]\n", "{}\n", "[]\n", "1\n", '"x"\n', "null\n", "7\n"]
    # CSV writes None as an empty cell and non-finite floats bare.
    rows = [(None, True), (False, 3), (1.5, -0.0), (NAN, INF), (-INF, 'a,"b')]
    assert cli.render_csv(("k", "v"), rows) == (
        'k,v\n,true\nfalse,3\n1.5,-0\nnan,inf\n-inf,"a,""b"\n')
    with pytest.raises(TypeError, match="cannot serialize set"):
        cli.render_json({"x": {1}})


# sha256 of the stdout of default documents: verify --check all on fixed
# real and complex families and one sweep of each quantity. A change that
# moves a byte of one changes its digest; where that is meant, say so and
# retake the digests from the changed program. Taken with numpy 2.4 on
# x86-64: another numpy or LAPACK build may round the companion
# eigenvalues differently.
DOCUMENT_DIGESTS = [
    ("verify --p 0 --q 0 --check all --n-max 10 --seed 3",
     0, "7b140af9b0e5831ed4f74fb9ec07d614d84d9b32db1f27a91c8a7f8829a048a6"),
    ("verify --p 2 --q 3 --a 1,1.5 --b 2,2.5,3 --check all --n-max 25 --seed 3",
     0, "47d4939e5a49aef927e5dc3273082ce9184efa18dad5410ed826068200174ba2"),
    ("verify --p 1 --q 1 --a 1 --b 2 --check all --n-max 25 --seed 3",
     0, "d1d97ee2cdf3a746b69abe4224664c149cd5e34cc90c95e74bcd9d528786f926"),
    ("verify --p 0 --q 2 --b 1.3,2.2 --check all --n-max 10 --seed 3",
     0, "aa6e61c7ffead9d79a68dbeec8d18f31cbe006cc91c608ff54a18f231ae02b59"),
    ("verify --p 0 --q 1 --b 1 --check all --n-max 10 --seed 3",
     4, "69d921e64f274ff89ef8b7df02090de37e08e81b627b724789c1afb5b2e7e66b"),
    ("verify --p 1 --q 0 --a 0.75 --check all --n-max 10 --seed 3",
     0, "04bb038ec180183516fcded3901623f483ef401207eaa969ef4b658c4c7cef43"),
    ("verify --p 1 --q 2 --a 0.5+0.3i --b 1.2-0.4i,2.1+0.2i "
     "--check all --n-max 25 --seed 3",
     0, "eb74b2ea890529639019a01312ea8eae9edbdabaa9a59fea820a2ff7e825278f"),
    ("verify --p 3 --q 1 --a 1,1.5,2 --b 2.5 --check all --n-max 25 --seed 3",
     0, "19d71e08d5001d867ea7c486f13d257665caebbf166e623f8d11e790e9026386"),
    ("verify --p 2 --q 2 --a 1+0.5i,3 --b 2+0.5i,4 --check all --n-max 10 --seed 3",
     0, "c7cd391b24ea1132acae32253bc1f48297b79feae2a3802968105af1493f3b67"),
    ("verify --p 3 --q 3 --a 0.5,1.25-0.5i,2 --b 1.5+1i,2.5,3.25 "
     "--check all --n-max 25 --seed 3",
     0, "9283db9be0032490ce38cc130ad73666aa6067d048509b10e8d645d01a3f959b"),
    ("sweep --p 0 --q 1 --b 2 --quantity convergence --grid-param b1 "
     "--grid-values 1.5,2.5,3.25 --n-list 2,5,10,20",
     0, "7bf811b707564afa8fe9a36071407ca6a65124164d1d6ccf2917f02b1ef6812f"),
    ("sweep --p 0 --q 1 --b 2 --quantity gram-offdiag --grid-param b1 "
     "--grid-values 1.5,2.5,3.25 --n-list 2,5,10,20",
     0, "f44be5b6c3b26c99d2e74a2cf04f0f53dfa3b9e80750aad2a86d875496adb8f8"),
    ("sweep --p 0 --q 1 --b 2 --quantity root-modulus --grid-param b1 "
     "--grid-values 1.5,2.5,3.25 --n-list 2,5,10,20",
     0, "9a5571ebb8ef95522caa2a7d5f36184be1b63ccd8f78e735e937846e5f4ea037"),
    # axis-rep on a complex family; a 128-node exactness rule (its (127, 0)
    # pair takes Python's pow); rifrac FAILing at 4.79e-12, which shows
    # any change in the rounding of the monic recurrence.
    ("verify --p 2 --q 2 --a=-2.5+0.5i,0.7+0.2i --b=0.3-1.2i,4.0+2.0i "
     "--check axis-rep --n-max 25",
     0, "8b3142db227095cbf70912c467cbdf84df9f743c7c21794a7eda422e1aeeb89b"),
    ("verify --p 0 --q 13 --b 1.5,1.75,2,2.25,2.5,2.75,3,3.25,3.5,3.75,4,4.25,4.5 "
     "--check sobolev --n-max 15",
     0, "d74daa16cd2179cab43977b852ab2bf2f2ce8805632c7ddd80a47ab13d103962"),
    ("verify --p 3 --q 1 --a=-3.79+1.84i,-2.88-1.47i,-5.04-0.21i --b=4.27+1.47i "
     "--check all --n-max 25 --draws 0",
     4, "f320b7a35308bb37a63b32c39ba1a785a42579ea2edc3d62d63b94d6f75f5bcc"),
    # The stacked sweeps on complex parameters and on unsorted, repeated
    # degrees with 0 and 1 among them; two root tables whose residual gate
    # reads the polish's last evaluation.
    ("sweep --p 1 --q 2 --a 0.5+0.25i --b 1.5,2.0-0.5i --quantity convergence "
     "--grid-param b1 --grid-values 1.5,2.5,3.25,4 --n-list 0,2,5,5,9",
     0, "05999e66bde5e300d891efb50bf255341d9145b43f6ad3c20b5f5d01804eddc5"),
    ("sweep --p 1 --q 2 --a 0.5 --b 1.5,2.25 --quantity root-modulus "
     "--grid-param b1 --grid-values 1,3.5,2,1.25 --n-list 12,0,5,1,12,40",
     0, "f6e4b6ccfcf89ba963e325c9f98e248d76440b811f74adfcdcf8b2de14b27292"),
    # The pencil command on one pencil at four lambdas and at one (a row
    # sum over a single entry), and the pencil check on 1000 draws and 1.
    ("pencil --n 4 --j3-diag=0.3,-1.1,0.7 --j3-offdiag 1.3,0.4,1.9 "
     "--j5-diag=-0.6,1.2,0.1 --j5-off1=0.5,-1.7,0.9 --j5-off2 0.35,1.6,0.8 "
     "--alpha 0.9 --beta=-0.4",
     0, "77d574fa754a4356726c5f3010e12a9a2d7d72a8a188fdc0d781348690812257"),
    ("pencil --n 4 --j3-diag=0.3,-1.1,0.7 --j3-offdiag 1.3,0.4,1.9 "
     "--j5-diag=-0.6,1.2,0.1 --j5-off1=0.5,-1.7,0.9 --j5-off2 0.35,1.6,0.8 "
     "--alpha 0.9 --beta=-0.4 --lam 2.5-0.75i",
     0, "b4fd4acad1fc4678da74c7090014019fe1f1dac11904c122b90aca45ca8d56b4"),
    ("verify --p 0 --q 0 --check pencil --draws 1000 --seed 5",
     0, "201d3bf6ebd1ced06e93da4f692e5a61d1c891a279f1d1c3475e9c30af0272ce"),
    ("verify --p 0 --q 0 --check pencil --draws 1 --seed 5",
     0, "b6d6e9a3dccdd74b3189a47efb1fb695059e116bd23beec715e0fb494b4375f8"),
    ("roots --p 0 --q 0 --n 60",
     0, "c17098878f20cc91483cfce73a127575bd7b7c612a409e8b3d8ea819361c0690"),
    ("roots --p 1 --q 1 --a 1 --b 2 --n 100",
     0, "ed8e9bb7d01bf9741b8498f1c23520bbd41bfb0fae0f98cd31416f091e14619a"),
    # gen prints R's expanded coefficients: exp, a complex 1F2 and a 3F3,
    # each in both formats, with and without the monic sums; eval --series
    # at three points of two families.
    ("gen --p 0 --q 0 --n 8",
     0, "bd1a27a037ab5c249986f200a31d485dada1530b1857b336fe32ec1cf1f3d604"),
    ("gen --p 0 --q 0 --n 8 --format csv --monic",
     0, "90887333ebeced84f84d51e58c4a8e41a37d1512d735e1bb27ec990be8be5ee2"),
    ("gen --p 1 --q 2 --a 0.5+0.3i --b 1.2-0.4i,2.1+0.2i --n 12 --monic",
     0, "dce74e19c9de13f47d0d69689d01bea4b09c0b71483f7227b39e083d647d5038"),
    ("gen --p 1 --q 2 --a 0.5+0.3i --b 1.2-0.4i,2.1+0.2i --n 12 --format csv",
     0, "e3bf2181193aa6cf6a1f8dd9fb30c4ce1786b0da8332eaeda93802ebf4ae869b"),
    ("gen --p 3 --q 3 --a 0.5,1.25-0.5i,2 --b 1.5+1i,2.5,3.25 --n 15",
     0, "54535b8f776476650c1a6bad385c303d6eb40e9d7ba86ed4d84889f238bfc242"),
    ("gen --p 3 --q 3 --a 0.5,1.25-0.5i,2 --b 1.5+1i,2.5,3.25 --n 15 --format csv --monic",
     0, "03bfd5710dda45870360ccc0d9b67249fd9e0e08777e3af5e474ed00668326b1"),
    ("eval --p 1 --q 1 --a 1 --b 2 --n 5 --z 0.5,-2+1i,0+3i --series",
     0, "b4d42d9e6e2cb5d05e23b679a828fdf38b0236ce9378bcf21a1b172c20b72b8e"),
    ("eval --p 1 --q 2 --a 0.5+0.3i --b 1.2-0.4i,2.1+0.2i --n 8 "
     "--z 0.25-0.5i,-4,1+1i --series --format csv",
     0, "5be9c27a9af3708d9856ffb1bb3c4abbbdb37435383b6e1353b96e27f33e7ae9"),
]


@pytest.mark.parametrize("argv, code, digest", DOCUMENT_DIGESTS,
                         ids=[argv for argv, _, _ in DOCUMENT_DIGESTS])
def test_default_documents_stay_byte_identical(argv, code, digest, capsys):
    assert cli.main(argv.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
