"""End-to-end command line behavior through subprocess.

Covers the documented output schema, exit codes (0 ok, 2 usage, 3 domain,
4 verification failure), byte-level determinism, and the sweep table.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import hypersum
from hypersum import cli, pfq
from hypersum.errors import ConvergenceError
from hypersum.partial_sums import HypParams, gn_direct
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
    # (exit 1); the termwise integral is nan.
    (("--p", "1", "--q", "3",
      "--a=1.1936179894187185e+153-1.3402462889824693e+153i",
      "--b=1680217685.9134743-946698586.9080684i,"
      "-1872940909705610.2+3300280769800696.5i,-2.32772429875795e+25"),
     "25", "the termwise clause is nan at degree 3, x = -0.1"),
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

    def recording(cells, n_max):
        cells = list(cells)
        calls.append((len(cells), n_max))
        return _gram_stack(cells, n_max)

    monkeypatch.setattr(cli, "_gram_stack", recording)
    argv = ["sweep", "--p", "1", "--q", "2", "--a", "1.5+0.5i",
            "--b", "2,1.25+1i", "--quantity", "gram-offdiag", "--grid-param",
            "b1", "--grid-values", "1,3.5", "--n-list", "17,3,40,3,0"]
    assert cli.main(argv) == 0
    assert calls == [(2, 40)]  # one engine call covers both cells
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
    assert cli._sweep_convergence(params, ns) == want


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
        cli._sweep_convergence(HypParams(a=(1.0,), b=(2.0,)), [3])
    assert str(exc.value) == "series did not converge within 2 terms at z = (1+0j)"


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
