"""Tests of the benchmark's own arithmetic, generators and output checks.

Run with: PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checkers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import run  # noqa: E402
from workloads import Operation, Outcome, execute  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds a [1, 4] (which holds a2 [2, 3]) and b [5, 9].
    rec = spans.SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    outer, a, a2, b = (rec._intern(n) for n in ("outer", "a", "a2", "b"))
    rec.op = 0
    s_outer = rec.open(outer)
    s_a = rec.open(a)
    s_a2 = rec.open(a2)
    rec.close(s_a2, False)
    rec.close(s_a, False)
    s_b = rec.open(b)
    rec.close(s_b, True)
    rec.close(s_outer, False)
    assert list(rec.parent) == [-1, s_outer, s_a, s_outer]
    assert spans.self_times(rec).tolist() == [3.0, 2.0, 1.0, 4.0]
    totals = spans.span_totals(rec)
    assert totals["outer"]["total_ms"] == 10e3
    assert totals["outer"]["self_ms"] == 3e3
    assert totals["b"]["failed"] == 1


def test_total_time_counts_only_outermost_call_of_a_name():
    rec = spans.SpanRecorder(clock=FakeClock([0, 2, 3, 5]))
    f = rec._intern("f")
    rec.op = 0
    outer = rec.open(f)
    inner = rec.open(f)
    rec.close(inner, False)
    rec.close(outer, False)
    t = spans.span_totals(rec)["f"]
    assert t["calls"] == 2
    assert t["total_ms"] == 5e3
    assert t["self_ms"] == 5e3


def test_recorder_wraps_and_restores_every_namespace():
    import hypersum
    from hypersum import checks, partial_sums, polycore, roots

    originals = (hypersum.gn_direct, partial_sums.gn_direct, roots.gn_direct,
                 checks.check_pencil, polycore.Poly.__call__)
    rec = spans.SpanRecorder()
    params = hypersum.HypParams(a=(1.0,), b=(2.0,))
    with rec.installed():
        assert roots.gn_direct is not originals[2]
        assert roots.gn_direct is partial_sums.gn_direct is hypersum.gn_direct
        hypersum.gn_direct(params, 3)  # outside an operation: not recorded
        with rec.operation(7):
            hypersum.location_report(params, 3)
    assert (hypersum.gn_direct, partial_sums.gn_direct, roots.gn_direct,
            checks.check_pencil, polycore.Poly.__call__) == originals
    names = [rec.names[i] for i in rec.name_id]
    assert names[:2] == ["roots.location_report", "partial_sums.gn_direct"]
    assert set(rec.op_id) == {7}
    values = spans.per_layer_values(rec, 0.0)
    assert values["roots.find_roots.calls"] == 1
    assert values["roots.find_roots.ok_ratio"] == 1.0
    assert values["polycore.Poly.init.calls"] > 0
    assert set(values) == {name for name, _, _ in spans.per_layer_specs()}


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    pct, value = run.tail_percentile(samples)
    assert (pct, value) == (90.0, 90)
    assert sum(1 for x in samples if x > value) == 10
    assert run.tail_percentile(range(11)) == (100 / 11, 0)
    with pytest.raises(ValueError):
        run.tail_percentile(range(10))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations(workload):
    first = workloads.operations(workload, 3)
    assert first == workloads.operations(workload, 3)
    assert workloads.digest(first) == workloads.digest(workloads.operations(workload, 3))
    assert workloads.digest(first) != workloads.digest(workloads.operations(workload, 4))


def test_cli_literals_round_trip():
    from hypersum.cli import parse_complex

    for x in (complex(1.2345), complex(0.5, -0.25), complex(3.0, 1e-05)):
        assert parse_complex(workloads._literal(x)) == x


def _flip_first_status(doc: str) -> str:
    data = json.loads(doc)
    data["results"]["recurrence"]["status"] = "FAIL"
    return json.dumps(data)


def test_verify_checker_rejects_flipped_status_and_missing_check():
    op = workloads.verify_suite(0)[0]
    op = Operation(op.command, op.argv[:-4] + ("--n-max", "4") + op.argv[-2:],
                   op.a, op.b, n=4)
    good = execute(op)
    assert good.code == 0 and checkers.check(op, good) == []
    flipped = Outcome(0, _flip_first_status(good.output))
    assert checkers.check(op, flipped)
    data = json.loads(good.output)
    del data["results"]["pencil"]
    assert checkers.check(op, Outcome(0, json.dumps(data)))


def test_sweep_checker_rejects_missing_row_nan_and_small_modulus():
    op = workloads._sweep_op((1 + 0j,), (2 + 0j,), (2.0, 3.0), "root-modulus", (4, 6))
    good = execute(op)
    assert good.code == 0 and checkers.check(op, good) == []
    lines = good.output.splitlines(keepends=True)
    assert checkers.check(op, Outcome(0, "".join(lines[:-1])))
    head, last = "".join(lines[:-1]), lines[-1].rsplit(",", 1)[0]
    assert checkers.check(op, Outcome(0, head + last + ",nan\n"))
    assert checkers.check(op, Outcome(0, head + last + ",0.5\n"))


def test_roots_checkers_reject_perturbed_or_missing_root():
    argv = ("roots", "--p", "1", "--q", "1", "--a", "1.0", "--b", "2.0", "--n", "8")
    op = Operation("roots", argv, (1 + 0j,), (2 + 0j,), n=8)
    good = execute(op)
    assert good.code == 0 and checkers.check(op, good) == []
    data = json.loads(good.output)
    re, im = data["results"]["roots"][0]
    data["results"]["roots"][0] = [re * (1 + 1e-6), im]
    assert checkers.check(op, Outcome(0, json.dumps(data)))
    data["results"]["roots"].pop()
    assert checkers.check(op, Outcome(0, json.dumps(data)))

    op = Operation("find_roots", ("find_roots",), (1 + 0j, 1 + 0j), (2 + 0j,), n=12)
    good = execute(op)
    assert good.code == 0 and checkers.check(op, good) == []
    bent = (good.output[0] + 1e-6,) + good.output[1:]
    assert checkers.check(op, Outcome(0, bent))


def test_benchmark_json_names_every_reported_metric():
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    bench = json.loads(path.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        spans.per_layer_specs()
