"""hypersum benchmark: closed-loop workloads, one client, one process.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

--trace 0 measures the end-to-end metrics with the untraced program;
--trace 1 alternates untraced and traced passes, and reports the per-layer
metrics from the spans plus the tracing overhead. Every output is
checked (checkers.py). The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is a JSON
report with the environment, the tail percentile and the failures.
--workload all runs each workload in its own process and prints a table.

The window is made of whole passes over the seeded operation list, as many
as best fit --seconds but at least two, so every operation is compared with
its first pass byte-for-byte.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# The benchmark measures the sources of its own checkout. Without them the
# imports below fail and the run exits nonzero before printing a result.
sys.path.insert(0, str(SRC))
import numpy  # noqa: E402

import checkers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# setup_s is the median of this many interpreter starts before the window
# and as many after it, so a burst of machine noise moves few of them.
SETUP_REPEATS = 5
# The speed of a shared machine drifts by +-20% within minutes, and a whole
# run can fall into a slow phase. A short fixed loop runs before every
# operation and every interpreter start; its mean time over the run measures
# the machine's speed during that run, and end-to-end times are rescaled to
# the reference loop time below (its median on the 2.1 GHz Xeon vCPUs the
# baseline was taken on). The raw times are in the report line.
CALIBRATION_STEPS = 20_000
CALIBRATION_REFERENCE_S = 0.002
TAIL_BEYOND = 10
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_latency_p50_ms": "ms",
    "op_latency_tail_ms": "ms",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile that has at
    least `beyond` samples ranked above it."""
    xs = sorted(samples)
    rank = len(xs) - beyond  # 1-based rank of the reported sample
    if rank < 1:
        raise ValueError(f"{len(xs)} samples leave none with {beyond} beyond it")
    return 100.0 * rank / len(xs), xs[rank - 1]


def calibration_loop() -> float:
    """Seconds one fixed run of complex arithmetic takes right now."""
    t0 = time.perf_counter()
    z, acc = 0.5 + 0.5j, 0j
    for k in range(CALIBRATION_STEPS):
        acc = acc * z + k
    return time.perf_counter() - t0


def measure_setup(calibration: list[float],
                  repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of fresh interpreters that import hypersum.cli and exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("HYPERSUM_THREADS", None)
    times = []
    for _ in range(repeats):
        calibration.append(calibration_loop())
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls and rounds times up to 50 ms.
        subprocess.run([sys.executable, "-c", "import hypersum.cli"], env=env,
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def settle() -> None:
    """Take what is alive before a window (imports, the operation list) out
    of the collector's reach, so a collection during an operation costs the
    same whatever the benchmark itself holds."""
    gc.collect()
    gc.freeze()


class Window:
    """Closed-loop passes over an operation list. Keeps every latency and
    each operation's first outcome (or a given reference), and notes the
    operations whose later passes differ from it. `wall` leaves out the
    calibration loops run between operations."""

    def __init__(self, ops, recorder=None, reference=None):
        self.ops = ops
        self.recorder = recorder
        self.first = {} if reference is None else reference
        self.latencies: list[float] = []
        self.calibration: list[float] = []
        self.mismatched: set[int] = set()
        self.passes = 0
        self.wall = 0.0

    def run_pass(self) -> None:
        t_pass = time.perf_counter()
        calibrating = 0.0
        for i, op in enumerate(self.ops):
            self.calibration.append(calibration_loop())
            calibrating += self.calibration[-1]
            scope = (self.recorder.operation(i) if self.recorder is not None
                     else contextlib.nullcontext())
            t0 = time.perf_counter()
            with scope:
                outcome = workloads.execute(op)
            self.latencies.append(time.perf_counter() - t0)
            if self.first.setdefault(i, outcome) != outcome:
                self.mismatched.add(i)
        self.wall += time.perf_counter() - t_pass - calibrating
        self.passes += 1

    def run_for(self, seconds: float) -> None:
        """As many whole passes as fit `seconds` best, judged by the first,
        and at least two."""
        self.run_pass()
        for _ in range(max(2, round(seconds / self.wall)) - 1):
            self.run_pass()


def judge(ops, first, mismatched) -> tuple[list[str], set[int]]:
    """Problems found in the outputs, and the ids of the operations that
    failed: a nonzero exit, a document the checks reject, or a pass that
    differs from the first. Every pass of an operation shares its fate."""
    problems, failed = [], set(mismatched)
    problems += [f"op {i} differs from its first pass: {' '.join(ops[i].argv)}"
                 for i in sorted(mismatched)]
    for i, op in enumerate(ops):
        outcome = first[i]
        if outcome.code != 0:
            failed.add(i)
        if outcome.code not in (0, 4):
            continue
        found = checkers.check(op, outcome)
        if found:
            failed.add(i)
        problems += [f"op {i} {' '.join(op.argv)}: {p}" for p in found]
    return problems, failed


def environment(workload: str, seed: int, ops) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "operations": len(ops),
        "operations_sha256": workloads.digest(ops),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "HYPERSUM_THREADS": os.environ.get("HYPERSUM_THREADS"),
    }


def _result(problems, attempted, failed, values, units) -> dict:
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    ops = workloads.operations(workload, seed)
    win = Window(ops)
    setup = measure_setup(win.calibration)
    settle()
    win.run_for(seconds)
    setup += measure_setup(win.calibration)
    problems, failed_ids = judge(ops, win.first, win.mismatched)
    attempted = len(win.latencies)
    failed = win.passes * len(failed_ids)
    pct, tail = tail_percentile(win.latencies)
    raw = {
        "ops_per_s": (attempted - failed) / win.wall,
        "op_latency_p50_ms": 1e3 * statistics.median(win.latencies),
        "op_latency_tail_ms": 1e3 * tail,
        "setup_s": statistics.median(setup),
    }
    # > 1 when the machine ran slower than the reference during this run.
    slowness = statistics.mean(win.calibration) / CALIBRATION_REFERENCE_S
    values = {
        "ops_per_s": raw["ops_per_s"] * slowness,
        "op_latency_p50_ms": raw["op_latency_p50_ms"] / slowness,
        "op_latency_tail_ms": raw["op_latency_tail_ms"] / slowness,
        "ok_share": (attempted - failed) / attempted,
        "setup_s": raw["setup_s"] / slowness,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "env": environment(workload, seed, ops),
        "passes": win.passes,
        "wall_s": win.wall,
        "slowness": slowness,
        "raw": raw,
        "failed_share": failed / attempted,
        "failed_operations": [" ".join(ops[i].argv) for i in sorted(failed_ids)],
        "tail": {"percentile": pct, "samples": attempted, "beyond": TAIL_BEYOND},
        "setup_samples_s": setup,
        "problems": problems,
    }
    return report, _result(problems, attempted, failed, values, END_TO_END_UNITS)


def run_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    ops = workloads.operations(workload, seed)
    plain = Window(ops)
    recorder = spans.SpanRecorder()
    traced = Window(ops, recorder, reference=plain.first)
    settle()
    # Untraced and traced passes alternate, so machine drift falls on both.
    plain.run_pass()
    for k in range(max(1, round(seconds / 2 / plain.wall))):
        if k:
            plain.run_pass()
        with recorder.installed():
            traced.run_pass()
    problems, failed_ids = judge(ops, plain.first,
                                 plain.mismatched | traced.mismatched)
    attempted = len(traced.latencies)
    failed = traced.passes * len(failed_ids)
    env = environment(workload, seed, ops)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.npz"
    recorder.save(trace_file, env)
    report = {
        "env": env,
        "passes": traced.passes,
        "untraced_wall_s": plain.wall,
        "traced_wall_s": traced.wall,
        "spans": len(recorder),
        "trace_file": str(trace_file.relative_to(ROOT)),
        "failed_share": failed / attempted,
        "problems": problems,
    }
    # Each side's wall time at the reference speed, as in run_untraced.
    plain_s = plain.wall / statistics.mean(plain.calibration)
    traced_s = traced.wall / statistics.mean(traced.calibration)
    values = spans.per_layer_values(recorder, (traced_s - plain_s) / plain_s)
    units = {name: unit for name, unit, _ in spans.per_layer_specs()}
    return report, _result(problems, attempted, failed, values, units)


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    combined = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        combined[workload] = result
        print(f"== {workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"failed_share={report['failed_share']:.4g}")
        for name, m in result["metrics"].items():
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = Path(workloads.hypersum.__file__).resolve().parent
    if source != SRC / "hypersum":
        print(f"imported hypersum from {source}, not {SRC}", file=sys.stderr)
        return 2
    # The sweep pool must run at its default of one thread.
    os.environ.pop("HYPERSUM_THREADS", None)
    if args.workload == "all":
        return run_all(args)
    run = run_traced if args.trace else run_untraced
    report, result = run(args.workload, args.seed, args.seconds)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
