"""Span recorder for the traced run, and the per-layer metrics made from it.

The recorder wraps public functions of hypersum's modules in every
`hypersum` module namespace that holds them (the defining module, the
package, and each module that imported the name), and restores the
originals afterwards. A span holds its name, start, end, parent span and
the id of the operation it belongs to; spans stay in flat arrays in memory
until the run ends. Poly construction, multiplication and evaluation run
tens of thousands of times per document, so they get counters, not spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Layers are the modules of src/hypersum; the functions are the ones an
# optimisation of that layer is expected to move.
LAYER_FUNCTIONS = {
    "partial_sums": ("gn_direct", "Gn_monic", "gn_by_recurrence",
                     "Gn_by_recurrence", "delta_k"),
    "operators": ("op_apply", "op_compose", "build_R", "verify_ode",
                  "r_image", "kappa"),
    "sobolev": ("sobolev_gram", "monomial_quadrature_defect",
                "build_sobolev_form"),
    "pfq": ("integral_rep_circle_batch", "integral_rep_negative_axis",
            "integral_rep_negative_axis_numeric", "pfq_eval"),
    "roots": ("find_roots", "location_report"),
    "ri_pencils": ("pencil_polynomials", "pencil_residual",
                   "pencil_row_terms", "ri_generate"),
    "cli": ("main", "render_json", "render_csv", "build_parser"),
}
# Span name -> function of hypersum.checks, one per name in CHECK_ORDER.
CHECK_FUNCTIONS = {
    "recurrence": "check_recurrence",
    "ode": "check_ode",
    "sobolev": "check_sobolev",
    "circle-rep": "check_circle_rep",
    "axis-rep": "check_axis_rep",
    "roots": "check_roots",
    "rifrac": "check_rifrac",
    "pencil": "check_pencil",
}
POLY_COUNTERS = {"init": "__init__", "mul": "__mul__", "eval": "__call__"}


class SpanRecorder:
    """Spans in parallel arrays; span i is (names[name_id[i]], start[i],
    end[i], parent[i], op_id[i]). parent is -1 for a top-level span.

    Recording happens only while `op` is set to an operation id (>= 0), so
    the benchmark's own calls (output checks) stay out of the trace.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        # 1 when the call raised; 1 when a span of the same name encloses it
        # (so total time counts only the outermost call).
        self.raised = array("b")
        self.nested = array("b")
        self.counters: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._open: Counter[int] = Counter()

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.raised.append(0)
        self.nested.append(1 if self._open[nid] else 0)
        self.end.append(0.0)
        self._stack.append(sid)
        self._open[nid] += 1
        self.start.append(self.clock())
        return sid

    def close(self, sid: int, raised: bool) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()
        self._open[self.name_id[sid]] -= 1
        if raised:
            self.raised[sid] = 1

    def span_wrapper(self, name: str, fn):
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            sid = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, True)
                raise
            self.close(sid, False)
            return result

        return traced

    def count_wrapper(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.op >= 0:
                counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        home = {name: importlib.import_module(f"hypersum.{name}")
                for name in (*LAYER_FUNCTIONS, "checks", "polycore")}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "hypersum" or name.startswith("hypersum.")]
        restore = []
        for module_name, functions in LAYER_FUNCTIONS.items():
            for fn_name in functions:
                original = getattr(home[module_name], fn_name)
                wrapper = self.span_wrapper(f"{module_name}.{fn_name}", original)
                restore += _replace_everywhere(modules, original, wrapper)
        for check_name, fn_name in CHECK_FUNCTIONS.items():
            original = getattr(home["checks"], fn_name)
            wrapper = self.span_wrapper(f"checks.{check_name}", original)
            restore += _replace_everywhere(modules, original, wrapper)
        poly = home["polycore"].Poly
        for label, attr in POLY_COUNTERS.items():
            original = poly.__dict__[attr]
            setattr(poly, attr, self.count_wrapper(f"polycore.Poly.{label}", original))
            restore.append((poly, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def operation(self, op_id: int):
        self.op = op_id
        try:
            yield
        finally:
            self.op = -1

    def save(self, path, env: dict) -> None:
        """Write every span and counter (numpy .npz) when the run ends."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent),
            op_id=np.asarray(self.op_id),
            raised=np.asarray(self.raised),
            counters=np.array(json.dumps(dict(self.counters))),
            env=np.array(json.dumps(env)),
        )


def _replace_everywhere(modules, original, wrapper) -> list:
    restore = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                restore.append((module, attr, original))
    return restore


def self_times(rec: SpanRecorder) -> np.ndarray:
    """Per span: its duration minus the part of it that child spans cover.
    Children of a span run one after another inside it (one thread), so
    that part is the sum of their durations."""
    duration = np.asarray(rec.end) - np.asarray(rec.start)
    parent = np.asarray(rec.parent)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=len(duration))
    return duration - covered


def span_totals(rec: SpanRecorder) -> dict[str, dict[str, float]]:
    """calls, failed, total_ms (outermost calls only) and self_ms per name."""
    k = len(rec.names)
    name_id = np.asarray(rec.name_id)
    duration = np.asarray(rec.end) - np.asarray(rec.start)
    outer = np.asarray(rec.nested) == 0
    calls = np.bincount(name_id, minlength=k)
    failed = np.bincount(name_id, weights=np.asarray(rec.raised), minlength=k)
    total = np.bincount(name_id[outer], weights=duration[outer], minlength=k)
    own = np.bincount(name_id, weights=self_times(rec), minlength=k)
    return {name: {"calls": int(calls[i]), "failed": int(failed[i]),
                   "total_ms": 1e3 * float(total[i]), "self_ms": 1e3 * float(own[i])}
            for i, name in enumerate(rec.names)}


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for module_name, functions in LAYER_FUNCTIONS.items():
        for fn_name in functions:
            base = f"{module_name}.{fn_name}"
            specs += [(f"{base}.calls", "count", "lower"),
                      (f"{base}.total_ms", "ms", "lower"),
                      (f"{base}.self_ms", "ms", "lower")]
            if base == "roots.find_roots":
                specs += [(f"{base}.failed", "count", "lower"),
                          (f"{base}.ok_ratio", "ratio", "higher")]
    specs += [(f"checks.{name}.total_ms", "ms", "lower") for name in CHECK_FUNCTIONS]
    specs += [(f"polycore.Poly.{label}.calls", "count", "lower")
              for label in POLY_COUNTERS]
    specs.append(("trace.overhead_share", "ratio", "lower"))
    return specs


def per_layer_values(rec: SpanRecorder, overhead_share: float) -> dict[str, float]:
    """Every per-layer metric of a recorder that was installed."""
    totals = span_totals(rec)
    values: dict[str, float] = {}
    for name, _, _ in per_layer_specs():
        base, field = name.rsplit(".", 1)
        if base.startswith("polycore."):
            values[name] = rec.counters[base]
        elif name == "trace.overhead_share":
            values[name] = overhead_share
        elif field == "ok_ratio":
            t = totals[base]
            # No attempt wasted nothing; report a full ratio.
            values[name] = (t["calls"] - t["failed"]) / t["calls"] if t["calls"] else 1.0
        else:
            values[name] = totals[base][field]
    return values
