"""Per-layer tracing from outside the program.

Wrappers are installed around public gradtrack functions at the place the
caller looks them up (a module global or a class attribute) and are removed
again on exit, so an untraced pass runs the program's own functions.

Every wrapped call adds to its name's aggregate (calls, total and self time;
self time excludes wrapped calls made inside it).  Cell-level calls also
record a span with a parent id.  Counters are derived from arguments and
return values at the same boundaries.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_s: float
    end_s: float


@dataclass
class _Frame:
    span_id: int | None
    child_s: float = 0.0


@dataclass
class Tracer:
    """Aggregates, spans and counters of one traced pass, kept in memory."""

    aggregates: dict[str, Aggregate] = field(default_factory=lambda: defaultdict(Aggregate))
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    spans: list[Span] = field(default_factory=list)
    _stack: list[_Frame] = field(default_factory=list)
    _last_span_id: int = 0
    _t0: float = field(default_factory=time.perf_counter)

    def _parent_span(self) -> int | None:
        for frame in reversed(self._stack):
            if frame.span_id is not None:
                return frame.span_id
        return None

    def wrap(self, name: str, fn, span: bool = False, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._parent_span()
            span_id = None
            if span:
                self._last_span_id += 1
                span_id = self._last_span_id
            frame = _Frame(span_id)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dt = end - start
                if self._stack:
                    self._stack[-1].child_s += dt
                agg = self.aggregates[name]
                agg.calls += 1
                agg.total_s += dt
                agg.self_s += dt - frame.child_s
                if span:
                    self.spans.append(Span(span_id, parent, name,
                                           start - self._t0, end - self._t0))
            if on_return is not None:
                on_return(self.counters, args, result)
            return result
        return wrapper


# ------------------------------------------------------------------ counters

def _count_grad_stack(counters, args, result):
    counters["problems.grad_evals"] += result.shape[0]


def _count_grad_stack_batch(counters, args, result):
    n, _, c = result.shape
    counters["problems.grad_evals"] += n * c
    counters["problems.grad_stack_batch.columns"] += c


def _count_run(counters, args, trace):
    suite, cfg = args[0], args[1]
    k = int(trace.k[-1])
    w1 = cfg.strategy.matrices[0]
    two_edges = np.count_nonzero(w1) - np.count_nonzero(np.diag(w1))
    counters["tracking.outer_iters"] += k
    counters["topology.comm_floats"] += (k * trace.n_c * trace.vectors_per_round
                                         * two_edges * suite.d)


def _count_run_experiment(counters, args, outdir):
    counters["harness.emit_bytes"] += sum(p.stat().st_size for p in Path(outdir).iterdir())


def _count_theory_report(counters, args, path):
    counters["harness.emit_bytes"] += Path(path).stat().st_size


def patch_points(gt):
    """(owner, attribute, metric name, span?, counter hook) for every wrapper.

    harness imported run, strategy_for and metropolis_weights into its own
    namespace, and tracking.run looks its steps up as tracking globals, so
    those are patched there; suite gradients are patched on their classes.
    tracking.run itself is also patched for the benchmark's own solve calls.
    Metric names follow the layer doing the work, so harness.build_suite is
    reported as problems.build_suite.
    """
    harness, tracking, problems, theory = gt.harness, gt.tracking, gt.problems, gt.theory
    points = [
        (harness, "execute_grid", "harness.execute_grid", True, None),
        (harness, "build_suite", "problems.build_suite", False, None),
        (problems, "compute_reference_optimum", "problems.compute_reference_optimum", False, None),
        (harness, "metropolis_weights", "topology.metropolis_weights", False, None),
        (harness, "strategy_for", "topology.strategy_for", False, None),
        (harness, "build_strategy", "harness.build_strategy", True, None),
        (harness, "tune_step_size", "harness.tune_step_size", True, None),
        (harness, "run", "tracking.run", True, _count_run),
        (tracking, "run", "tracking.run", True, _count_run),
        (tracking, "inner_step", "tracking.inner_step", False, None),
        (tracking, "outer_step", "tracking.outer_step", False, None),
        (tracking, "error_vector", "tracking.error_vector", False, None),
        (harness, "measured_contraction", "harness.measured_contraction", False, None),
        (harness, "run_experiment", "harness.run_experiment", True, _count_run_experiment),
        (harness, "theory_report", "harness.theory_report", True, _count_theory_report),
        (theory, "spectral_radius", "theory.spectral_radius", False, None),
        (theory, "params_from_strategy", "theory.params_from_strategy", False, None),
    ]
    for cls in (problems.QuadraticSuite, problems.LogisticSuite):
        points.append((cls, "grad_stack", "problems.grad_stack", False, _count_grad_stack))
        points.append((cls, "grad_stack_batch", "problems.grad_stack_batch", False,
                       _count_grad_stack_batch))
    return points


class traced:
    """Context manager: install the wrappers of `tracer`, restore on exit."""

    def __init__(self, gt, tracer: Tracer):
        self._gt = gt
        self._tracer = tracer
        self._saved = []

    def __enter__(self) -> Tracer:
        for owner, attr, name, span, hook in patch_points(self._gt):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._tracer.wrap(name, original, span, hook))
        return self._tracer

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def layer_values(tracer: Tracer, metrics) -> dict[str, float]:
    """The value of each named per-layer metric that this tracer holds:
    `<stem>.calls` and `<stem>.self_s` from the aggregates, any other name
    from the counters.  trace_overhead_frac is left to the caller."""
    out = {}
    for metric in metrics:
        stem, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = float(tracer.aggregates[stem].calls)
        elif kind == "self_s":
            out[metric] = tracer.aggregates[stem].self_s
        elif metric != "trace_overhead_frac":
            out[metric] = float(tracer.counters[metric])
    return out
