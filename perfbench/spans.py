"""In-memory span tracer that wraps nhtrack's public functions from outside.

Each wrapped function is rebound at the name its caller looks up (for
example `shooting.fd_jacobian`, which `newton_solve` resolves as a module
global, or `cli.solve_tracking`, which `cmd_track` imported by name). A
call records one span: name, start, end, parent span and operation id.
Spans stay in memory; `per_layer` turns them into per-layer metrics when the
run ends, and `restore` puts every original function back.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict
from functools import cached_property


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op


class Tracer:
    def __init__(self):
        self.spans = []
        self.errors = defaultdict(int)  # (span name, exception class) -> count
        self.counts = defaultdict(float)  # counters recorded at span boundaries
        self.samples = defaultdict(list)  # per-call samples recorded at span boundaries
        self.op = -1
        self.active = False  # spans are recorded only while an operation runs
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, on_result=None):
        """Return fn wrapped in a span; on_result(span, args, kwargs, result) may add counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span.end = time.perf_counter()
                self.errors[name, type(err).__name__] += 1
                raise
            else:
                span.end = time.perf_counter()
                if on_result is not None:
                    on_result(span, args, kwargs, result)
                return result
            finally:
                self._stack.pop()

        return traced

    def patch(self, owner, attr, name, on_result=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, on_result))
        self._restore.append((owner, attr, original))

    def patch_cached_property(self, cls, attr, name):
        original = cls.__dict__[attr]
        prop = cached_property(self.wrap(name, original.func))
        prop.__set_name__(cls, attr)
        setattr(cls, attr, prop)
        self._restore.append((cls, attr, original))

    def patch_list(self, seq, name_of, on_result=None):
        """Wrap every function held in a mutable list (callers iterate the list)."""
        original = list(seq)
        seq[:] = [self.wrap(name_of(fn), fn, on_result) for fn in original]
        self._restore.append((seq, None, original))

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            if attr is None:
                owner[:] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def ancestors(self, span):
        names = set()
        parent = span.parent
        while parent is not None:
            names.add(parent.name)
            parent = parent.parent
        return names

    def totals(self):
        """Per span name: calls, busy seconds, self seconds (busy minus children)."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        child = defaultdict(float)
        for span in self.spans:
            dur = span.end - span.start
            calls[span.name] += 1
            busy[span.name] += dur
            if span.parent is not None:
                child[id(span.parent)] += dur
        self_s = defaultdict(float)
        for span in self.spans:
            self_s[span.name] += (span.end - span.start) - child[id(span)]
        return calls, busy, self_s


def install(tracer, nh):
    """Wrap the layer boundaries of nhtrack (nh holds its modules by name)."""
    cli, checks, kernels = nh.cli, nh.checks, nh.kernels
    shooting, tracking = nh.shooting, nh.tracking
    counts = tracer.counts

    def rollout_work(name):
        def record(span, args, kwargs, states):
            steps = args[2]
            counts[name + ".steps"] += steps
            tracer.samples[name + ".us_per_step"].append(1e6 * (span.end - span.start) / steps)
            if name == "kernels.rollout_coupled":
                # computed, not measured: states written plus reference table read
                counts[name + ".computed_bytes"] += states.nbytes + args[3].nbytes
        return record

    for label in ("reduced", "unreduced", "coupled"):
        name = "kernels.rollout_" + label
        tracer.patch(kernels, "rollout_" + label, name, rollout_work(name))

    tracer.patch(shooting, "fd_jacobian", "shooting.fd_jacobian")
    tracer.patch(checks, "fd_jacobian", "shooting.fd_jacobian")

    def newton_report(span, args, kwargs, report):
        counts["shooting.newton_iterations"] += report.iterations

    tracer.patch(shooting, "newton_solve", "shooting.newton_solve", newton_report)
    tracer.patch(shooting, "total_cost", "tracking.total_cost")
    for owner in (cli, checks):
        tracer.patch(owner, "solve_tracking", "shooting.solve_tracking")
    tracer.patch(cli, "uncontrolled_cost", "tracking.uncontrolled_cost")
    tracer.patch_cached_property(tracking.TrackingProblem, "_ref_table", "tracking.ref_table")
    for owner in (cli, checks, tracking):
        tracer.patch(owner, "analytic_flow", "particle.analytic_flow")
    for owner in (checks, tracking):
        tracer.patch(owner, "integrate", "integrators.integrate")

    def csv_bytes(span, args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[3]
        counts["cli.write_csv.bytes"] += os.path.getsize(path)

    tracer.patch(cli, "write_csv", "cli.write_csv", csv_bytes)
    tracer.patch(cli, "sample_reference", "cli.sample_reference")

    def check_name(span, args, kwargs, result):
        span.name = "checks." + result.name

    tracer.patch_list(checks.ALL_CHECKS, lambda fn: "checks." + fn.__name__, check_name)


def line_search(tracer):
    """Line-search trials: coupled rollouts inside newton_solve that are not
    Jacobian probes, minus the one initial residual of each solve."""
    inside = 0
    for span in tracer.spans:
        if span.name == "kernels.rollout_coupled":
            up = tracer.ancestors(span)
            if "shooting.newton_solve" in up and "shooting.fd_jacobian" not in up:
                inside += 1
    solves = sum(1 for span in tracer.spans if span.name == "shooting.newton_solve")
    return inside - solves


def per_layer(tracer, ops, check_names):
    """Per-layer metrics: counts and seconds per operation of the traced run."""
    calls, busy, self_s = tracer.totals()
    counts = tracer.counts
    trials = line_search(tracer)
    iterations = counts["shooting.newton_iterations"]
    coupled_busy = busy["kernels.rollout_coupled"]
    coupled_steps = counts["kernels.rollout_coupled.steps"]
    domain_errors = sum(
        n for (name, exc), n in tracer.errors.items()
        if name.startswith("kernels.") and exc == "DomainError"
    )
    m = {
        "kernels.rollout_coupled.calls": (calls["kernels.rollout_coupled"] / ops, "count"),
        "kernels.rollout_coupled.busy_s": (coupled_busy / ops, "s"),
        "kernels.rollout_coupled.steps": (coupled_steps / ops, "count"),
        "kernels.rollout_coupled.steps_per_s": (
            coupled_steps / coupled_busy if coupled_busy else 0.0, "1/s"),
        "kernels.rollout_coupled.computed_rhs_evals": (4 * coupled_steps / ops, "count"),
        "kernels.rollout_coupled.computed_bytes": (
            counts["kernels.rollout_coupled.computed_bytes"] / ops, "B"),
        "kernels.rollout_reduced.busy_s": (busy["kernels.rollout_reduced"] / ops, "s"),
        "kernels.rollout_unreduced.busy_s": (busy["kernels.rollout_unreduced"] / ops, "s"),
        "kernels.domain_errors": (domain_errors / ops, "count"),
        "shooting.solve_tracking.busy_s": (busy["shooting.solve_tracking"] / ops, "s"),
        "shooting.solve_tracking.self_s": (self_s["shooting.solve_tracking"] / ops, "s"),
        "shooting.newton_iterations": (iterations / ops, "count"),
        "shooting.fd_jacobian.calls": (calls["shooting.fd_jacobian"] / ops, "count"),
        "shooting.fd_jacobian.busy_s": (busy["shooting.fd_jacobian"] / ops, "s"),
        "shooting.line_search.trials": (trials / ops, "count"),
        "shooting.line_search.rejected": ((trials - iterations) / ops, "count"),
        "shooting.line_search.accept_ratio": (iterations / trials if trials else 0.0, "ratio"),
        "tracking.ref_table.busy_s": (busy["tracking.ref_table"] / ops, "s"),
        "tracking.total_cost.busy_s": (busy["tracking.total_cost"] / ops, "s"),
        "tracking.uncontrolled_cost.busy_s": (busy["tracking.uncontrolled_cost"] / ops, "s"),
        "particle.analytic_flow.calls": (calls["particle.analytic_flow"] / ops, "count"),
        "particle.analytic_flow.busy_s": (busy["particle.analytic_flow"] / ops, "s"),
        "integrators.integrate.calls": (calls["integrators.integrate"] / ops, "count"),
        "integrators.integrate.busy_s": (busy["integrators.integrate"] / ops, "s"),
        "cli.write_csv.busy_s": (busy["cli.write_csv"] / ops, "s"),
        "cli.write_csv.bytes": (counts["cli.write_csv.bytes"] / ops, "B"),
        "cli.sample_reference.busy_s": (busy["cli.sample_reference"] / ops, "s"),
    }
    for check in check_names:
        m[f"checks.{check}.busy_s"] = (busy["checks." + check] / ops, "s")
    for label in ("coupled", "reduced", "unreduced"):
        # per-call time per RK4 step, as quartiles over every call of the run
        key = f"kernels.rollout_{label}.us_per_step"
        for q, value in zip(("p25", "p50", "p75"), quartiles(tracer.samples[key])):
            m[f"{key}.{q}"] = (value, "us")
    m["trace.spans"] = (len(tracer.spans) / ops, "count")
    return m


def quartiles(samples):
    """(q1, median, q3) as statistics.quantiles gives them; zeros when there are none."""
    if len(samples) < 2:
        return (samples[0],) * 3 if samples else (0.0, 0.0, 0.0)
    return tuple(statistics.quantiles(samples, n=4))
