"""Workloads: how each builds its inputs from a seed, runs one operation
through nhtrack's public entry points, and checks that operation's outputs.

An operation writes into a fresh directory. `prepare` returns it as a
callable, which run.py times; `check` runs after the clock stops and
returns None when the outputs are right, or a one-line reason when not.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import re
from pathlib import Path

import numpy as np

PAPER_START = (0.5, 0.2, 0.7, 0.5, 0.4)
JITTER = 0.05

# The paper's problem (T=4, epsilon=7, omega=1, derived adjoint) on a
# 400-step grid, h = 0.01 instead of the paper's 0.001, so that a run holds
# several solves. Same 11 Newton iterations and 136 coupled rollouts; alpha*
# agrees with the 4000-step solve to 1e-10 and J (5.271354495193127 there)
# to 2e-5. Both are checked to a relative 1e-8.
TRACK_STEPS = "400"
TRACK_J = 5.271431831871028
TRACK_ALPHA = np.array(
    [-3.3738608687695786, 6.1259424253410195, -2.471449523238801, 7.8655863520497284, -4.077189439249371]
)

JITTER_WHY = ("nhtrack track from a start within +-0.05 of the paper's: Newton iterations and "
              "line-search behaviour vary with the start, and some starts stall (seed 1)")

# check_solver_behavior is left out of the invariants workload: it is a
# 4000-step solve of the paper's point (39 s), the work track-400 measures.
SLOW_CHECK = "check_solver_behavior"

FLOW_T = "40"
FLOW_STEPS = "40000"


def start_for(seed):
    """The paper's start for seed 0; otherwise uniform within +-JITTER of it."""
    # drawn for every seed, so that loading numpy.random (about 6 MB) is in
    # every run's peak memory and seed 0 is not the odd one out
    offset = np.random.default_rng(seed).uniform(-JITTER, JITTER, 5)
    if seed == 0:
        return PAPER_START
    return tuple(float(a + b) for a, b in zip(PAPER_START, offset))


def cli(nh, *argv):
    """One in-process CLI invocation with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nh.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_start(out_dir, start):
    path = Path(out_dir) / "start.cfg"
    path.write_text("initial_state = " + " ".join(repr(v) for v in start) + "\n")
    return str(path)


# -- track ------------------------------------------------------------------


def _report_field(text, label):
    match = re.search(r"^" + re.escape(label) + r":\s*(.*)$", text, re.MULTILINE)
    if match is None:
        raise ValueError(f"report.txt has no '{label}' line")
    return match.group(1)


def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)) / np.maximum(np.abs(b), 1e-300)))


def check_track(nh, out_dir, start, code, console, paper):
    """Gate for one `nhtrack track` operation; exit 2 (non-convergence) is a failure."""
    if code != 0:
        return f"exit {code}: {console.strip().splitlines()[-1:]}"
    out_dir = Path(out_dir)
    report = (out_dir / "report.txt").read_text()
    if _report_field(report, "converged") != "True":
        return "report says not converged"
    cost = float(_report_field(report, "cost J"))
    alpha = np.array([float(v) for v in _report_field(report, "alpha*").split()])
    if paper:
        if abs(cost - TRACK_J) > 1e-8 * TRACK_J:
            return f"J = {cost!r}, expected {TRACK_J!r}"
        if _rel(alpha, TRACK_ALPHA) > 1e-8:
            return f"alpha* = {alpha.tolist()}, expected {TRACK_ALPHA.tolist()}"
    else:
        baseline = float(_report_field(report, "cost of u=0 rollout"))
        if not cost < baseline:
            return f"J = {cost!r} is not below the uncontrolled cost {baseline!r}"

    tracking = nh.tracking
    prob = dataclasses.replace(
        tracking.benchmark_problem(N=int(TRACK_STEPS)),
        s0=nh.geometry.AdaptedState(q=np.array(start[:3]), v=np.array(start[3:])),
    )
    traj = tracking.integrate_coupled(prob, alpha)
    residual = float(np.max(np.abs(tracking.residual_from_trajectory(traj, prob))))
    if residual > 1e-10:
        return f"shooting residual at alpha* is {residual:.3e}"

    table = nh.cli.read_csv(out_dir / "track.csv")
    names = ("x", "y", "z", "v1", "v2", "l1", "l2", "l3", "m1", "m2")
    written = np.column_stack([table[n] for n in names])
    controls = np.column_stack([table["u1"], table["u2"]])
    if not (np.array_equal(table["t"], traj.times) and np.array_equal(written, traj.states)
            and np.array_equal(controls, tracking.controls_along(traj, prob))):
        return "track.csv does not re-read bit-exactly as the trajectory at alpha*"
    return None


def run_track(nh, out_dir, start, paper):
    argv = ["track", "--out", str(out_dir), "--steps", TRACK_STEPS]
    if not paper:
        argv += ["--config", write_start(out_dir, start)]
    return lambda: cli(nh, *argv)


# -- flow-long --------------------------------------------------------------


def run_flow(nh, out_dir, start):
    cfg = write_start(out_dir, start)
    common = ["--config", cfg, "--out", str(out_dir), "--T", FLOW_T, "--steps", FLOW_STEPS]

    def op():
        code, out, err = cli(nh, "simulate", *common)
        if code != 0:
            return code, out, err
        return cli(nh, "analytic", *common)

    return op


def check_flow(nh, out_dir, start, code, console):
    """simulate.csv and analytic.csv: same grid and reference, states within 1e-9."""
    if code != 0:
        return f"exit {code}: {console.strip().splitlines()[-1:]}"
    # streamed row by row so the check adds nothing to the run's peak memory
    rows, gap = 0, 0.0
    with open(Path(out_dir) / "simulate.csv") as sim, open(Path(out_dir) / "analytic.csv") as ana:
        if next(sim) != next(ana):
            return "the two files have different headers"
        for s_line, a_line in itertools.zip_longest(sim, ana):
            if s_line is None or a_line is None:
                return "the two files have different row counts"
            s = [float(v) for v in s_line.split(",")]
            a = [float(v) for v in a_line.split(",")]
            if rows == 0 and tuple(s[1:6]) != tuple(start):
                return "simulate.csv does not start at the configured initial state"
            if s[0] != a[0] or s[13:] != a[13:]:
                return f"time or reference columns differ in row {rows}"
            gap = max(gap, max(abs(x - y) for x, y in zip(s[1:6], a[1:6])))
            rows += 1
    if rows != int(FLOW_STEPS) + 1:
        return f"{rows} rows, expected {int(FLOW_STEPS) + 1}"
    if not gap <= 1e-9:
        return f"simulate and analytic differ by {gap:.3e}"
    return None


# -- invariants -------------------------------------------------------------


def run_invariants(nh, out_dir):
    """Every entry of checks.ALL_CHECKS but SLOW_CHECK, called as run_checks calls
    them; the console text has one `name  PASS|FAIL  detail` line per check."""

    def op():
        results = [fn() for fn in nh.checks.ALL_CHECKS if fn.__name__ != SLOW_CHECK]
        return 0, "\n".join(f"{r.name}  {'PASS' if r.passed else 'FAIL'}  {r.detail}" for r in results), ""

    return op


def check_invariants(nh, out_dir, start, code, console):
    lines = console.strip().splitlines()
    if code != 0:
        return f"raised: {lines[-1:]}"
    total = len(nh.checks.ALL_CHECKS) - 1
    failing = [ln.split()[0] for ln in lines if "  PASS  " not in ln]
    if len(lines) != total or failing:
        return f"{len(lines) - len(failing)}/{total} checks passed, failing: {failing}"
    return None


# -- registry ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    # python run in a fresh interpreter after `import nhtrack.cli`: the
    # workload's problem construction and warm-up, timed as setup_s
    setup: str
    prepare: object  # (nh, out_dir, seed) -> (start, op)
    check: object  # (nh, out_dir, start, code, console) -> None | reason


WARM_KERNELS = """
import numpy as np
from nhtrack import kernels, tracking
x0 = np.array([0.5, 0.2, 0.7, 0.5, 0.4])
kernels.rollout_reduced(x0, 1e-3, 10)
kernels.rollout_unreduced(np.array([0.5, 0.2, 0.7, -0.08, 0.5, 0.4]), 1e-3, 10)
small = tracking.benchmark_problem(N=10)
kernels.rollout_coupled(np.concatenate([x0, np.zeros(5)]), small.h, 10, small._ref_table, 7.0, False)
"""


def _track(paper):
    def prepare(nh, out_dir, seed):
        start = PAPER_START if paper else start_for(seed)
        return start, run_track(nh, out_dir, start, paper)

    def check(nh, out_dir, start, code, console):
        return check_track(nh, out_dir, start, code, console, paper)

    return prepare, check


WORKLOADS = {
    "track-400": Workload(
        WARM_KERNELS + f"tracking.benchmark_problem(N={TRACK_STEPS})._ref_table\n",
        *_track(paper=True),
    ),
    "track-jitter": Workload(
        WARM_KERNELS + f"tracking.benchmark_problem(N={TRACK_STEPS})._ref_table\n",
        *_track(paper=False),
    ),
    "flow-long": Workload(
        WARM_KERNELS,
        lambda nh, out_dir, seed: (start_for(seed), run_flow(nh, out_dir, start_for(seed))),
        check_flow,
    ),
    "invariants": Workload(
        WARM_KERNELS,
        lambda nh, out_dir, seed: (PAPER_START, run_invariants(nh, out_dir)),
        check_invariants,
    ),
}
