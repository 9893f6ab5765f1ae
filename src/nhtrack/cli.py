"""Command-line front end.

Four commands over a line-oriented key = value configuration:

    simulate  uncontrolled reduced flow  -> simulate.csv
    analytic  closed-form flow           -> analytic.csv
    track     solve the tracking problem -> track.csv, report.txt, plot.gp
    check     run the invariant suite    -> pass/fail table on stdout

Each config key has a parser in `_KEYS`; every range and choice rule, for
keys and flags alike, is in `_RULES` and is checked before a command runs.

Exit codes: 0 success, 1 config error (an unknown or malformed key, a
key or flag value that breaks its rule, or a usage error), 2 track
non-convergence (report.txt still written; track.csv and plot.gp only when
the flow at the last iterate is finite), 3 internal/domain error
(including a failed check).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import checks as checks_mod
from . import kernels
from .errors import ConfigError, ContractError, NhtrackError
from .geometry import AdaptedState
from .integrators import Trajectory, time_grid
from .particle import PARTICLE_NAME, analytic_constants, analytic_flow
from .shooting import NewtonConfig, solve_tracking
from .tracking import (
    ADJOINT_MODES,
    BENCHMARK_START,
    Reference,
    TrackingProblem,
    constant_z_line,
    free_flow,
    reference_rows,
    require_finite_rows,
    tabulated,
    uncontrolled_cost,
)

CSV_HEADER = "t,x,y,z,v1,v2,u1,u2,l1,l2,l3,m1,m2,x_r,y_r,z_r,v1_r,v2_r"
# rows write_csv formats per call of the compiled formatter
CSV_CHUNK_ROWS = 256

KIND_LINE = "builtin-constant-z-line"
KIND_FREE_FLOW = "free-flow"
KIND_TABULATED = "tabulated"
REFERENCE_KINDS = (KIND_LINE, KIND_FREE_FLOW, KIND_TABULATED)

# keys that only the track command reads
_TRACK_ONLY_KEYS = (
    "epsilon", "omega", "adjoint_mode", "full_transversality", "newton.tol", "newton.max_iters"
)
# the reference.* keys that each reference kind reads
_REFERENCE_KEYS = {
    KIND_LINE: ("reference.x_r", "reference.z_offset", "reference.speed"),
    KIND_FREE_FLOW: ("reference.initial_state",),
    KIND_TABULATED: ("reference.file",),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with documented defaults.

    Omitted keys fall back to the bundled benchmark experiment: the
    particle started at `tracking.BENCHMARK_START` tracking the reference
    (1, 0, t+1; 0, 1) over T=4 with epsilon=7 and omega=1.
    """

    system: str = PARTICLE_NAME
    initial_state: tuple = BENCHMARK_START
    reference: str = KIND_LINE
    ref_x_r: float = 1.0
    ref_z_offset: float = 1.0
    ref_speed: float = 1.0
    ref_initial_state: Optional[tuple] = None
    ref_file: Optional[str] = None
    T: float = 4.0
    steps: int = 4000
    epsilon: float = 7.0
    omega: float = 1.0
    adjoint_mode: str = "derived"
    full_transversality: bool = True
    newton_tol: float = 1e-10
    newton_max_iters: int = 100
    output_dir: str = "."
    provided: frozenset = field(default_factory=frozenset, compare=False)


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"malformed number '{text}'") from None
    if not math.isfinite(value):
        raise ValueError(f"'{text}' is not a finite number")
    return value


def _parse_state(text: str) -> tuple:
    parts = text.replace(",", " ").split()
    if len(parts) != 5:
        raise ValueError(f"needs 5 numbers, got {len(parts)}")
    return tuple(_parse_float(p) for p in parts)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"malformed integer '{text}'") from None


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expects true/false, got '{text}'")


# config key -> (ExperimentConfig field, parser of the value text)
_KEYS = {
    "system": ("system", str),
    "initial_state": ("initial_state", _parse_state),
    "reference": ("reference", str),
    "reference.x_r": ("ref_x_r", _parse_float),
    "reference.z_offset": ("ref_z_offset", _parse_float),
    "reference.speed": ("ref_speed", _parse_float),
    "reference.initial_state": ("ref_initial_state", _parse_state),
    "reference.file": ("ref_file", str),
    "T": ("T", _parse_float),
    "steps": ("steps", _parse_int),
    "epsilon": ("epsilon", _parse_float),
    "omega": ("omega", _parse_float),
    "adjoint_mode": ("adjoint_mode", str),
    "full_transversality": ("full_transversality", _parse_bool),
    "newton.tol": ("newton_tol", _parse_float),
    "newton.max_iters": ("newton_max_iters", _parse_int),
    "output_dir": ("output_dir", str),
}

# (config key, test of the whole config, what the test requires). Flags set
# T, epsilon and omega without the file parser, so their rules include
# finiteness.
_RULES = (
    ("system", lambda c: c.system == PARTICLE_NAME, f"only {PARTICLE_NAME} is bundled"),
    ("reference", lambda c: c.reference in REFERENCE_KINDS,
     "must be one of " + ", ".join(REFERENCE_KINDS)),
    ("reference", lambda c: c.reference != KIND_TABULATED or c.ref_file is not None,
     "needs reference.file"),
    ("T", lambda c: 0.0 < c.T < math.inf, "must be finite and > 0"),
    ("steps", lambda c: c.steps >= 1, "must be >= 1"),
    ("epsilon", lambda c: 0.0 < c.epsilon < math.inf,
     "must be finite and > 0 (epsilon = 0 makes the tracking problem singular: "
     "the stationary condition u = -mu/epsilon no longer determines the control)"),
    ("omega", lambda c: 0.0 < c.omega < math.inf, "must be finite and > 0"),
    ("adjoint_mode", lambda c: c.adjoint_mode in ADJOINT_MODES,
     "must be one of " + ", ".join(ADJOINT_MODES)),
    ("newton.tol", lambda c: c.newton_tol > 0.0, "must be > 0"),
    ("newton.max_iters", lambda c: c.newton_max_iters >= 1, "must be >= 1"),
)


def parse_config(text: str) -> ExperimentConfig:
    """Parse key = value lines into a validated ExperimentConfig.

    '#' starts a comment; blank lines are skipped; unknown keys, malformed
    values and rule violations are rejected with the offending line number.
    """
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'", line=lineno)
        key, _, value = body.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'", line=lineno)
        if key in lines:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'", line=lineno)
        lines[key] = lineno
        name, parse = _KEYS[key]
        try:
            values[name] = parse(value.strip())
        except ValueError as err:
            raise ConfigError(f"line {lineno}: key '{key}': {err}", line=lineno) from None
    cfg = ExperimentConfig(**values, provided=frozenset(lines))
    _validate(cfg, lines)
    return cfg


def _validate(cfg: ExperimentConfig, lines: dict) -> None:
    """Raise ConfigError for the first rule the config breaks.

    lines maps the keys read from a config file to their line numbers; the
    error carries the line of the key it names.
    """
    for key, holds, requirement in _RULES:
        if not holds(cfg):
            line = lines.get(key)
            where = "" if line is None else f"line {line}: "
            value = getattr(cfg, _KEYS[key][0])
            raise ConfigError(f"{where}{key} = {value!r}: {requirement}", line=line)


def apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """Fold command-line flags over parsed config keys and validate the result."""
    updates = {}
    for flag, key in (("T", "T"), ("epsilon", "epsilon"), ("omega", "omega"),
                      ("steps", "steps"), ("out", "output_dir")):
        value = getattr(args, flag, None)
        if value is not None:
            updates[key] = value
    if not updates:
        return cfg
    cfg = replace(cfg, **updates, provided=cfg.provided.union(updates))
    # the values cfg came with are valid already, so a broken rule names a flag
    _validate(cfg, {})
    return cfg


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def write_csv(
    traj: Trajectory,
    controls: Optional[np.ndarray],
    reference: Optional[np.ndarray],
    path,
) -> None:
    """Write the fixed 18-column CSV (states, controls, costates, reference).

    Floats are written as repr writes them, with shortest round-trip
    precision, so a re-parse reproduces the arrays bit-exactly; the text
    comes from the compiled formatter `kernels.format_csv`. Reduced
    5-column trajectories get zero costates; missing controls/reference
    columns are zero-filled. The table is written CSV_CHUNK_ROWS rows at a
    time through one reused block and text buffer, so the memory this
    takes does not grow with the number of rows.
    """
    npts = traj.times.shape[0]
    states = traj.states
    if states.shape[1] == 10:
        body, costates = states[:, :5], states[:, 5:]
    elif states.shape[1] == 5:
        body, costates = states, None
    else:
        raise NhtrackError(f"cannot serialize trajectory with {states.shape[1]} columns")
    for name, values, width in (("controls", controls, 2), ("reference", reference, 5)):
        if values is not None and values.shape != (npts, width):
            raise NhtrackError(
                f"{name} of shape {values.shape} does not align with the trajectory grid: need ({npts}, {width})"
            )
    # (first column, last column + 1, values or None for zeros) in CSV_HEADER order
    parts = (
        (0, 1, traj.times[:, None]),
        (1, 6, body),
        (6, 8, controls),
        (8, 13, costates),
        (13, 18, reference),
    )
    block = np.empty((min(npts, CSV_CHUNK_ROWS), 18))
    text = np.empty(kernels.CSV_VALUE_BYTES * block.size, dtype=np.uint8)
    try:
        with open(path, "wb") as fh:
            fh.write(CSV_HEADER.encode() + b"\n")
            for start in range(0, npts, CSV_CHUNK_ROWS):
                rows = block[: min(CSV_CHUNK_ROWS, npts - start)]
                for lo, hi, values in parts:
                    rows[:, lo:hi] = 0.0 if values is None else values[start : start + len(rows)]
                fh.write(kernels.format_csv(rows, text))
    except OSError as err:
        raise NhtrackError(f"cannot write CSV to {path}: {err}") from err


def read_csv(path) -> dict:
    """Parse a comma-separated table under a header line into named float
    arrays: a CSV written by write_csv, or a tabulated reference file.

    Raises ValueError on a header that repeats a name, on a token that is
    not a number, on a row whose length is not the header's, and on a table
    with no rows.
    """
    with open(path, "r", newline="") as fh:
        names = fh.readline().strip().split(",")
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"the header repeats the name {', '.join(repeated)}")
        rows = [[float(tok) for tok in line.strip().split(",")] for line in fh if line.strip()]
    if not rows:
        raise ValueError("the table has no rows")
    if any(len(row) != len(names) for row in rows):
        raise ValueError(f"a row does not have {len(names)} values, one per header name")
    data = np.array(rows)
    return {name: data[:, j] for j, name in enumerate(names)}


def sample_reference(ref: Reference, times: np.ndarray) -> np.ndarray:
    """The particle reference at the given times as (len(times), 5) CSV columns."""
    return reference_rows(ref, times)


def write_plot_script(path, csv_name: str) -> None:
    """Emit a gnuplot command file rendering states vs reference and controls."""
    panels = [
        ("x", 2, 14),
        ("y", 3, 15),
        ("z", 4, 16),
        ("v1", 5, 17),
        ("v2", 6, 18),
    ]
    lines = [
        "set datafile separator ','",
        "set terminal pngcairo size 1400,900",
        "set output 'track.png'",
        "set multiplot layout 2,3",
        "set key top left",
    ]
    for name, col, rcol in panels:
        lines.append(f"set title '{name}'")
        lines.append(
            f"plot '{csv_name}' using 1:{col} with lines lw 2 title '{name}', "
            f"'' using 1:{rcol} with lines dt 2 title '{name}_r'"
        )
    lines.append("set title 'controls'")
    lines.append(
        f"plot '{csv_name}' using 1:7 with lines lw 2 title 'u1', "
        f"'' using 1:8 with lines lw 2 title 'u2'"
    )
    lines.append("unset multiplot")
    Path(path).write_text("\n".join(lines) + "\n")


def _echo_value(value) -> str:
    """A config value as the report echoes it: lowercase for a boolean,
    the space-joined reprs for a state, else str (a float's str is its
    repr)."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return " ".join(repr(v) for v in value)
    return str(value)


def _config_echo(cfg: ExperimentConfig) -> str:
    """One row per key of `_KEYS`, in its order; a reference.* key only
    when the config provides it."""
    rows = [
        (key, _echo_value(getattr(cfg, name)))
        for key, (name, _) in _KEYS.items()
        if not key.startswith("reference.") or key in cfg.provided
    ]
    rows.append(("kernel backend", kernels.backend()))
    return "\n".join(f"  {k} = {v}" for k, v in rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _build_reference(cfg: ExperimentConfig) -> Reference:
    if cfg.reference == KIND_LINE:
        return constant_z_line(cfg.ref_x_r, cfg.ref_z_offset, cfg.ref_speed)
    if cfg.reference == KIND_FREE_FLOW:
        s = cfg.ref_initial_state if cfg.ref_initial_state is not None else cfg.initial_state
        return free_flow(AdaptedState(q=np.array(s[:3]), v=np.array(s[3:])))
    path = cfg.ref_file
    try:
        table = read_csv(path)
        missing = [name for name in ("t", "x", "y", "z", "v1", "v2") if name not in table]
        if missing:
            raise ValueError(f"the header has no column {', '.join(missing)}")
        cols = np.column_stack([table[name] for name in ("x", "y", "z", "v1", "v2")])
        return tabulated(table["t"], cols)
    except OSError as err:
        raise ConfigError(f"cannot read reference file {path}: {err}") from err
    except (ValueError, ContractError) as err:
        # a repeated header name, a token that is not a number, a short or
        # long row, no rows at all, a missing column, a non-finite value or
        # times that do not increase
        raise ConfigError(f"bad reference file {path}: {err}") from err


def _build_problem(cfg: ExperimentConfig) -> TrackingProblem:
    s0 = AdaptedState(q=np.array(cfg.initial_state[:3]), v=np.array(cfg.initial_state[3:]))
    return TrackingProblem(
        ref=_build_reference(cfg),
        epsilon=cfg.epsilon,
        omega=cfg.omega,
        T=cfg.T,
        s0=s0,
        N=cfg.steps,
        adjoint_mode=cfg.adjoint_mode,
        full_transversality=cfg.full_transversality,
    )


def _warn_ignored(cfg: ExperimentConfig, command: str) -> None:
    """Warn, in `_KEYS` order, about each provided key the command does not
    read: check reads none, only track reads the track-only keys, and the
    other commands read only the reference.* keys of the chosen kind."""
    for key in _KEYS:
        if key not in cfg.provided:
            continue
        if command == "check" or (command != "track" and key in _TRACK_ONLY_KEYS):
            print(f"warning: key '{key}' is ignored by command '{command}'", file=sys.stderr)
        elif key.startswith("reference.") and key not in _REFERENCE_KEYS[cfg.reference]:
            print(f"warning: key '{key}' is ignored by reference '{cfg.reference}'", file=sys.stderr)


def _output_dir(cfg: ExperimentConfig) -> Path:
    """The output directory, created on first use: only once a command's
    inputs are built, so a config error leaves no directory behind. A path
    that cannot be a directory is a config error."""
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {cfg.output_dir!r}: {err}") from err
    return Path(cfg.output_dir)


def _write_flow(cfg: ExperimentConfig, name: str, flow) -> int:
    """Write the (N+1, 5) states flow(times) on the command's time grid,
    with the reference beside them, to the CSV file `name`. A row of either
    that is not finite raises DomainError, with no floating-point warning,
    before any file is written."""
    times = time_grid(0.0, cfg.T, cfg.steps)
    with np.errstate(over="ignore", invalid="ignore"):
        states = flow(times)
    require_finite_rows(states, times, "the flow")
    traj = Trajectory(times=times, states=states)
    ref = sample_reference(_build_reference(cfg), times)
    out = _output_dir(cfg) / name
    write_csv(traj, None, ref, out)
    print(f"wrote {out}")
    return 0


def cmd_simulate(cfg: ExperimentConfig) -> int:
    x0 = np.array(cfg.initial_state)
    return _write_flow(
        cfg, "simulate.csv", lambda _: kernels.rollout_reduced(x0, cfg.T / cfg.steps, cfg.steps)
    )


def cmd_analytic(cfg: ExperimentConfig) -> int:
    s0 = AdaptedState(q=np.array(cfg.initial_state[:3]), v=np.array(cfg.initial_state[3:]))
    params = analytic_constants(s0)
    return _write_flow(cfg, "analytic.csv", lambda times: analytic_flow(params, times))


def cmd_track(cfg: ExperimentConfig) -> int:
    prob = _build_problem(cfg)
    newton = NewtonConfig(tol_residual=cfg.newton_tol, max_iters=cfg.newton_max_iters)
    out_dir = _output_dir(cfg)
    report = solve_tracking(prob, cfg=newton)
    lines = [
        "tracking report",
        "===============",
        "configuration:",
        _config_echo(cfg),
        "",
        f"converged: {report.converged}",
        f"iterations: {report.iterations}",
        f"residual norms: {', '.join('%.6e' % v for v in report.residual_norms)}",
        f"alpha*: {' '.join(repr(float(v)) for v in report.alpha_star)}",
    ]
    written = []
    notes = [report.message] if report.message else []
    if report.trajectory is not None:
        written = [out_dir / "track.csv", out_dir / "plot.gp"]
        # the even rows of the half-grid reference table are the grid times
        write_csv(report.trajectory, report.controls, prob._ref_table[::2], written[0])
        write_plot_script(written[1], "track.csv")
        terminal = report.trajectory.final_state()[:5] - prob._ref_final
        free_cost = uncontrolled_cost(prob)
        lines += [
            f"cost J: {report.cost!r}",
            f"cost of u=0 rollout: {free_cost!r}",
            "terminal errors (x, y, z, v1, v2): "
            + " ".join("%.6e" % abs(v) for v in terminal),
        ]
        if not (math.isfinite(report.cost) and math.isfinite(free_cost)):
            notes.append(
                "a cost is not finite: the omega-weighted terminal cost overflows "
                f"(omega = {cfg.omega:g})"
            )
    else:
        lines.append("no trajectory: the flow at alpha* leaves the finite domain")
    lines += [f"note: {note}" for note in notes]
    written.append(out_dir / "report.txt")
    written[-1].write_text("\n".join(lines) + "\n")
    for path in written:
        print(f"wrote {path}")
    if not report.converged:
        print(f"track did not converge: {report.message}", file=sys.stderr)
        return 2
    return 0


def cmd_check(cfg: ExperimentConfig) -> int:
    results = checks_mod.run_checks()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name.ljust(width)}  {status}  {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 3


COMMANDS = {
    "simulate": cmd_simulate,
    "analytic": cmd_analytic,
    "track": cmd_track,
    "check": cmd_check,
}


def run(command: str, cfg: ExperimentConfig) -> int:
    """Execute one command against a validated config; returns exit status."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}'")
    _warn_ignored(cfg, command)
    return COMMANDS[command](cfg)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="nhtrack",
        description=(
            "Trajectory tracking for the constrained particle via indirect "
            "shooting. With no config file, every command runs the bundled "
            "benchmark experiment (initial state 0.5 0.2 0.7 0.5 0.4, "
            "reference (1, 0, t+1; 0, 1), T=4, epsilon=7)."
        ),
        epilog=(
            "The terminal-cost weight omega defaults to 1 and is configurable "
            "via 'omega = ...' or --omega. Exit codes: 0 success, 1 config "
            "or usage error, 2 non-convergence, 3 internal error."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("simulate", "integrate the uncontrolled reduced flow and write CSV"),
        ("analytic", "sample the closed-form flow and write CSV"),
        ("track", "solve the optimal tracking problem and write CSV + report"),
        ("check", "run the library invariant suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="path to key = value config file")
        p.add_argument("--out", help="output directory (overrides output_dir)")
        p.add_argument("--T", type=float, help="horizon override")
        p.add_argument("--epsilon", type=float, help="control-effort weight override")
        p.add_argument("--omega", type=float, help="terminal-cost weight override (default 1)")
        p.add_argument("--steps", type=int, help="integration step count override")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse has printed the help (0) or a usage error (2); a usage
        # error is a config error, as exit 2 means track did not converge
        return 0 if stop.code == 0 else 1
    try:
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except OSError as err:
                print(f"config error: cannot read {args.config}: {err}", file=sys.stderr)
                return 1
            cfg = parse_config(text)
        else:
            cfg = ExperimentConfig()
        cfg = apply_overrides(cfg, args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    try:
        return run(args.command, cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except NhtrackError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
