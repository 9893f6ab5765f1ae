"""Tests for config parsing, CSV contract, commands, and exit codes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nhtrack import cli
from nhtrack.cli import (
    CSV_CHUNK_ROWS,
    CSV_HEADER,
    ExperimentConfig,
    main,
    parse_config,
    read_csv,
    write_csv,
)
from nhtrack.errors import ConfigError, NhtrackError
from nhtrack.integrators import Trajectory


class TestParseConfig:
    def test_benchmark_scalars_with_defaults(self):
        cfg = parse_config("epsilon = 7\nT = 4\n")
        assert cfg.epsilon == 7.0
        assert cfg.T == 4.0
        assert cfg.steps == 4000
        assert cfg.omega == 1.0
        assert cfg.initial_state == (0.5, 0.2, 0.7, 0.5, 0.4)
        assert cfg.reference == "builtin-constant-z-line"
        assert cfg.adjoint_mode == "derived"
        assert cfg.full_transversality is True

    def test_default_config_builds_the_benchmark_problem(self):
        """The CLI's defaults and `benchmark_problem` read one start and give
        one problem, reference table bytes included."""
        from nhtrack.tracking import benchmark_problem

        built, bench = cli._build_problem(ExperimentConfig()), benchmark_problem()
        assert built.s0.q.tobytes() == bench.s0.q.tobytes()
        assert built.s0.v.tobytes() == bench.s0.v.tobytes()
        for name in ("T", "N", "epsilon", "omega", "adjoint_mode", "full_transversality"):
            assert getattr(built, name) == getattr(bench, name), name
        assert built._ref_table.tobytes() == bench._ref_table.tobytes()

    def test_zero_epsilon_rejected_naming_singularity(self):
        with pytest.raises(ConfigError) as err:
            parse_config("epsilon = 0\n")
        assert "singular" in str(err.value)

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("epsilom = 7\n")
        assert "line 1" in str(err.value)
        assert "epsilom" in str(err.value)
        assert err.value.line == 1

    def test_malformed_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("T = 4\nepsilon = seven\n")
        assert err.value.line == 2

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# experiment\n\nT = 2.5  # short horizon\n")
        assert cfg.T == 2.5

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("T = 4\nT = 5\n")

    def test_initial_state_needs_five_numbers(self):
        with pytest.raises(ConfigError):
            parse_config("initial_state = 1 2 3\n")
        cfg = parse_config("initial_state = 1, 2, 3, 4, 5\n")
        assert cfg.initial_state == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_reference_kind_validated(self):
        with pytest.raises(ConfigError):
            parse_config("reference = circle\n")
        cfg = parse_config("reference = free-flow\n")
        assert cfg.reference == "free-flow"

    def test_bad_bool(self):
        with pytest.raises(ConfigError):
            parse_config("full_transversality = maybe\n")

    def test_tabulated_requires_file(self):
        with pytest.raises(ConfigError):
            parse_config("reference = tabulated\n")

    def test_unknown_system(self):
        with pytest.raises(ConfigError):
            parse_config("system = unicycle\n")

    @pytest.mark.parametrize(
        "text",
        [
            "T = 4\nsteps = 0\n",
            "steps = 10\nT = 0\n",
            "T = 4\nepsilon = -1\n",
            "T = 4\nomega = 0\n",
            "T = 4\nnewton.tol = 0\n",
            "T = 4\nnewton.max_iters = 0\n",
            "T = 4\nsystem = unicycle\n",
            "T = 4\nreference = circle\n",
            "T = 4\nreference = tabulated\n",
            "T = 4\nadjoint_mode = literal\n",
        ],
    )
    def test_rule_violation_carries_line_number(self, text):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == 2
        assert str(err.value).startswith("line 2: ")

    def test_adjoint_modes_accepted(self):
        assert parse_config("adjoint_mode = paper-literal\n").adjoint_mode == "paper-literal"


class TestWriteCsv:
    def test_exact_header_and_line_count(self, tmp_path):
        """A one-step trajectory writes exactly header + 2 rows."""
        traj = Trajectory(times=np.array([0.0, 0.5]), states=np.zeros((2, 5)))
        path = tmp_path / "out.csv"
        write_csv(traj, None, None, path)
        lines = path.read_text().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4 and lines[3] == ""  # final newline
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_round_trip_bit_exact(self, tmp_path):
        """Shortest round-trip formatting reproduces every float bitwise."""
        rng = np.random.default_rng(4)
        times = np.linspace(0.0, 4.0, 9)
        states = rng.uniform(-10, 10, (9, 10))
        controls = rng.uniform(-1, 1, (9, 2))
        reference = rng.uniform(-1, 1, (9, 5))
        traj = Trajectory(times=times, states=states)
        path = tmp_path / "round.csv"
        write_csv(traj, controls, reference, path)
        data = read_csv(path)
        assert np.all(data["t"] == times)
        for j, name in enumerate(("x", "y", "z", "v1", "v2")):
            assert np.all(data[name] == states[:, j])
        for j, name in enumerate(("l1", "l2", "l3", "m1", "m2")):
            assert np.all(data[name] == states[:, 5 + j])
        for j, name in enumerate(("u1", "u2")):
            assert np.all(data[name] == controls[:, j])
        for j, name in enumerate(("x_r", "y_r", "z_r", "v1_r", "v2_r")):
            assert np.all(data[name] == reference[:, j])


    @pytest.mark.parametrize("controls, reference", [
        (np.zeros((3, 2)), None),
        (np.zeros((2, 3)), None),
        (None, np.zeros((2, 6))),
    ])
    def test_misaligned_columns_rejected_before_writing(self, tmp_path, controls, reference):
        traj = Trajectory(times=np.array([0.0, 0.5]), states=np.zeros((2, 5)))
        path = tmp_path / "out.csv"
        with pytest.raises(NhtrackError, match="does not align with the trajectory grid: need \\(2, [25]\\)"):
            write_csv(traj, controls, reference, path)
        assert not path.exists()

    def test_several_chunks_match_repr(self, tmp_path):
        """A table longer than one formatter chunk, from sliced inputs, is
        written line for line as repr writes each value."""
        rng = np.random.default_rng(11)
        npts = 2 * CSV_CHUNK_ROWS + 3
        times = np.linspace(0.0, 4.0, npts)
        states = rng.standard_normal((5, npts)).T * 10.0 ** rng.integers(-8, 20, (npts, 5))
        reference = rng.standard_normal((npts, 10))[:, ::2]
        path = tmp_path / "long.csv"
        write_csv(Trajectory(times=times, states=states), None, reference, path)
        zeros = np.zeros((npts, 7))  # controls and costates
        table = np.column_stack([times, states, zeros, reference]).tolist()
        expected = "".join(",".join(map(repr, row)) + "\n" for row in table)
        assert path.read_text() == CSV_HEADER + "\n" + expected


class TestParserReuse:
    def test_each_main_call_sees_only_its_own_flags(self, tmp_path, monkeypatch):
        """The parser built once per process keeps nothing from one call to
        the next."""
        seen = []
        monkeypatch.setattr(cli, "run", lambda command, cfg: seen.append((command, cfg)) or 0)
        assert main(["simulate", "--T", "2", "--steps", "10", "--out", str(tmp_path / "a")]) == 0
        assert main(["track", "--epsilon", "3"]) == 0
        assert cli.build_parser() is cli.build_parser()
        (first, a), (second, b) = seen
        assert (first, a.T, a.steps, a.epsilon, a.output_dir) == ("simulate", 2.0, 10, 7.0, str(tmp_path / "a"))
        assert (second, b.T, b.steps, b.epsilon, b.output_dir) == ("track", 4.0, 4000, 3.0, ".")
        assert a.provided == {"T", "steps", "output_dir"} and b.provided == {"epsilon"}


class TestTrackCsvBytes:
    # recorded from the solve with exact Newton Jacobians; the file of the
    # finite-difference Newton solve differed by at most 2.8e-14 per cell
    DIGEST = "30335ff2100db4ad0627d126ee9aa3ba75c009b67b9dcfeaaa9da8863d140e21"

    def test_track_400_csv_sha256_pinned(self, tmp_path):
        """`nhtrack track --steps 400` writes the same track.csv bytes from
        run to run and build to build."""
        assert main(["track", "--steps", "400", "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "track.csv").read_bytes()).hexdigest()
        assert digest == self.DIGEST


class TestFlowCsvBytes:
    """SHA-256 of the flow files from `--steps 4000`, recorded with the
    per-sample reference and closed-form loops that whole-grid sampling
    replaced."""

    @pytest.mark.parametrize("command, digest", [
        ("analytic", "febbb9f934b4ec0afc5f53af2aa80479d047efae55937a14302339c4e9f125ff"),
        ("simulate", "eafe385905d91c73dfe346741cccf22cd36c83b2dcc298a2c3ce7e36c37f06b9"),
    ])
    def test_csv_sha256_pinned(self, tmp_path, command, digest):
        assert main([command, "--steps", "4000", "--out", str(tmp_path)]) == 0
        got = hashlib.sha256((tmp_path / f"{command}.csv").read_bytes()).hexdigest()
        assert got == digest


class TestBadReferenceFile:
    """A tabulated reference file that cannot be used is a config error: exit
    1, naming the file, with no output directory left behind."""

    GOOD_ROWS = ["t,x,y,z,v1,v2", "0,1,0,1,0,1", "1,1,0,2,0,1"]

    def run(self, tmp_path, capsys, rows):
        table = tmp_path / "ref.csv"
        if rows is not None:
            table.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"reference = tabulated\nreference.file = {table}\nT = 1\nsteps = 10\n")
        out = tmp_path / "newdir"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        return rc, capsys.readouterr().err, table, out

    @pytest.mark.parametrize("bad_row", [
        "0.5,1,0,1.5,0,abc",  # a token that is not a number
        "0.5,1,0,1.5,0",  # a short row
        "0.5,1,0,1.5,0,nan",  # a non-finite value
    ])
    def test_malformed_row(self, tmp_path, capsys, bad_row):
        rows = self.GOOD_ROWS[:2] + [bad_row] + self.GOOD_ROWS[2:]
        rc, err, table, out = self.run(tmp_path, capsys, rows)
        assert rc == 1
        assert "config error" in err and str(table) in err
        assert not out.exists()

    def test_time_column_not_increasing(self, tmp_path, capsys):
        rows = self.GOOD_ROWS + ["0.5,1,0,1.5,0,1"]
        rc, err, table, out = self.run(tmp_path, capsys, rows)
        assert rc == 1
        assert "config error" in err and str(table) in err and "increase" in err
        assert not out.exists()

    @pytest.mark.parametrize("rows, message", [
        (["t,x,y,z,v1,v2"], "has no rows"),
        ([CSV_HEADER], "has no rows"),
        (["t,x,y,z,v1,w", "0,1,0,1,0,1"], "no column v2"),
        (["t,x,y,z,v1,v2,x", "0,1,0,1,0,1,5"], "repeats the name x"),
    ], ids=["header-only", "header-only-track-csv", "column-missing", "name-repeated"])
    def test_unusable_table(self, tmp_path, capsys, rows, message):
        rc, err, table, out = self.run(tmp_path, capsys, rows)
        assert rc == 1
        assert "config error" in err and str(table) in err and message in err
        assert not out.exists()

    def test_missing_file_leaves_no_output_directory(self, tmp_path, capsys):
        rc, err, table, out = self.run(tmp_path, capsys, None)
        assert rc == 1
        assert "config error" in err and str(table) in err
        assert not out.exists()

    def test_good_file_writes_into_new_directory(self, tmp_path, capsys):
        rc, err, table, out = self.run(tmp_path, capsys, self.GOOD_ROWS)
        assert rc == 0
        data = read_csv(out / "simulate.csv")
        np.testing.assert_array_equal(data["z_r"], 1.0 + np.arange(11) * 0.1)


class TestBadValuesExitOne:
    """A bad value from a flag or a config key exits 1 before any file is written."""

    @pytest.mark.parametrize(
        "flags",
        ["--T nan", "--T inf", "--epsilon nan", "--epsilon inf", "--omega nan", "--omega inf",
         "--steps 0"],
    )
    def test_bad_flag(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert main(["track", "--out", str(out), "--steps", "400", *flags.split()]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "T = nan",
            "T = inf",
            "epsilon = nan",
            "epsilon = inf",
            "omega = nan",
            "omega = inf",
            "reference.x_r = nan",
            "reference.x_r = inf",
            "reference.z_offset = nan",
            "reference.speed = nan",
            "reference.speed = inf",
            "reference.initial_state = 0.5 0.2 nan 0.5 0.4",
            "reference.initial_state = 0.5 0.2 0.7 inf 0.4",
        ],
    )
    def test_non_finite_key(self, tmp_path, capsys, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"steps = 400\n{line}\n")
        out = tmp_path / "out"
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error: line 2: " in err
        assert not (out / "report.txt").exists()


class TestUnusableOutputDirectory:
    """An output path that cannot be a directory exits 1 with a config
    error; track reports it before solving."""

    @pytest.mark.parametrize("command", ["simulate", "track"])
    @pytest.mark.parametrize("where", ["empty", "file", "under-file"])
    def test_exits_one(self, tmp_path, capsys, monkeypatch, command, where):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = {"empty": "", "file": str(afile), "under-file": str(afile / "sub")}[where]

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output directory was made")

        monkeypatch.setattr(cli, "solve_tracking", no_solve)
        assert main([command, "--steps", "10", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out!r}: [Errno ")
        assert afile.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


class TestNonFiniteOutputs:
    """Huge inputs give a finite file or an exit-3 reason, never an inf or
    nan cell with exit 0, and never a floating-point warning (tier-1 turns
    a RuntimeWarning into a failure)."""

    def _cfg(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return str(path)

    def test_closed_form_flow_at_large_y(self, tmp_path):
        """Past |y| = 1.3e154, y*y + 1 overflows; x keeps its closed form
        x0 + (c2/c1)(sqrt(y0^2 + 1) - |y|)."""
        out = tmp_path / "out"
        assert main(["analytic", "--T", "1e200", "--steps", "2", "--out", str(out)]) == 0
        data = read_csv(out / "analytic.csv")
        assert all(np.isfinite(column).all() for column in data.values())
        r0 = np.sqrt(0.2 * 0.2 + 1.0)
        c1, c2 = 0.5, 0.4 * r0
        # the rows after t = 0 have |y| >= 2.5e199
        expected = 0.5 + (c2 / c1) * (r0 - np.abs(data["y"][1:]))
        np.testing.assert_allclose(data["x"][1:], expected, rtol=1e-15, atol=0.0)
        assert data["x"][-1] < -4e199

    def test_closed_form_start_at_large_y(self, tmp_path):
        """c2 = v2(0) sqrt(y0^2 + 1) is v2(0) |y0| once y0^2 overflows."""
        out = tmp_path / "out"
        cfg = self._cfg(tmp_path, "initial_state = 0 1e200 0 1 1\n")
        assert main(["analytic", "--config", cfg, "--steps", "2", "--out", str(out)]) == 0
        data = read_csv(out / "analytic.csv")
        for name, value in (("x", 0.0), ("y", 1e200), ("z", 0.0), ("v1", 1.0), ("v2", 1.0)):
            assert np.all(data[name] == value), name

    @pytest.mark.parametrize("command", ["simulate", "analytic", "track"])
    def test_overflowing_reference_exits_three(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        cfg = self._cfg(tmp_path, "reference.speed = 1e308\n")
        assert main([command, "--config", cfg, "--steps", "4", "--out", str(out)]) == 3
        assert capsys.readouterr().err.strip() == "error: the reference is not finite at t = 2.0"
        assert not out.exists()

    def test_overflowing_flow_exits_three(self, tmp_path, capsys):
        """y = y0 + v1*t overflows at t = 1e300 when v1 = 1e10."""
        out = tmp_path / "out"
        cfg = self._cfg(tmp_path, "initial_state = 0 0 0 1e10 1\n")
        assert main(["analytic", "--config", cfg, "--T", "1e300", "--steps", "2", "--out", str(out)]) == 3
        assert capsys.readouterr().err.strip() == "error: the flow is not finite at t = 5e+299"
        assert not out.exists()

    def test_overflowing_cost_named(self, tmp_path):
        """report.txt says why both costs read inf; exit 2 still reports the
        overflowing transversality rows."""
        assert main(["track", "--omega", "1e308", "--steps", "10", "--out", str(tmp_path)]) == 2
        report = (tmp_path / "report.txt").read_text()
        assert "cost J: inf\ncost of u=0 rollout: inf\n" in report
        assert report.endswith(
            "note: a cost is not finite: the omega-weighted terminal cost overflows "
            "(omega = 1e+308)\n"
        )


class TestCommands:
    def test_simulate_and_analytic_agree(self, tmp_path):
        """Integrated and closed-form flows agree row by row."""
        rc = main(["simulate", "--out", str(tmp_path)])
        assert rc == 0
        rc = main(["analytic", "--out", str(tmp_path)])
        assert rc == 0
        sim = read_csv(tmp_path / "simulate.csv")
        ana = read_csv(tmp_path / "analytic.csv")
        for name in ("x", "y", "z", "v1", "v2"):
            assert np.max(np.abs(sim[name] - ana[name])) <= 1e-9

    def test_simulate_first_row_is_initial_state(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("initial_state = 0.1 -0.2 0.3 0.4 -0.5\nsteps = 10\nT = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        data = read_csv(tmp_path / "simulate.csv")
        first = [data[n][0] for n in ("x", "y", "z", "v1", "v2")]
        assert first == [0.1, -0.2, 0.3, 0.4, -0.5]

    def test_track_benchmark_exits_zero(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("epsilon = 7\nT = 4\n")
        rc = main(["track", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        report = (tmp_path / "report.txt").read_text()
        assert "converged: True" in report
        data = read_csv(tmp_path / "track.csv")
        first = [data[n][0] for n in ("x", "y", "z", "v1", "v2")]
        assert first == [0.5, 0.2, 0.7, 0.5, 0.4]
        plot = (tmp_path / "plot.gp").read_text()
        assert "track.csv" in plot

    def test_track_written_csv_round_trips(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("steps = 200\n")
        assert main(["track", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        from nhtrack.shooting import solve_tracking
        from nhtrack.tracking import benchmark_problem

        report = solve_tracking(benchmark_problem(N=200))
        data = read_csv(tmp_path / "track.csv")
        for j, name in enumerate(("x", "y", "z", "v1", "v2")):
            assert np.all(data[name] == report.trajectory.states[:, j])
        for j, name in enumerate(("u1", "u2")):
            assert np.all(data[name] == report.controls[:, j])

    def test_non_convergence_exits_two_with_report(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("newton.max_iters = 1\n")
        rc = main(["track", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert (tmp_path / "report.txt").exists()
        assert "converged: False" in (tmp_path / "report.txt").read_text()

    def test_blowup_exits_two_with_report_and_no_csv(self, tmp_path, capsys):
        """The flow at the starting guess leaves the finite domain: the
        report says why, and there is no trajectory to write."""
        rc = main(["track", "--out", str(tmp_path), "--epsilon", "0.1", "--steps", "1000"])
        assert rc == 2
        report = (tmp_path / "report.txt").read_text()
        assert "converged: False" in report
        assert "note: residual at the starting guess left the domain" in report
        assert not (tmp_path / "track.csv").exists()
        assert not (tmp_path / "plot.gp").exists()
        assert "did not converge" in capsys.readouterr().err

    def test_singular_jacobian_exits_two_with_report(self, tmp_path, monkeypatch):
        """A rank-deficient shooting Jacobian is a solver failure like any
        other: report.txt names the pivot, and the flow at the starting
        guess is still written. A kernel whose sensitivity block comes back
        zero gives the all-zero Jacobian."""
        from nhtrack import kernels

        rollout = kernels.rollout_coupled

        def zero_sensitivity(*args, sens=None):
            states = rollout(*args, sens=sens)
            if sens is not None:
                sens[...] = 0.0
            return states

        monkeypatch.setattr(kernels, "rollout_coupled", zero_sensitivity)
        rc = main(["track", "--out", str(tmp_path), "--steps", "400"])
        assert rc == 2
        report = (tmp_path / "report.txt").read_text()
        assert "converged: False" in report
        assert "note: singular Jacobian: negligible pivot in column 0" in report
        assert "alpha*: 0.0 0.0 0.0 0.0 0.0" in report
        assert (tmp_path / "track.csv").exists()

    def test_config_error_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("epsilon = 0\n")
        assert main(["track", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, tmp_path):
        assert main(["track", "--config", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("argv, message", [
        ("track --steps abc", "argument --steps: invalid int value: 'abc'"),
        ("track --T", "argument --T: expected one argument"),
        ("track --bogus", "unrecognized arguments: --bogus"),
        ("nosuch", "invalid choice: 'nosuch'"),
        ("", "the following arguments are required: command"),
    ], ids=["malformed-value", "missing-value", "unknown-flag", "unknown-command", "no-command"])
    def test_usage_error_exits_one(self, capsys, argv, message):
        """Exit 2 means that track did not converge; a usage error is a
        config error, reported in argparse's words."""
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: nhtrack") and message in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: nhtrack")

    def test_flag_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("T = 4\nsteps = 4000\n")
        rc = main([
            "simulate", "--config", str(cfg), "--out", str(tmp_path),
            "--T", "1", "--steps", "10",
        ])
        assert rc == 0
        data = read_csv(tmp_path / "simulate.csv")
        assert len(data["t"]) == 11
        assert data["t"][-1] == 1.0

    @pytest.mark.parametrize("key, value", [
        ("epsilon", "3"),
        ("omega", "2"),
        ("adjoint_mode", "paper-literal"),
        ("full_transversality", "false"),
        ("newton.tol", "1e-8"),
        ("newton.max_iters", "5"),
    ])
    def test_epsilon_warned_for_simulate(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key} = {value}\nsteps = 10\nT = 1\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        err = capsys.readouterr().err
        assert f"key '{key}' is ignored" in err

    def test_simulate_warns_about_the_track_only_keys_alone(self, tmp_path, capsys):
        """A config of every key but reference.file (which needs a tabulated
        reference): simulate reads all but the six track-only ones and
        reference.initial_state, which the line reference does not read,
        and warns about those in key order; track warns about the
        reference key alone."""
        cfg = tmp_path / "exp.cfg"
        lines = [
            "system = nonholonomic-particle", "initial_state = 0.5 0.2 0.7 0.5 0.4",
            "reference = builtin-constant-z-line", "reference.x_r = 1",
            "reference.z_offset = 1", "reference.speed = 1",
            "reference.initial_state = 0.5 0.2 0.7 0.5 0.4", "T = 1", "steps = 10",
            "epsilon = 3", "omega = 2", "adjoint_mode = derived", "full_transversality = true",
            "newton.tol = 1e-8", "newton.max_iters = 50", f"output_dir = {tmp_path}",
        ]
        cfg.write_text("\n".join(lines) + "\n")
        by_line = "warning: key 'reference.initial_state' is ignored by reference 'builtin-constant-z-line'\n"
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == by_line + "".join(
            f"warning: key '{key}' is ignored by command 'simulate'\n"
            for key in ("epsilon", "omega", "adjoint_mode", "full_transversality",
                        "newton.tol", "newton.max_iters")
        )
        assert main(["track", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == by_line

    @pytest.mark.parametrize("command", ["simulate", "analytic", "track"])
    @pytest.mark.parametrize("kind, ignored", [
        ("builtin-constant-z-line", ("reference.initial_state", "reference.file")),
        ("free-flow", ("reference.x_r", "reference.z_offset", "reference.speed", "reference.file")),
        ("tabulated", ("reference.x_r", "reference.z_offset", "reference.speed", "reference.initial_state")),
    ], ids=["line", "free-flow", "tabulated"])
    def test_reference_keys_the_kind_does_not_read_are_warned(self, tmp_path, capsys, command, kind, ignored):
        """Given all five reference.* keys, a command that samples the
        reference warns, in key order, about each one its kind does not
        read: the line reads x_r, z_offset and speed, free-flow reads
        initial_state, and tabulated reads file."""
        table = tmp_path / "ref.csv"
        table.write_text("t,x,y,z,v1,v2\n0,1,0,1,0,1\n1,1,0,2,0,1\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"reference = {kind}\nreference.x_r = 1\nreference.z_offset = 1\n"
            "reference.speed = 5\nreference.initial_state = 0.5 0.2 0.7 0.5 0.4\n"
            f"reference.file = {table}\nT = 1\nsteps = 10\noutput_dir = {tmp_path}\n"
        )
        assert main([command, "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == "".join(
            f"warning: key '{key}' is ignored by reference '{kind}'\n" for key in ignored
        )

    def test_check_warns_about_every_provided_key(self, tmp_path, capsys):
        """check reads no key: each flag it is given draws a warning, the
        output directory included."""
        argv = ["check", "--steps", "10", "--T", "2", "--omega", "3", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().err == "".join(
            f"warning: key '{key}' is ignored by command 'check'\n"
            for key in ("T", "steps", "omega", "output_dir")
        )

    def test_check_passes_on_fresh_build(self, tmp_path, capsys):
        assert main(["check", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    CHECK_STDOUT = [
        "frame-annihilation        PASS  max residual 0.00e+00",
        "drift-quadratic-in-v      PASS  max defect 0.00e+00",
        "control-additivity        PASS  controlled == drift + u bitwise, max |(a+u)-a-u| 2.22e-16",
        "structure-constants-zero  PASS  gamma(0) == 0",
        "energy-conservation       PASS  relative drift 5.95e-14",
        "v1-constant               PASS  drift 0.00e+00",
        "oracle-equivalence        PASS  flow gap 5.94e-13, constraint drift 4.52e-13",
        "branch-continuity         PASS  max branch gap 4.00e-08",
        "flow-ode-residual         PASS  max residual 2.07e-10",
        "grid-endpoint             PASS  endpoint gap 0.00e+00, max |dt - h| 1.22e-15",
        "cubic-exactness           PASS  max error 7.82e-14",
        "determinism               PASS  bit-identical repeat evaluation",
        "stationarity              PASS  max |dH/du| 1.89e-16",
        "adjoint-gradient          PASS  max relative gap 9.96e-10, paper-literal fails rows lam2,mu1,mu2",
        "constraint-invariance     PASS  max |vx + y vz| 0.00e+00",
        "residual-smoothness       PASS  FD-step Jacobian gap 2.74e-08",
        "zero-fixed-point          PASS  residual at 0: 4.82e-13",
        "solver-behavior           PASS  converged=True in 11 iters, monotone=True, re-checked residual 8.24e-14",
        "18/18 checks passed",
    ]

    def test_check_stdout_is_pinned(self, capsys):
        """Every detail of `nhtrack check`, digit for digit: a change to a
        check, to its bound's outcome or to the code it measures shows
        here."""
        assert main(["check"]) == 0
        assert capsys.readouterr().out == "".join(line + "\n" for line in self.CHECK_STDOUT)

    def test_tabulated_reference_from_file(self, tmp_path):
        """A self-tracking run against a tabulated copy of the free flow."""
        table = tmp_path / "ref.csv"
        rows = ["t,x,y,z,v1,v2"]
        from nhtrack.geometry import AdaptedState
        from nhtrack.particle import analytic_constants, analytic_flow

        params = analytic_constants(AdaptedState(q=[0.5, 0.2, 0.7], v=[0.5, 0.4]))
        for t in np.linspace(0.0, 1.0, 2001):
            row = analytic_flow(params, float(t))
            rows.append(",".join(repr(float(v)) for v in [t, *row]))
        table.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "reference = tabulated\n"
            f"reference.file = {table}\n"
            "T = 1\nsteps = 400\n"
        )
        rc = main(["track", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        data = read_csv(tmp_path / "track.csv")
        # near-self-tracking: controls stay small
        assert np.max(np.abs(np.concatenate([data["u1"], data["u2"]]))) < 1e-2


class TestConfigEcho:
    """report.txt echoes the configuration one `_KEYS` row at a time; the
    reference.* rows appear only when the config provides them."""

    def echo(self, tmp_path, text):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        # report.txt is written whether or not the solve converges
        assert main(["track", "--config", str(cfg), "--steps", "10", "--out", str(out)]) in (0, 2)
        report = (out / "report.txt").read_text()
        return report.split("configuration:\n", 1)[1].split("\n\n", 1)[0].splitlines(), out

    def test_default_echo(self, tmp_path):
        rows, out = self.echo(tmp_path, "")
        assert rows == [
            "  system = nonholonomic-particle",
            "  initial_state = 0.5 0.2 0.7 0.5 0.4",
            "  reference = builtin-constant-z-line",
            "  T = 4.0",
            "  steps = 10",
            "  epsilon = 7.0",
            "  omega = 1.0",
            "  adjoint_mode = derived",
            "  full_transversality = true",
            "  newton.tol = 1e-10",
            "  newton.max_iters = 100",
            f"  output_dir = {out}",
            f"  kernel backend = {cli.kernels.backend()}",
        ]

    def test_provided_reference_keys_echoed(self, tmp_path):
        default, _ = self.echo(tmp_path, "")
        rows, _ = self.echo(tmp_path, "reference.speed = 2\nreference.x_r = 0.5\n")
        assert rows == default[:3] + ["  reference.x_r = 0.5", "  reference.speed = 2.0"] + default[3:]
        rows, _ = self.echo(
            tmp_path, "reference = free-flow\nreference.initial_state = 0.5 0.2 0.7 0.5 0.4\n"
        )
        assert rows[2:4] == [
            "  reference = free-flow", "  reference.initial_state = 0.5 0.2 0.7 0.5 0.4"
        ]


class TestExperimentConfigDefaults:
    def test_defaults_describe_benchmark(self):
        cfg = ExperimentConfig()
        assert cfg.system == "nonholonomic-particle"
        assert cfg.T == 4.0 and cfg.epsilon == 7.0 and cfg.omega == 1.0
        assert cfg.newton_tol == 1e-10 and cfg.newton_max_iters == 100


def test_cli_imports_no_undeclared_dependency():
    """pyproject.toml declares numpy only: importing the CLI, and with it
    the whole package, and running `nhtrack check` load neither scipy nor
    the test-only sympy and hypothesis."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import contextlib, io, sys, nhtrack.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = nhtrack.cli.main(['check'])\n"
        "print(status, *(m for m in ('scipy', 'sympy', 'hypothesis') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"
