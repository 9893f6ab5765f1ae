"""The invariant suite of `nhtrack.checks`, one test per check.

`checks.py` holds the one implementation of each invariant; `nhtrack
check` prints the same results. A failing check reports its detail line.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nhtrack import checks, integrators, kernels

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
SRC_PATH = ROOT / "src"


@pytest.mark.parametrize("check", checks.ALL_CHECKS, ids=lambda fn: fn.__name__)
def test_check(check):
    r = check()
    assert r.passed, r.detail


def test_check_names_are_the_benchmark_layers():
    """Every check but the shooting solve is a per-layer metric of the
    `invariants` benchmark workload, `checks.<name>.busy_s`. A check renamed
    or dropped here would otherwise leave that metric at zero."""
    per_layer = json.loads(BENCHMARK_PATH.read_text())["per_layer"]
    layers = [
        m["name"][len("checks."):-len(".busy_s")]
        for m in per_layer
        if m["name"].startswith("checks.")
    ]
    names = [fn().name for fn in checks.ALL_CHECKS if fn is not checks.check_solver_behavior]
    assert sorted(names) == sorted(layers)


# seed, point count, stacked column blocks, and one point's draws as the
# per-point loop made them before the checks drew stacked rows
SAME_POINTS = {
    "frame-annihilation": (
        11, 50, [(-2.0, 2.0, 5)],
        lambda rng: [rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 2)],
    ),
    "drift-quadratic-in-v": (
        12, 50, [(-2.0, 2.0, 5)],
        lambda rng: [rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 2)],
    ),
    "control-additivity": (
        13, 50, [(-2.0, 2.0, 5), (-3.0, 3.0, 2)],
        lambda rng: [rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, 2), rng.uniform(-3.0, 3.0, 2)],
    ),
    "stationarity": (
        14, 100, [(-2.0, 2.0, 5), (0.5, 10.0, 1)],
        lambda rng: [rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 2), [float(rng.uniform(0.5, 10.0))]],
    ),
    "adjoint-gradient": (
        15, 100, [(-2.0, 2.0, 10), (-1.0, 1.0, 5)],
        lambda rng: [
            rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 2),  # q, v
            rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 2),  # lam, mu
            rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 2),  # q_r, v_r
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(SAME_POINTS))
def test_stacked_rows_are_the_per_point_draws(name):
    """The row-drawing helper gives, bit for bit, the points that one
    numpy draw call per coordinate block per point gave."""
    seed, count, blocks, one_point = SAME_POINTS[name]
    rows = checks._uniform_rows(seed, count, *blocks)
    rng = np.random.default_rng(seed)
    expected = np.array([np.concatenate(one_point(rng)) for _ in range(count)])
    assert rows.shape == expected.shape
    assert rows.tobytes() == expected.tobytes()


def test_checks_draw_the_pinned_rows(monkeypatch):
    """The checks that draw random points are the ones pinned above, and
    each calls the helper once, with its seed and its pinned layout."""
    calls = []
    draw = checks._uniform_rows

    def recording(seed, count, *blocks):
        calls.append((seed, count, list(blocks)))
        return draw(seed, count, *blocks)

    monkeypatch.setattr(checks, "_uniform_rows", recording)
    recorded = {}
    for fn in checks.ALL_CHECKS:
        calls.clear()
        result = fn()
        assert result.passed, result.detail
        if calls:
            recorded[result.name] = list(calls)
    assert sorted(recorded) == sorted(SAME_POINTS)
    for name, (seed, count, blocks, _) in SAME_POINTS.items():
        assert recorded[name] == [(seed, count, blocks)], name


@pytest.mark.parametrize("seed", sorted(checks._PCG64_SEEDED))
def test_replayed_generator_starts_where_numpy_seeds_it(seed):
    """The hard-coded (state, inc) of each seed is the one numpy's PCG64
    derives from that seed."""
    state, inc = checks._PCG64_SEEDED[seed]
    assert {"state": state, "inc": inc} == np.random.PCG64(seed).state["state"]


def test_drawn_rows_are_cached_read_only_constants():
    seed, count, blocks, _ = SAME_POINTS["control-additivity"]
    rows = checks._uniform_rows(seed, count, *blocks)
    assert checks._uniform_rows(seed, count, *blocks) is rows
    with pytest.raises(ValueError):
        rows[0, 0] = 0.0


def test_check_command_does_not_load_numpy_random():
    """`nhtrack check` replays its draws in Python: a fresh interpreter
    that runs it never imports numpy.random (about 5 MB resident)."""
    code = (
        "import contextlib, io, sys\n"
        "from nhtrack import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(['check'])\n"
        "print(status, sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_PATH))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "0 []\n"


def test_adjoint_gradient_fails_on_a_kernel_mu2_row_off_by_1e_7(tmp_path, monkeypatch):
    """The check reads the C kernel's own costate rows: a kernel whose
    derived mu2 row is scaled by (1 + 1e-7), built from edited copies of
    the sources, fails it with a gap of about 1e-7."""
    copies = []
    for src in kernels._SOURCES:
        copy = tmp_path / src.name
        copy.write_text(src.read_text())
        copies.append(copy)
    row = "        dm2 = l1 * y - l3 - e2 + m2 * f * v1;\n"
    text = copies[0].read_text()
    assert text.count(row) == 1
    copies[0].write_text(text.replace(row, "        dm2 = (l1 * y - l3 - e2 + m2 * f * v1) * (1.0 + 1e-7);\n"))
    monkeypatch.setattr(kernels, "_SOURCES", tuple(copies))
    mutant = kernels._build(tmp_path)
    monkeypatch.setattr(kernels, "_library", lambda: mutant)
    r = checks.check_adjoint_gradient()
    assert not r.passed
    assert 1e-8 < float(r.detail.split()[3].rstrip(",")) < 1e-6


def _literal_mutant(z, r, eps, row):
    """Column and values of the paper-literal row `row` of a one-token
    mutant of `_rk4.c`, evaluated as the C expression is."""
    y, v1, v2, l1, l2, l3, m2 = (z[:, i] for i in (1, 3, 4, 5, 6, 7, 9))
    w = 1.0 + y * y
    f = y / w
    if row == "lam2":  # (y*y + 1.0) in place of (y*y - 1.0)
        return 6, l1 * v2 - (y - r[:, 1]) + eps * v1 * v2 * m2 * (y * y + 1.0) / (w * w)
    if row == "mu1":  # v1 in place of v2
        return 8, -l2 - (v1 - r[:, 3]) - m2 * f * v1
    return 9, -l3 + l1 * y - (v2 - r[:, 4]) - m2 * f * v2  # mu2: v2 in place of v1


@pytest.mark.parametrize("row", ["lam2", "mu1", "mu2"])
def test_adjoint_gradient_fails_on_a_wrong_paper_literal_row(monkeypatch, row):
    """A kernel whose paper-literal row is a one-token mutant still fails
    the gradient test in exactly lam2, mu1 and mu2, so the failing rows do
    not show it. The check also pins literal - derived to the printed
    difference in closed form, and that fails it."""
    coupled_rhs = kernels.coupled_rhs

    def mutant(z, ref, eps, literal):
        out = coupled_rhs(z, ref, eps, literal)
        if literal:
            col, values = _literal_mutant(np.asarray(z), np.asarray(ref), eps, row)
            out[:, col] = values
        return out

    monkeypatch.setattr(kernels, "coupled_rhs", mutant)
    r = checks.check_adjoint_gradient()
    assert not r.passed
    assert r.detail.endswith("paper-literal fails rows lam2,mu1,mu2")


def test_cubic_exactness_runs_the_kernel_not_the_generic_integrator(monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("integrators.integrate called")

    monkeypatch.setattr(integrators, "integrate", unused)
    monkeypatch.setattr(checks, "integrate", unused)
    r = checks.check_cubic_exactness()
    assert r.passed, r.detail


def test_cubic_exactness_fails_on_a_reference_read_one_row_late(monkeypatch):
    """A kernel that reads the half-grid reference one row late, row j - 1
    at stage row j, integrates lam1 with an error of about 0.02."""
    rollout = kernels.rollout_coupled

    def late(z0, h, n_steps, ref_half, *args, **kwargs):
        shifted = np.concatenate([ref_half[:1], ref_half[:-1]])
        return rollout(z0, h, n_steps, shifted, *args, **kwargs)

    monkeypatch.setattr(kernels, "rollout_coupled", late)
    r = checks.check_cubic_exactness()
    assert not r.passed
    assert float(r.detail.split()[-1]) > 1e-2


@pytest.mark.parametrize("mode", ["derived", "paper-literal"])
def test_cubic_flow_moves_lam1_alone(mode):
    """Along the cubic-exactness flow every coupled column but lam1 keeps
    its start bit for bit, so lam1 integrates the reference's x alone."""
    states = checks._cubic_flow(mode).states
    others = np.delete(states, 5, axis=1)
    assert others.tobytes() == np.broadcast_to(others[0], others.shape).tobytes()
    assert states[-1, 5] == pytest.approx(4.0**3 - 4.0**2 + 0.5 * 4.0 + 1.0, abs=1e-12)


def test_oracle_equivalence_rolls_out_40000_steps_in_restarted_blocks(monkeypatch):
    """Both flows run all 40,000 steps of h = 1e-4 as one paired rollout
    in blocks, every block from the last row of the one before."""
    made = []
    rollout = kernels.rollout_paired

    def record(x0, h, n_steps):
        states = rollout(x0, h, n_steps)
        made.append((np.asarray(x0).tobytes(), h, n_steps, states[-1].tobytes()))
        return states

    monkeypatch.setattr(kernels, "rollout_paired", record)
    r = checks.check_oracle_equivalence()
    assert r.passed, r.detail
    starts, steps, counts, lasts = zip(*made)
    assert sum(counts) == 40000 and set(steps) == {4.0 / 40000}
    assert starts[1:] == lasts[:-1]


def test_oracle_equivalence_holds_no_whole_flow_table():
    """The check keeps running maxima over 2000-step blocks: a call
    allocates under 1 MB at its peak, where the two 40,001-row tables of
    whole rollouts alone take 3.5 MB (numpy reports its buffers to
    tracemalloc). The first call, untraced, loads the kernel library."""
    checks.check_oracle_equivalence()
    tracemalloc.start()
    try:
        r = checks.check_oracle_equivalence()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.passed, r.detail
    assert peak < 1_000_000, f"tracemalloc peak {peak} B"
