"""The invariant suite of `nhtrack.checks`, one test per check.

`checks.py` holds the one implementation of each invariant; `nhtrack
check` prints the same results. A failing check reports its detail line.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from nhtrack import checks

BENCHMARK_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


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
    draw call per coordinate block per point gave."""
    seed, count, blocks, one_point = SAME_POINTS[name]
    rows = checks._uniform_rows(np.random.default_rng(seed), count, *blocks)
    rng = np.random.default_rng(seed)
    expected = np.array([np.concatenate(one_point(rng)) for _ in range(count)])
    assert rows.shape == expected.shape
    assert rows.tobytes() == expected.tobytes()


def test_checks_draw_the_pinned_rows(monkeypatch):
    """The checks that draw random points are the ones pinned above, and
    each calls the helper once, on a fresh generator of its seed and with
    its pinned layout."""
    calls = []
    draw = checks._uniform_rows

    def recording(rng, count, *blocks):
        calls.append((rng.bit_generator.state, count, list(blocks)))
        return draw(rng, count, *blocks)

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
        fresh = np.random.default_rng(seed).bit_generator.state
        assert recorded[name] == [(fresh, count, blocks)], name
