"""The invariant suite of `nhtrack.checks`, one test per check.

`checks.py` holds the one implementation of each invariant; `nhtrack
check` prints the same results. A failing check reports its detail line.
"""

import json
from pathlib import Path

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
