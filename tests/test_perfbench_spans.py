"""The traced benchmark run wraps nhtrack functions by name; keep those names.

`perfbench/run.py --trace 1` hands `spans.install` the nhtrack modules and
rebinds functions such as `tracking.integrate`, `cli.write_csv` and
`checks.fd_jacobian`. Deleting or renaming one of them must fail here, not
only in a traced benchmark run.
"""

import importlib.util
import sys
import types
from pathlib import Path

import nhtrack.cli  # noqa: F401 - loads every submodule below

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_restore_on_nhtrack_modules():
    spans = _load_spans()
    # the namespace perfbench/run.py builds
    nh = types.SimpleNamespace(**{
        name: sys.modules["nhtrack." + name]
        for name in ("cli", "checks", "geometry", "kernels", "shooting", "tracking")
    })
    before = {
        (owner, attr): getattr(owner, attr)
        for owner, attr in (
            (nh.cli, "write_csv"),
            (nh.cli, "solve_tracking"),
            (nh.checks, "fd_jacobian"),
            (nh.checks, "integrate"),
            (nh.tracking, "integrate"),
            (nh.kernels, "rollout_coupled"),
        )
    }
    checks_before = list(nh.checks.ALL_CHECKS)
    tracer = spans.Tracer()
    try:
        spans.install(tracer, nh)
        for (owner, attr), original in before.items():
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.restore()
    for (owner, attr), original in before.items():
        assert getattr(owner, attr) is original, attr
    assert nh.checks.ALL_CHECKS == checks_before


def test_traced_track_counts(tmp_path):
    """One traced `track` records the layer counts the benchmark reports:
    steps per rollout, Newton iterations, CSV bytes, and the rollout-count
    identity 1 initial + line-search trials + 1 final, where the trials
    include the exact-Jacobian rollouts."""
    spans = _load_spans()
    nh = types.SimpleNamespace(**{
        name: sys.modules["nhtrack." + name]
        for name in ("cli", "checks", "geometry", "kernels", "shooting", "tracking")
    })
    tracer = spans.Tracer()
    try:
        spans.install(tracer, nh)
        tracer.op, tracer.active = 0, True
        assert nh.cli.main(["track", "--steps", "40", "--out", str(tmp_path)]) == 0
        tracer.active = False
    finally:
        tracer.restore()
    m = {name: value for name, (value, _) in spans.per_layer(tracer, 1, []).items()}
    calls = m["kernels.rollout_coupled.calls"]
    assert calls > 0
    assert m["kernels.rollout_coupled.steps"] == 40 * calls
    report = (tmp_path / "report.txt").read_text()
    assert f"\niterations: {m['shooting.newton_iterations']:g}\n" in report
    assert m["cli.write_csv.bytes"] == (tmp_path / "track.csv").stat().st_size
    assert calls == 1 + spans.line_search(tracer) + 1
