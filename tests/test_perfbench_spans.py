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
