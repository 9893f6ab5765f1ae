"""nhtrack benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload track-400 --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35

A run measures set-up (fresh interpreters that import nhtrack, build the
workload's problem and warm the kernels), then runs operations back to
back while the next one, at the median time an operation and its check
have taken so far, ends within --seconds (at least one). An operation is
one or two in-process `nhtrack.cli.main` calls writing into a fresh
directory under `.perfbench_tmp/`, or one pass over the invariant checks;
its outputs are checked after the clock stops. With --trace 0 the last line of stdout carries the end-to-end
metrics of BENCHMARK.json; with --trace 1 the layer boundaries are wrapped
(see spans.py) and it carries the per-layer metrics instead.

`--workload all` runs every workload untraced and traced in child
processes, prints one table and writes `.perfbench_out/summary-seed<n>.json`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed):
    import numpy

    from nhtrack import kernels

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numba  # noqa: F401

        numba_importable = True
    except ImportError:
        numba_importable = False
    return {
        "kernel_backend": kernels.backend(),
        "NHTRACK_PURE_NUMPY": os.environ.get("NHTRACK_PURE_NUMPY"),
        "numba_importable": numba_importable,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def measure_setup(workload):
    """Median wall time of fresh interpreters doing import, construction and warm-up."""
    code = "import nhtrack.cli\n" + workload.setup
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_workload(args, bench):
    import nhtrack.cli  # noqa: F401 - loads every submodule below

    nh = types.SimpleNamespace(**{
        name: sys.modules["nhtrack." + name]
        for name in ("cli", "checks", "geometry", "kernels", "shooting", "tracking")
    })
    workload = workloads.WORKLOADS[args.workload]
    setup_s = measure_setup(workload)
    exec(compile(workload.setup, "<setup>", "exec"), {})  # same warm-up in this process

    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer, nh)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    times, cycles, attempted, failed, wrong = [], [], 0, 0, []
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            cycle_start = time.perf_counter()
            out_dir = tempfile.mkdtemp(dir=tmp_root)
            try:
                start, op = workload.prepare(nh, out_dir, args.seed)
                gc.collect()  # garbage of the previous operation is not charged to this one
                tracer.op, tracer.active = attempted, bool(args.trace)
                t0 = time.perf_counter()
                try:
                    code, out, err = op()
                except Exception as exc:  # an operation that raises counts as failed
                    code, out, err = -1, "", f"{type(exc).__name__}: {exc}"
                times.append(time.perf_counter() - t0)
                tracer.active = False
                attempted += 1
                try:
                    reason = workload.check(nh, out_dir, start, code, out + err)
                except Exception as exc:
                    reason = f"output check raised {type(exc).__name__}: {exc}"
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            if reason is not None:
                failed += 1
                if code == 0:  # the program claimed success but its output is wrong
                    wrong.append(reason)
                print(f"op {attempted}: {times[-1]:.3f} s FAILED: {reason}")
            else:
                print(f"op {attempted}: {times[-1]:.3f} s ok")
            now = time.perf_counter()
            cycles.append(now - cycle_start)
            if now + statistics.median(cycles) > deadline:
                break
    finally:
        tracer.restore()
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    op_s = statistics.median(times)
    if args.trace:
        computed = spans.per_layer(tracer, attempted, check_names(bench))
        computed["trace.op_s"] = (op_s, "s")
        declared = bench["per_layer"]
        if args.workload == "track-400":
            print(count_identity(tracer, attempted))
    else:
        computed = {
            "op_s": (op_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        declared = bench["end_to_end"]
    metrics = {}
    for entry in declared:
        value, unit = computed[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit} but BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
        print(f"{entry['name']} = {value:.6g} {unit}")
    print(f"op_s median of {len(times)} ops; failed_frac = {failed / attempted:.3g} ({failed}/{attempted})")
    for reason in wrong:
        print(f"incorrect output: {reason}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def check_names(bench):
    return [
        m["name"][len("checks."):-len(".busy_s")]
        for m in bench["per_layer"]
        if m["name"].startswith("checks.")
    ]


def count_identity(tracer, ops):
    """Rollouts per solve = 1 initial + 2d per Jacobian + line-search trials + 1 final."""
    calls, _, _ = tracer.totals()
    rollouts = calls["kernels.rollout_coupled"] / ops
    jac = calls["shooting.fd_jacobian"] / ops
    trials = spans.line_search(tracer) / ops
    iters = tracer.counts["shooting.newton_iterations"] / ops
    parts = 1 + 10 * jac + trials + 1
    verdict = "adds up" if parts == rollouts else "DOES NOT add up"
    return (f"trace counts per op: {rollouts:g} rollouts = 1 + {10 * jac:g} Jacobian probes "
            f"({jac:g} x 10) + {trials:g} line-search trials + 1 final: {verdict}; "
            f"{iters:g} Newton iterations")


def run_all(args, bench):
    """Every workload untraced and traced; prints a table with trace overhead.

    Besides the workloads of BENCHMARK.json this runs track-jitter, whose
    seeded starts can make the solver fail (see README.md).
    """
    names = [w["name"] for w in bench["workloads"]]
    names += [name for name in workloads.WORKLOADS if name not in names]
    rows = {}
    for name in names:
        for traced in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit(f"{name} --trace {traced} exited {proc.returncode}")
            rows[name, traced] = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = {"environment": environment(args.seed), "why": {w["name"]: w["why"] for w in bench["workloads"]},
               "workloads": {}}
    summary["why"]["track-jitter"] = workloads.JITTER_WHY
    print(f"{'workload':14s} {'op_s':>9s} {'setup_s':>8s} {'peak_rss_mb':>11s} {'failed_frac':>11s} "
          f"{'traced op_s':>11s} {'overhead_s':>10s}")
    for name in names:
        plain, traced = rows[name, 0], rows[name, 1]
        m, t = plain["metrics"], traced["metrics"]
        overhead = t["trace.op_s"]["value"] - m["op_s"]["value"]
        frac = plain["failed"] / plain["attempted"]
        print(f"{name:14s} {m['op_s']['value']:9.3f} {m['setup_s']['value']:8.3f} "
              f"{m['peak_rss_mb']['value']:11.1f} {frac:11.3g} {t['trace.op_s']['value']:11.3f} {overhead:10.3f}")
        summary["workloads"][name] = {"untraced": plain, "traced": traced, "trace_overhead_s": overhead,
                                      "failed_frac": frac}
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"summary-seed{args.seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    ok = all(r["correct"] for r in rows.values())
    print(json.dumps({"correct": ok, "summary": str(out / f"summary-seed{args.seed}.json")}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="nhtrack benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nhtrack" / "__init__.py").is_file():
        print(f"error: no nhtrack sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = spec()
    if args.workload == "all":
        return run_all(args, bench)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(workloads.WORKLOADS)}, all)")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(environment(args.seed)))
    result = run_workload(args, bench)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
