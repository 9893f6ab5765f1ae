"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single summary line (visible with `pytest -rA` or -s)
before asserting, so a red criterion still reports its measurements.

Criterion 5 carries one assertion that is known to fail: at omega=1 the
true minimizer of the stated cost ends with |y(T)| = 0.379 > |y(0)| = 0.2
(confirmed independently by direct transcription optimization; moving x
toward its target requires a negative-y excursion that has not fully
returned by T). The remaining criterion-5 assertions all hold.
"""

import time

import numpy as np

from nhtrack import checks, kernels
from nhtrack.cli import main, read_csv
from nhtrack.geometry import AdaptedState
from nhtrack.integrators import VectorField, convergence_order
from nhtrack.particle import analytic_constants, analytic_flow
from nhtrack.shooting import solve_tracking
from nhtrack.tracking import TrackingProblem, benchmark_problem, free_flow, uncontrolled_cost

S0 = AdaptedState(q=[0.5, 0.2, 0.7], v=[0.5, 0.4])
X0 = np.concatenate([S0.q, S0.v])


def _line(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _reduced_vf():
    # lean inline form of the reduced field, to keep the order study fast
    def f(t, x):
        y, v1, v2 = x[1], x[3], x[4]
        return np.array([-y * v2, v1, v2, 0.0, -(y / (1.0 + y * y)) * v1 * v2])

    return VectorField(dim=5, f=f)


def _oracle():
    params = analytic_constants(S0)

    def sample(t):
        s = analytic_flow(params, t)
        return np.concatenate([s.q, s.v])

    return sample


def test_criterion_1_analytic_oracle_agreement():
    """Fixed-step integration reproduces the closed form at fourth order."""
    oracle = _oracle()
    kernels.rollout_reduced(X0, 1e-3, 1)  # warm-up call, outside the timed region
    start = time.perf_counter()
    states = kernels.rollout_reduced(X0, 1e-3, 4000)
    exact = np.array([oracle(1e-3 * i) for i in range(4001)])
    max_err = float(np.max(np.abs(states - exact)))
    order = convergence_order(_reduced_vf(), oracle, 0.0, X0, 4.0, [500, 1000, 2000, 4000])
    elapsed = time.perf_counter() - start
    order_resolvable = convergence_order(
        _reduced_vf(), oracle, 0.0, X0, 4.0, [125, 250, 500, 1000]
    )
    ok = max_err <= 1e-9 and 3.8 <= order <= 4.2 and elapsed < 1.0
    _line(
        1,
        ok,
        f"max error {max_err:.2e}, order over pinned N-list {order:.3f} "
        f"(over the roundoff-resolvable range {order_resolvable:.3f}), {elapsed:.2f}s",
    )
    assert max_err <= 1e-9
    assert elapsed < 1.0
    assert 3.8 <= order_resolvable <= 4.2
    # Known-red sub-claim: over N in {500, 1000, 2000, 4000} the truncation
    # error (~0.18 h^4, i.e. 4.6e-14 at N=1000) falls below the float64
    # accumulation floor (~1e-13), so the log-log slope over that list
    # cannot reach 4 for this trajectory. Kept as stated, not loosened.
    assert 3.8 <= order <= 4.2, (
        f"slope over the pinned list is {order:.3f}: truncation error is "
        "below the roundoff floor past N=1000 for this flow"
    )


def test_criterion_2_oracle_equivalence():
    """Reduced flow vs projected multiplier flow at h=1e-4 over T=4."""
    start = time.perf_counter()
    r = checks.check_oracle_equivalence()
    elapsed = time.perf_counter() - start
    _line(2, r.passed and elapsed < 5.0, f"{r.detail}, {elapsed:.2f}s")
    assert r.passed, r.detail
    assert elapsed < 5.0


def test_criterion_3_conservation_suite():
    """v1 exactly conserved; restricted energy drift at roundoff scale."""
    v1, energy = checks.check_v1_constant(), checks.check_energy_conservation()
    _line(3, v1.passed and energy.passed, f"v1 {v1.detail}, energy {energy.detail}")
    assert v1.passed, v1.detail
    assert energy.passed, energy.detail


def test_criterion_4_pmp_consistency():
    """Derived adjoint == -grad H (FD-checked); the as-printed variant
    fails the same check exactly in the lam2/mu1/mu2 rows."""
    stationary, adjoint = checks.check_stationarity(), checks.check_adjoint_gradient()
    _line(4, stationary.passed and adjoint.passed, f"{stationary.detail}, {adjoint.detail}")
    assert stationary.passed, stationary.detail
    assert adjoint.passed, adjoint.detail


def test_criterion_5_benchmark_experiment():
    """Benchmark tracking run: convergence, error contraction, cost."""
    start = time.perf_counter()
    prob = benchmark_problem()
    report = solve_tracking(prob)
    elapsed = time.perf_counter() - start
    zT = report.trajectory.final_state()
    q_rT, v_rT = prob.ref.sample(prob.T)
    terminal = np.abs(np.concatenate([zT[:3] - q_rT, zT[3:5] - v_rT]))
    q_r0, v_r0 = prob.ref.sample(0.0)
    initial = np.abs(np.concatenate([S0.q - q_r0, S0.v - v_r0]))
    baseline = uncontrolled_cost(prob)
    shrink = terminal < initial
    ok = (
        report.converged
        and report.iterations <= 50
        and report.residual_norms[-1] <= 1e-8
        and bool(np.all(shrink))
        and report.cost < baseline
        and elapsed < 30.0
    )
    _line(
        5,
        ok,
        f"converged={report.converged} in {report.iterations} iters "
        f"(residual {report.residual_norms[-1]:.2e}), terminal errors "
        f"{np.array2string(terminal, precision=3)} vs initial "
        f"{np.array2string(initial, precision=3)}, cost {report.cost:.3f} "
        f"vs drifting {baseline:.3f}, {elapsed:.1f}s",
    )
    assert report.converged
    assert report.iterations <= 50
    assert report.residual_norms[-1] <= 1e-8
    assert report.cost < baseline
    assert elapsed < 30.0
    for name, idx in (("x", 0), ("z", 2), ("v1", 3), ("v2", 4)):
        assert terminal[idx] < initial[idx], f"terminal |{name}| error did not shrink"
    # Known-red sub-claim: the true optimum of the stated cost at omega=1
    # ends with |y(T)| ~ 0.379 > |y(0)| = 0.2 (independently confirmed by
    # direct transcription optimization; reaching x_r requires a y
    # excursion that has not returned by T). Kept as stated, not loosened.
    assert terminal[1] < initial[1], (
        f"terminal |y| error {terminal[1]:.4f} exceeds initial {initial[1]:.4f}: "
        "the minimizer of the stated cost genuinely does this at omega=1"
    )


def test_criterion_6_self_tracking_equilibrium():
    """Tracking a reference generated by the free flow needs no control."""
    prob = TrackingProblem(ref=free_flow(S0), epsilon=7.0, T=4.0, s0=S0)
    report = solve_tracking(prob)
    max_u = float(np.max(np.abs(report.controls)))
    ok = report.converged and max_u <= 1e-6
    _line(6, ok, f"converged={report.converged}, max |u*| {max_u:.2e}")
    assert report.converged
    assert max_u <= 1e-6


def test_criterion_7_singular_branch_continuity():
    """The generic closed form degrades continuously into the c1=0 branch."""
    r = checks.check_branch_continuity()
    _line(7, r.passed, r.detail)
    assert r.passed, r.detail


def test_criterion_8_cli_contract(tmp_path):
    """Exit codes 1/2/0 and bit-exact CSV round-trip."""
    bad = tmp_path / "bad.cfg"
    bad.write_text("epsilom = 7\n")
    rc_config = main(["track", "--config", str(bad), "--out", str(tmp_path)])

    stall = tmp_path / "stall.cfg"
    stall.write_text("newton.max_iters = 1\n")
    rc_stall = main(["track", "--config", str(stall), "--out", str(tmp_path / "stall")])

    good = tmp_path / "good.cfg"
    good.write_text("epsilon = 7\nT = 4\nsteps = 500\n")
    rc_good = main(["track", "--config", str(good), "--out", str(tmp_path / "good")])

    report = solve_tracking(benchmark_problem(N=500))
    data = read_csv(tmp_path / "good" / "track.csv")
    round_trip = all(
        np.all(data[name] == report.trajectory.states[:, j])
        for j, name in enumerate(("x", "y", "z", "v1", "v2", "l1", "l2", "l3", "m1", "m2"))
    ) and np.all(data["t"] == report.trajectory.times)

    ok = rc_config == 1 and rc_stall == 2 and rc_good == 0 and round_trip
    _line(
        8,
        ok,
        f"exit codes: config-error={rc_config}, non-convergence={rc_stall}, "
        f"success={rc_good}; CSV round-trip bit-exact={round_trip}",
    )
    assert rc_config == 1
    assert rc_stall == 2
    assert rc_good == 0
    assert round_trip
