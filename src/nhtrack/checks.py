"""Self-contained invariant suite behind the `check` CLI command, and the
one implementation of each invariant: the tests call these checks.

Each check re-verifies one contract of the library on the bundled
particle: frame algebra, conservation laws, oracle agreement between the
reduced and unreduced dynamics, adjoint-gradient consistency, residual
smoothness, and solver behavior. Everything is deterministic (fixed RNG
seeds). The suite takes about 0.1 s on a 2-vCPU Xeon VM, and `nhtrack
check` about 0.4 s with interpreter start-up. The slowest checks are
cubic-exactness (0.05-0.07 s: 4000 steps of the generic integrator, which
runs on Python floats) and the 4000-step shooting solve of
solver-behavior, with exact Newton Jacobians (0.03-0.06 s);
oracle-equivalence, 40,000 steps of each C kernel, takes 0.014-0.016 s.
A check that evaluates the geometry, the Hamiltonian or the adjoint at
random points draws them as stacked rows and calls each library function
once on all of them: adjoint-gradient, 100 points and their 1,000
Hamiltonian probes, takes about 1.3 ms. grid-endpoint reads
`integrators.time_grid` directly and integrates nothing. The closed-form
flow and the references are sampled on whole time grids, one call per
grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List

import numpy as np

from . import kernels
from .geometry import (
    AdaptedState,
    admissible_velocity,
    christoffel_from_structure,
    constraint_residual,
    controlled_acceleration,
    nh_acceleration,
)
from .integrators import VectorField, integrate, time_grid
from .particle import (
    AnalyticParams,
    analytic_constants,
    analytic_flow,
    embed,
    particle_system,
    restricted_energy,
)
from .shooting import NewtonConfig, fd_jacobian, solve_tracking
from .tracking import (
    Costate,
    adjoint_field,
    benchmark_problem,
    free_flow,
    hamiltonian,
    hamiltonian_control_gradient,
    integrate_coupled,
    shooting_residual,
    stationary_control,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _uniform_rows(rng, count, *blocks):
    """count rows of uniform draws from rng, each row the columns of the
    blocks in order: a block (low, high, width) gives width columns in
    [low, high). Bit for bit the values of drawing, row after row, each
    block as rng.uniform(low, high, width): one draw of the unit interval
    scaled per column takes the same stream and the same arithmetic."""
    low = np.concatenate([np.full(w, lo, dtype=float) for lo, _, w in blocks])
    high = np.concatenate([np.full(w, hi, dtype=float) for _, hi, w in blocks])
    return low + (high - low) * rng.uniform(size=(count, low.shape[0]))


def _states(x) -> AdaptedState:
    """The particle states in the first five entries of the last axis of
    x: q, then v."""
    return AdaptedState(q=x[..., :3], v=x[..., 3:5])


def check_frame_annihilation() -> CheckResult:
    sys_ = particle_system()
    s = _states(_uniform_rows(np.random.default_rng(11), 50, (-2.0, 2.0, 5)))
    qdot = admissible_velocity(sys_, s)
    worst = float(np.max(np.abs(constraint_residual(sys_, s.q, qdot))))
    return CheckResult("frame-annihilation", worst <= 1e-12, f"max residual {worst:.2e}")


def check_drift_quadratic() -> CheckResult:
    sys_ = particle_system()
    s = _states(_uniform_rows(np.random.default_rng(12), 50, (-2.0, 2.0, 5)))
    a1 = nh_acceleration(sys_, s)
    a2 = nh_acceleration(sys_, AdaptedState(q=s.q, v=2.0 * s.v))
    worst = float(np.max(np.abs(a2 - 4.0 * a1)))
    return CheckResult("drift-quadratic-in-v", worst <= 1e-13, f"max defect {worst:.2e}")


def check_control_additivity() -> CheckResult:
    # exact form of the additive-control contract: controlled == drift + u
    # bitwise; the subtracted form (a+u)-a re-rounds, so it gets 1e-15
    sys_ = particle_system()
    rows = _uniform_rows(np.random.default_rng(13), 50, (-2.0, 2.0, 5), (-3.0, 3.0, 2))
    s = _states(rows)
    u = rows[:, 5:]
    drift = nh_acceleration(sys_, s)
    lhs = controlled_acceleration(sys_, s, u)
    ok = bool(np.all(lhs == drift + u))
    ok = ok and bool(np.all(controlled_acceleration(sys_, s, np.zeros_like(u)) == drift))
    worst = float(np.max(np.abs(lhs - drift - u)))
    return CheckResult(
        "control-additivity",
        ok and worst <= 1e-15,
        f"controlled == drift + u bitwise, max |(a+u)-a-u| {worst:.2e}",
    )


def check_structure_zero() -> CheckResult:
    g = christoffel_from_structure(np.zeros((3, 3, 3)))
    ok = bool(np.all(g == 0.0))
    return CheckResult("structure-constants-zero", ok, "gamma(0) == 0")


def _reduced_rollout_default():
    x0 = np.array([0.5, 0.2, 0.7, 0.5, 0.4])
    return kernels.rollout_reduced(x0, 4.0 / 4000, 4000)


def check_energy_conservation() -> CheckResult:
    states = _reduced_rollout_default()
    e = restricted_energy(AdaptedState(q=states[:, :3], v=states[:, 3:]))
    drift = float(np.max(np.abs(e - e[0])) / abs(e[0]))
    return CheckResult("energy-conservation", drift <= 1e-10, f"relative drift {drift:.2e}")


def check_v1_constant() -> CheckResult:
    states = _reduced_rollout_default()
    drift = float(np.max(np.abs(states[:, 3] - states[0, 3])))
    return CheckResult("v1-constant", drift <= 1e-12, f"drift {drift:.2e}")


def check_oracle_equivalence() -> CheckResult:
    s0 = AdaptedState(q=[0.5, 0.2, 0.7], v=[0.5, 0.4])
    n = 40000
    h = 4.0 / n
    red = kernels.rollout_reduced(np.concatenate([s0.q, s0.v]), h, n)
    amb0 = embed(s0)
    unred = kernels.rollout_unreduced(np.concatenate([amb0.q, amb0.vq]), h, n)
    ambient_drift = float(np.max(np.abs(unred[:, 3] + unred[:, 1] * unred[:, 5])))
    projected = np.column_stack([unred[:, 0], unred[:, 1], unred[:, 2], unred[:, 4], unred[:, 5]])
    gap = float(np.max(np.abs(projected - red)))
    ok = gap <= 1e-6 and ambient_drift <= 1e-10
    return CheckResult(
        "oracle-equivalence", ok, f"flow gap {gap:.2e}, constraint drift {ambient_drift:.2e}"
    )


def check_branch_continuity() -> CheckResult:
    times = np.linspace(0.0, 4.0, 401)
    a = analytic_flow(AnalyticParams(c1=1e-8, c2=0.7, x0=0.3, y0=0.4, z0=-0.2), times)
    b = analytic_flow(AnalyticParams(c1=0.0, c2=0.7, x0=0.3, y0=0.4, z0=-0.2), times)
    worst = float(np.max(np.abs(np.concatenate([a.q - b.q, a.v - b.v], axis=1))))
    return CheckResult("branch-continuity", worst <= 1e-5, f"max branch gap {worst:.2e}")


def check_flow_ode_residual() -> CheckResult:
    sys_ = particle_system()
    p = analytic_constants(AdaptedState(q=[0.5, 0.2, 0.7], v=[0.5, 0.4]))
    fd = 1e-6
    times = np.linspace(0.05, 3.95, 25)
    sm = analytic_flow(p, times - fd)
    sp = analytic_flow(p, times + fd)
    ds = (np.concatenate([sp.q, sp.v], axis=1) - np.concatenate([sm.q, sm.v], axis=1)) / (2.0 * fd)
    flow = analytic_flow(p, times)
    rhs = np.concatenate([admissible_velocity(sys_, flow), nh_acceleration(sys_, flow)], axis=1)
    worst = float(np.max(np.abs(ds - rhs)))
    return CheckResult("flow-ode-residual", worst <= 1e-6, f"max residual {worst:.2e}")


def check_grid_endpoint() -> CheckResult:
    times = time_grid(0.25, 4.0, 4000)
    gap = abs(times[-1] - 4.25)
    steps = np.diff(times)
    uniform = bool(np.allclose(steps, 4.0 / 4000, rtol=1e-12))
    spread = float(np.max(np.abs(steps - 4.0 / 4000)))
    return CheckResult(
        "grid-endpoint",
        gap <= 1e-12 and uniform,
        f"endpoint gap {gap:.2e}, max |dt - h| {spread:.2e}",
    )


def check_cubic_exactness() -> CheckResult:
    vf = VectorField(dim=1, f=lambda t, x: np.array([3.0 * t**2 - 2.0 * t + 0.5]))
    traj = integrate(vf, 0.0, np.array([1.0]), 4.0, 4000)
    exact = traj.times**3 - traj.times**2 + 0.5 * traj.times + 1.0
    gap = float(np.max(np.abs(traj.states[:, 0] - exact)))
    return CheckResult("cubic-exactness", gap <= 1e-12, f"max error {gap:.2e}")


def check_determinism() -> CheckResult:
    prob = benchmark_problem(N=500)
    a = shooting_residual(np.zeros(5), prob)
    b = shooting_residual(np.zeros(5), prob)
    ok = bool(np.all(a == b))
    return CheckResult("determinism", ok, "bit-identical repeat evaluation")


def check_stationarity() -> CheckResult:
    rows = _uniform_rows(np.random.default_rng(14), 100, (-2.0, 2.0, 5), (0.5, 10.0, 1))
    p = Costate(lam=rows[:, :3], mu=rows[:, 3:5])
    eps = rows[:, 5:]
    u = stationary_control(p, eps)
    g = hamiltonian_control_gradient(p, u, eps)
    scale = np.maximum(1.0, np.max(np.abs(p.mu), axis=1))
    worst = float(np.max(np.max(np.abs(g), axis=1) / scale))
    return CheckResult("stationarity", worst <= 1e-15, f"max |dH/du| {worst:.2e}")


def check_adjoint_gradient() -> CheckResult:
    # derived adjoint == -grad H by central differences; the paper-literal
    # one fails the same test in exactly its lam2, mu1 and mu2 rows
    sys_ = particle_system()
    rows = _uniform_rows(np.random.default_rng(15), 100, (-2.0, 2.0, 10), (-1.0, 1.0, 5))
    s = _states(rows)
    p = Costate(lam=rows[:, 5:8], mu=rows[:, 8:10])
    r = (rows[:, 10:13], rows[:, 13:15])
    eps = 7.0
    step = 1e-6
    u = stationary_control(p, eps)
    # all 5 +- probes of every point in one call per sign: axis 1 is the
    # probed coordinate, and u takes the probes' shape, as v's
    e = step * np.eye(5)
    x = rows[:, None, :5]
    p_probe = Costate(lam=p.lam[:, None], mu=p.mu[:, None])
    u_probe = np.repeat(u[:, None], 5, axis=1)
    r_probe = (r[0][:, None], r[1][:, None])
    h_plus = hamiltonian(sys_, _states(x + e), p_probe, u_probe, r_probe, eps)
    h_minus = hamiltonian(sys_, _states(x - e), p_probe, u_probe, r_probe, eps)
    grad = (h_plus - h_minus) / (2 * step)
    scale = np.maximum(1.0, np.abs(grad))
    derived = adjoint_field(sys_, s, p, r, eps, "derived")
    worst = float(np.max(np.abs(np.concatenate([derived.lam, derived.mu], axis=1) + grad) / scale))
    literal = adjoint_field(sys_, s, p, r, eps, "paper-literal")
    literal_gap = np.abs(np.concatenate([literal.lam, literal.mu], axis=1) + grad) / scale
    literal_bad = np.any(literal_gap > 1e-5, axis=0)
    names = ("lam1", "lam2", "lam3", "mu1", "mu2")
    bad_rows = [name for name, bad in zip(names, literal_bad) if bad]
    return CheckResult(
        "adjoint-gradient",
        worst <= 1e-5 and bad_rows == ["lam2", "mu1", "mu2"],
        f"max relative gap {worst:.2e}, paper-literal fails rows {','.join(bad_rows) or 'none'}",
    )


def check_constraint_invariance() -> CheckResult:
    sys_ = particle_system()
    prob = benchmark_problem(N=2000)
    traj = integrate_coupled(prob, np.array([0.1, -0.2, 0.3, 0.05, -0.4]))
    s = _states(traj.states[::50])
    qdot = admissible_velocity(sys_, s)
    defect = float(np.max(np.abs(constraint_residual(sys_, s.q, qdot))))
    return CheckResult("constraint-invariance", defect <= 1e-12, f"max |vx + y vz| {defect:.2e}")


def check_residual_smoothness() -> CheckResult:
    prob = benchmark_problem(N=1000)

    def res(alpha):
        return shooting_residual(alpha, prob)

    alpha = np.array([0.3, -0.5, 0.2, 0.1, -0.1])
    J5 = fd_jacobian(res, alpha, 1e-5)
    J6 = fd_jacobian(res, alpha, 1e-6)
    scale = np.maximum(1.0, np.abs(J6))
    gap = float(np.max(np.abs(J5 - J6) / scale))
    return CheckResult("residual-smoothness", gap <= 1e-3, f"FD-step Jacobian gap {gap:.2e}")


def check_zero_fixed_point() -> CheckResult:
    base = benchmark_problem()
    prob = replace(base, ref=free_flow(base.s0))
    r = shooting_residual(np.zeros(5), prob)
    worst = float(np.max(np.abs(r)))
    return CheckResult("zero-fixed-point", worst <= 1e-9, f"residual at 0: {worst:.2e}")


def check_solver_behavior() -> CheckResult:
    prob = benchmark_problem()
    rep = solve_tracking(prob, cfg=NewtonConfig())
    norms = np.array(rep.residual_norms)
    monotone = bool(np.all(np.diff(norms) < 0))
    verified = float(np.max(np.abs(shooting_residual(rep.alpha_star, prob))))
    ok = rep.converged and monotone and verified <= NewtonConfig().tol_residual
    return CheckResult(
        "solver-behavior",
        ok,
        f"converged={rep.converged} in {rep.iterations} iters, "
        f"monotone={monotone}, re-checked residual {verified:.2e}",
    )


ALL_CHECKS: List[Callable[[], CheckResult]] = [
    check_frame_annihilation,
    check_drift_quadratic,
    check_control_additivity,
    check_structure_zero,
    check_energy_conservation,
    check_v1_constant,
    check_oracle_equivalence,
    check_branch_continuity,
    check_flow_ode_residual,
    check_grid_endpoint,
    check_cubic_exactness,
    check_determinism,
    check_stationarity,
    check_adjoint_gradient,
    check_constraint_invariance,
    check_residual_smoothness,
    check_zero_fixed_point,
    check_solver_behavior,
]


def run_checks() -> List[CheckResult]:
    """Run every invariant check and collect the results."""
    return [fn() for fn in ALL_CHECKS]
