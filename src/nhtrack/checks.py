"""Self-contained invariant suite behind the `check` CLI command, and the
one implementation of each invariant: the tests call these checks.

Each check re-verifies one contract of the library on the bundled
particle: frame algebra, conservation laws, oracle agreement between the
reduced and unreduced dynamics, adjoint-gradient consistency, residual
smoothness, and solver behavior. Everything is deterministic. The random
points are numpy's PCG64 draws for fixed seeds, replayed in pure Python
from hard-coded seeded states so that numpy.random (about 5 MB resident)
is never imported; the five draws cost about 1.8 ms once per process.
On a 2-vCPU Xeon VM (in-process medians, `BENCH_28.json`) the 17 checks
but solver-behavior take about 9 ms, and `nhtrack check` about 0.17 s
with interpreter start-up. The slowest check is the 4000-step shooting
solve of solver-behavior, with exact Newton Jacobians (about 22 ms).
oracle-equivalence integrates its two flows side by side as one paired C
rollout of 40,000 steps, in blocks of 2000: about 3.5 ms, and at its
peak it allocates 0.51 MiB (`BENCH_24.json`).
cubic-exactness, 4000 steps of the coupled C kernel that every command
runs, takes about 0.6 ms.
The frame algebra, the flow and the Hamiltonian are tested on the C
kernel's own slope rows (`tracking.particle_slopes`), the one copy of
the particle's equations; the constraint x' + y z' = 0 they must meet is
written here, once (`_constraint_defect`). A check that evaluates the
slopes, the Hamiltonian or the adjoint at random points draws them as
stacked rows and calls each library function once on all of them:
adjoint-gradient, 100 points, their 1,000 Hamiltonian probes and the
kernel's coupled rows there in both adjoint modes, takes about 0.4 ms.
grid-endpoint reads
`integrators.time_grid` directly and integrates nothing. The closed-form
flow and the references are sampled on whole time grids, one call per
grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from . import kernels
from .geometry import AdaptedState, christoffel_from_structure
from .integrators import integrate  # noqa: F401 - perfbench/spans.py rebinds checks.integrate
from .integrators import time_grid
from .particle import (
    AnalyticParams,
    analytic_constants,
    analytic_flow,
    embed,
    restricted_energy,
)
from .shooting import NewtonConfig, fd_jacobian, solve_tracking
from .tracking import (
    BENCHMARK_START,
    TrackingProblem,
    benchmark_problem,
    free_flow,
    hamiltonian,
    hamiltonian_control_gradient,
    integrate_coupled,
    particle_slopes,
    shooting_residual,
    stationary_control,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


# numpy's PCG64 (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
# Statistically Good Algorithms for Random Number Generation", HMC-CS-2014-0905):
# a 128-bit LCG with the XSL-RR output. Its multiplier, and the (state, inc)
# that numpy's default_rng(seed) starts from for each seed the checks draw.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_SEEDED = {
    11: (0x6B00D0FB170AD4F8A9BBFCF88690096E, 0x05F8AC07FFE071C3B00016928186734B),
    12: (0xD8883E496D47DFAC6CC161E471A4E179, 0x6A860436549D788743AA67DD1E6EB5AB),
    13: (0x2E398EEFA3F5CB22F45B8960EE5DBEC5, 0xEEF1E9B02330DA2FA1B4EFAB0CF5E63F),
    14: (0x622F74B75CECABB7F1E40AEF25CAFB5A, 0x9E709FA6A5882D81C695F8FE19A6260D),
    15: (0x2A78399ED97CC3F3894160692F30C126, 0x7EDDFE754E9151CFBADB498956BC61A5),
}
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# BENCHMARK_START as the (q, v) start point that the closed form, `embed`
# and a TrackingProblem take
_START = AdaptedState(q=BENCHMARK_START[:3], v=BENCHMARK_START[3:])


@functools.cache
def _uniform_rows(seed, count, *blocks):
    """count rows of uniform draws from numpy's generator of seed, each row
    the columns of the blocks in order: a block (low, high, width) gives
    width columns in [low, high). Bit for bit the values of drawing, row
    after row, each block as numpy's default_rng(seed).uniform(low, high,
    width): one replayed PCG64 draw of the unit interval scaled per
    column takes the same stream and the same arithmetic. The rows are
    constants, computed once per process and read-only."""
    low = np.concatenate([np.full(w, lo, dtype=float) for lo, _, w in blocks])
    high = np.concatenate([np.full(w, hi, dtype=float) for _, hi, w in blocks])
    state, inc = _PCG64_SEEDED[seed]
    draws = []
    for _ in range(count * low.shape[0]):
        state = (state * _PCG64_MULT + inc) & _MASK128
        word, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
        word = ((word >> rot) | (word << (-rot & 63))) & _MASK64
        draws.append((word >> 11) * 2.0**-53)
    rows = low + (high - low) * np.array(draws).reshape(count, low.shape[0])
    rows.flags.writeable = False
    return rows


def _constraint_defect(x, slopes):
    """x' + y z' of the slope rows [x', y', z', ...] at the state rows x =
    [x, y, z, v1, v2]: the particle's one constraint, zero exactly when the
    velocity (x', y', z') is admissible at x. This is the spec that the
    kernel's velocity rows must meet."""
    return slopes[..., 0] + x[..., 1] * slopes[..., 2]


def check_frame_annihilation() -> CheckResult:
    x = _uniform_rows(11, 50, (-2.0, 2.0, 5))
    worst = float(np.max(np.abs(_constraint_defect(x, particle_slopes(x)))))
    return CheckResult("frame-annihilation", worst <= 1e-12, f"max residual {worst:.2e}")


def check_drift_quadratic() -> CheckResult:
    x = _uniform_rows(12, 50, (-2.0, 2.0, 5))
    a1 = particle_slopes(x)[:, 3:]
    # the same points with v doubled
    a2 = particle_slopes(np.array([1.0, 1.0, 1.0, 2.0, 2.0]) * x)[:, 3:]
    worst = float(np.max(np.abs(a2 - 4.0 * a1)))
    return CheckResult("drift-quadratic-in-v", worst <= 1e-13, f"max defect {worst:.2e}")


def check_control_additivity() -> CheckResult:
    # exact form of the additive-control contract: the kernel's controlled
    # slopes (mu = -u at eps = 1) == drift + u bitwise; the subtracted form
    # (a+u)-a re-rounds, so it gets 1e-15
    rows = _uniform_rows(13, 50, (-2.0, 2.0, 5), (-3.0, 3.0, 2))
    x, u = rows[:, :5], rows[:, 5:]
    drift = particle_slopes(x)[:, 3:]
    lhs = particle_slopes(x, u)[:, 3:]
    ok = bool(np.all(lhs == drift + u))
    ok = ok and bool(np.all(particle_slopes(x, np.zeros_like(u))[:, 3:] == drift))
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
    return kernels.rollout_reduced(np.array(BENCHMARK_START), 4.0 / 4000, 4000)


def check_energy_conservation() -> CheckResult:
    states = _reduced_rollout_default()
    e = restricted_energy(states)
    drift = float(np.max(np.abs(e - e[0])) / abs(e[0]))
    return CheckResult("energy-conservation", drift <= 1e-10, f"relative drift {drift:.2e}")


def check_v1_constant() -> CheckResult:
    states = _reduced_rollout_default()
    drift = float(np.max(np.abs(states[:, 3] - states[0, 3])))
    return CheckResult("v1-constant", drift <= 1e-12, f"drift {drift:.2e}")


def check_oracle_equivalence() -> CheckResult:
    # 40,000 steps of the paired flow [reduced | unreduced] as 20 rollouts
    # of 2000, each from the last row of the one before: neither rhs reads
    # its half-grid index, so the rows are those of one 40,000-step rollout
    # of each flow bit for bit, and the running maxima are exact, without
    # holding a whole 40,001-row table
    x0 = np.array(BENCHMARK_START)
    n, block = 40000, 2000
    h = 4.0 / n
    states = np.concatenate([x0, embed(_START)])[None]
    gap = ambient_drift = 0.0
    for _ in range(n // block):
        states = kernels.rollout_paired(states[-1], h, block)
        # transposed, so each column is contiguous: rows 0-4 are the reduced
        # (x, y, z, v1, v2), rows 5-10 the unreduced (x, y, z, vx, vy, vz)
        cols = states.T.copy()
        drift = float(np.max(np.abs(cols[8] + cols[6] * cols[10])))
        ambient_drift = max(ambient_drift, drift)
        # the unreduced rows project to (x, y, z, vy, vz)
        gap = max(gap, float(np.max(np.abs(cols[[5, 6, 7, 9, 10]] - cols[:5]))))
    ok = gap <= 1e-6 and ambient_drift <= 1e-10
    return CheckResult(
        "oracle-equivalence", ok, f"flow gap {gap:.2e}, constraint drift {ambient_drift:.2e}"
    )


def check_branch_continuity() -> CheckResult:
    times = np.linspace(0.0, 4.0, 401)
    a = analytic_flow(AnalyticParams(c1=1e-8, c2=0.7, x0=0.3, y0=0.4, z0=-0.2), times)
    b = analytic_flow(AnalyticParams(c1=0.0, c2=0.7, x0=0.3, y0=0.4, z0=-0.2), times)
    worst = float(np.max(np.abs(a - b)))
    return CheckResult("branch-continuity", worst <= 1e-5, f"max branch gap {worst:.2e}")


def check_flow_ode_residual() -> CheckResult:
    p = analytic_constants(_START)
    fd = 1e-6
    times = np.linspace(0.05, 3.95, 25)
    sm = analytic_flow(p, times - fd)
    sp = analytic_flow(p, times + fd)
    ds = (sp - sm) / (2.0 * fd)
    worst = float(np.max(np.abs(ds - particle_slopes(analytic_flow(p, times)))))
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


def _cubic_flow(adjoint_mode: str = "derived"):
    """The C kernel's coupled rollout of the cubic-exactness check. From
    the start (x0, 0, 0; 0, 0) with lam(0) = (1, 0, 0), mu(0) = 0, against
    the reference q_r(t) = (x0 + 3t^2 - 2t + 0.5, 0, 0), v_r = 0, every
    coupled row but lam1 stays at its start in either adjoint mode, and
    lam1' = x_r(t) - x0, so lam1(t) = t^3 - t^2 + 0.5t + 1."""
    x0 = 0.5

    def reference(t):
        t = np.asarray(t, dtype=float)
        rows = np.zeros(t.shape + (5,))
        rows[..., 0] = x0 + 3.0 * t**2 - 2.0 * t + 0.5
        return rows

    s0 = AdaptedState(q=np.array([x0, 0.0, 0.0]), v=np.zeros(2))
    prob = TrackingProblem(
        ref=reference, epsilon=7.0, T=4.0, s0=s0, N=4000, adjoint_mode=adjoint_mode
    )
    return integrate_coupled(prob, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))


def check_cubic_exactness() -> CheckResult:
    # RK4 integrates a cubic in t exactly only if the kernel reads the
    # reference at the stage rows 2i, 2i+1, 2i+1, 2i+2 of the half grid
    # and weights the stages (1, 2, 2, 1)/6
    traj = _cubic_flow()
    t = traj.times
    exact = t**3 - t**2 + 0.5 * t + 1.0
    gap = float(np.max(np.abs(traj.states[:, 5] - exact)))
    return CheckResult("cubic-exactness", gap <= 1e-12, f"max error {gap:.2e}")


def check_determinism() -> CheckResult:
    prob = benchmark_problem(N=500)
    a = shooting_residual(np.zeros(5), prob)
    b = shooting_residual(np.zeros(5), prob)
    ok = bool(np.all(a == b))
    return CheckResult("determinism", ok, "bit-identical repeat evaluation")


def check_stationarity() -> CheckResult:
    # rows [l1, l2, l3, m1, m2, eps]: the control reads only m1, m2
    rows = _uniform_rows(14, 100, (-2.0, 2.0, 5), (0.5, 10.0, 1))
    mu, eps = rows[:, 3:5], rows[:, 5:]
    u = stationary_control(mu, eps)
    g = hamiltonian_control_gradient(mu, u, eps)
    scale = np.maximum(1.0, np.max(np.abs(mu), axis=1))
    worst = float(np.max(np.max(np.abs(g), axis=1) / scale))
    return CheckResult("stationarity", worst <= 1e-15, f"max |dH/du| {worst:.2e}")


def check_adjoint_gradient() -> CheckResult:
    # the C kernel's derived costate rows == -grad H by central differences;
    # its paper-literal rows fail the same test in exactly lam2, mu1 and mu2,
    # and differ from the derived rows there by the printed terms: with
    # w = 1 + y^2 and f = y/w, m2 v1 v2 (y^2 - 1)(eps + 1)/w^2 in lam2,
    # -2 m2 f v2 in mu1 and -2 m2 f v1 in mu2; by exactly 0 elsewhere
    rows = _uniform_rows(15, 100, (-2.0, 2.0, 10), (-1.0, 1.0, 5))
    z, r = rows[:, :10], rows[:, 10:15]
    eps = 7.0
    step = 1e-6
    u = stationary_control(z[:, 8:], eps)
    # all 5 +- probes of every point in one call per sign: axis 1 is the
    # probed state coordinate, and u broadcasts over it
    e = step * np.eye(5, 10)
    h_plus = hamiltonian(z[:, None] + e, u[:, None], r[:, None], eps)
    h_minus = hamiltonian(z[:, None] - e, u[:, None], r[:, None], eps)
    grad = (h_plus - h_minus) / (2 * step)
    scale = np.maximum(1.0, np.abs(grad))
    derived = kernels.coupled_rhs(z, r, eps, False)
    literal = kernels.coupled_rhs(z, r, eps, True)

    def gap(rhs):
        return np.abs(rhs[:, 5:] + grad) / scale

    worst = float(np.max(gap(derived)))
    literal_bad = np.any(gap(literal) > 1e-5, axis=0)
    names = ("lam1", "lam2", "lam3", "mu1", "mu2")
    bad_rows = [name for name, bad in zip(names, literal_bad) if bad]
    y, v1, v2, m2 = z[:, 1], z[:, 3], z[:, 4], z[:, 9]
    w = 1.0 + y * y
    f = y / w
    printed = np.zeros_like(derived)
    printed[:, 6] = m2 * v1 * v2 * (y * y - 1.0) * (eps + 1.0) / (w * w)
    printed[:, 8] = -2.0 * m2 * f * v2
    printed[:, 9] = -2.0 * m2 * f * v1
    off = np.abs(literal - derived - printed) / np.maximum(1.0, np.abs(printed))
    printed_ok = bool(np.all(off[:, [6, 8, 9]] <= 1e-12) and np.all(np.delete(off, [6, 8, 9], axis=1) == 0.0))
    return CheckResult(
        "adjoint-gradient",
        worst <= 1e-8 and bad_rows == ["lam2", "mu1", "mu2"] and printed_ok,
        f"max relative gap {worst:.2e}, paper-literal fails rows {','.join(bad_rows) or 'none'}",
    )


def check_constraint_invariance() -> CheckResult:
    prob = benchmark_problem(N=2000)
    traj = integrate_coupled(prob, np.array([0.1, -0.2, 0.3, 0.05, -0.4]))
    x = traj.states[::50, :5]
    defect = float(np.max(np.abs(_constraint_defect(x, particle_slopes(x)))))
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
    prob = TrackingProblem(ref=free_flow(_START), epsilon=7.0, T=4.0, s0=_START)
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
