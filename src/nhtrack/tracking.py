"""Optimal trajectory tracking as a two-point boundary-value problem.

The tracked system follows the controlled reduced dynamics; the cost
penalizes position error, velocity error, and control effort (weight
epsilon), plus a weighted terminal error (weight omega). Minimizing the
pointwise Hamiltonian eliminates the control (u = -mu/epsilon), leaving a
coupled state-costate flow whose unknown initial costate alpha is fixed by
a terminal residual; root-finding on that residual lives in `shooting`.

Two adjoint variants are provided. 'derived' integrates the exact
negative gradient of the Hamiltonian (finite-difference checked by the
adjoint-gradient check in `checks`); 'paper-literal' integrates the
particle's costate equations in their as-printed form, which differs from
the gradient in three terms and is kept for side-by-side comparison.

A TrackingProblem is built for the bundled particle only, and its
rollouts run the particle's C RK4 kernel. `coupled_field` and
`adjoint_field` are generic in the system: with `integrators.integrate`
they are the oracle the kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Tuple, Union

import numpy as np

from . import kernels
from .errors import ContractError, DomainError, SingularProblemError
from .geometry import (
    AdaptedState,
    NonholonomicSystem,
    admissible_velocity,
    controlled_acceleration,
)
from .integrators import Trajectory, time_grid
from .integrators import integrate  # noqa: F401 - perfbench/spans.py rebinds tracking.integrate
from .particle import analytic_constants, analytic_flow, particle_system

Array = np.ndarray
RefSample = Tuple[Array, Array]

ADJOINT_MODES = ("derived", "paper-literal")

KIND_LINE = "builtin-constant-z-line"
KIND_FREE_FLOW = "free-flow"
KIND_TABULATED = "tabulated"


@dataclass(frozen=True)
class Costate:
    """Multipliers conjugate to the base point (lam, n) and fiber (mu, k)."""

    lam: Array
    mu: Array

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))


@dataclass(frozen=True)
class CoupledState:
    """State plus costate, flattened as [q, v, lam, mu] for integration."""

    s: AdaptedState
    p: Costate

    def flatten(self) -> Array:
        return np.concatenate([self.s.q, self.s.v, self.p.lam, self.p.mu])

    @classmethod
    def from_flat(cls, z: Array, n: int, k: int) -> "CoupledState":
        z = np.asarray(z, dtype=float)
        if z.shape != (2 * (n + k),):
            raise ContractError(f"flat coupled state must have length {2 * (n + k)}")
        return cls(
            s=AdaptedState(q=z[:n], v=z[n : n + k]),
            p=Costate(lam=z[n + k : 2 * n + k], mu=z[2 * n + k :]),
        )


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Sampled target curve t -> (q_r, v_r), with its construction kind.

    sample takes a scalar time or a 1-D array of M times. For a scalar it
    returns q_r of shape (n,) and v_r of shape (k,); for an array, (M, n)
    and (M, k), row j belonging to time j. The built-in kinds keep one
    formula that broadcasts, so a row equals the scalar sample bit for bit.
    """

    kind: str
    sample: Callable[[Union[float, Array]], RefSample]


def reference_rows(ref: ReferenceTrajectory, times: Array, n: int, k: int) -> Array:
    """Rows [q_r, v_r] of ref at a 1-D array of times, from one sample call.

    Raises DomainError, with no floating-point warning, naming the first
    time whose row is not finite, as when a large speed overflows it."""
    times = np.asarray(times, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        q_r, v_r = ref.sample(times)
    q_r = np.asarray(q_r, dtype=float)
    v_r = np.asarray(v_r, dtype=float)
    m = times.shape[0]
    if q_r.shape != (m, n) or v_r.shape != (m, k):
        raise ContractError(
            f"reference sample of {m} times gave shapes {q_r.shape}/{v_r.shape}, "
            f"expected ({m}, {n})/({m}, {k})"
        )
    rows = np.concatenate([q_r, v_r], axis=1)
    require_finite_rows(rows, times, "the reference")
    return rows


def require_finite_rows(rows: Array, times: Array, what: str) -> None:
    """Raise DomainError naming the first of times whose row of rows (one
    row per time) is not finite."""
    if not np.isfinite(rows).all():
        t = float(times[np.argmin(np.isfinite(rows).all(axis=1))])
        raise DomainError(f"{what} is not finite at t = {t!r}", t=t)


def constant_z_line(x_r: float = 1.0, z_offset: float = 1.0, speed: float = 1.0) -> ReferenceTrajectory:
    """Reference gliding along z at constant speed, pinned to y=0.

    q_r(t) = (x_r, 0, z_offset + speed*t), v_r = (0, speed). Lies on the
    particle's distribution (the constraint coupling vanishes at y=0) and
    solves its free dynamics.
    """

    def sample(t) -> RefSample:
        t = np.asarray(t, dtype=float)
        q_r = np.empty(t.shape + (3,))
        q_r[..., 0] = x_r
        q_r[..., 1] = 0.0
        q_r[..., 2] = z_offset + speed * t
        v_r = np.empty(t.shape + (2,))
        v_r[..., 0] = 0.0
        v_r[..., 1] = speed
        return q_r, v_r

    return ReferenceTrajectory(kind=KIND_LINE, sample=sample)


def free_flow(s0: AdaptedState) -> ReferenceTrajectory:
    """Reference generated by the particle's closed-form uncontrolled flow."""
    params = analytic_constants(s0)

    def sample(t) -> RefSample:
        s = analytic_flow(params, t)
        return s.q, s.v

    return ReferenceTrajectory(kind=KIND_FREE_FLOW, sample=sample)


def tabulated(times: Array, samples: Array) -> ReferenceTrajectory:
    """Reference interpolated linearly from rows (q_r, v_r) on a time grid.

    Queries outside the grid clamp to the end values. Times and samples
    must be finite.
    """
    times = np.asarray(times, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if times.ndim != 1 or samples.shape[0] != times.shape[0]:
        raise ContractError("tabulated reference needs one sample row per time")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(samples))):
        raise ContractError("tabulated reference times and samples must be finite")
    if np.any(np.diff(times) <= 0):
        raise ContractError("tabulated reference times must increase strictly")
    ncols = samples.shape[1]

    def sample(t) -> RefSample:
        rows = np.stack([np.interp(t, times, samples[:, j]) for j in range(ncols)], axis=-1)
        return rows[..., :3], rows[..., 3:]

    return ReferenceTrajectory(kind=KIND_TABULATED, sample=sample)


def reference_admissibility_defect(
    sys: NonholonomicSystem,
    ref: ReferenceTrajectory,
    times: Array,
    fd_step: float = 1e-4,
) -> float:
    """Worst kinematic defect |d/dt q_r - rho(q_r)^T v_r| over the times.

    An admissible reference curve must move its base point exactly as its
    fiber velocities dictate; this differentiates the base path centrally,
    with the step fd_step*max(1, |t|) so that t +- step stays resolvable in
    double precision at large t, and compares with `admissible_velocity`.
    The reference is sampled once per offset, at all times together. A
    non-finite defect at any time makes the result NaN, with no
    floating-point warning.
    """
    times = np.asarray(times, dtype=float)
    step = fd_step * np.maximum(1.0, np.abs(times))
    with np.errstate(over="ignore", invalid="ignore"):
        q_p, _ = ref.sample(times + step)
        q_m, _ = ref.sample(times - step)
        q_dot = (q_p - q_m) / (2.0 * step)[..., None]
        q_r, v_r = ref.sample(times)
        defect = q_dot - admissible_velocity(sys, AdaptedState(q=q_r, v=v_r))
        return float(np.max(np.abs(defect), initial=0.0))


@dataclass(frozen=True)
class TrackingProblem:
    """A complete tracking instance over a fixed horizon for the bundled
    particle: the rollouts run the particle's C RK4 kernel, so the system is
    the class constant `sys = particle_system()`, not a field.

    epsilon > 0 weights the control effort (zero is rejected: the
    stationary condition would no longer determine the control), omega > 0
    weights the terminal error; both and the horizon T must be finite. N is
    the integration step count, a Python or numpy int of at least 1, and
    the start s0 must be finite.

    full_transversality selects the terminal rows of the shooting
    residual. True (default) imposes the gradient of the terminal cost on
    both costates, lam(T) = 2*omega*(q(T)-q_r(T)) and mu(T) =
    2*omega*(v(T)-v_r(T)), which is the condition the minimization
    actually requires; the resulting trajectory matches direct transcription
    of the cost to within discretization error. False keeps the simplified
    as-printed rows lam(T) = -omega*(q(T)-q_r(T)), mu(T) = 0, whose root
    is a non-minimizing extremal kept for comparison.
    """

    sys: ClassVar[NonholonomicSystem] = particle_system()
    ref: ReferenceTrajectory
    epsilon: float
    T: float
    s0: AdaptedState
    omega: float = 1.0
    N: int = 4000
    adjoint_mode: str = "derived"
    full_transversality: bool = True

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise SingularProblemError(
                "epsilon must be finite and positive; epsilon = 0 makes the tracking "
                "problem singular (control undetermined by stationarity)"
            )
        if not 0.0 < self.omega < np.inf:
            raise ContractError("omega must be finite and positive")
        if not 0.0 < self.T < np.inf:
            raise ContractError("horizon T must be finite and positive")
        if isinstance(self.N, bool) or not isinstance(self.N, (int, np.integer)):
            raise ContractError(f"step count N must be an integer, not {self.N!r}")
        if self.N < 1:
            raise ContractError("step count N must be at least 1")
        if self.adjoint_mode not in ADJOINT_MODES:
            raise ContractError(f"adjoint_mode must be one of {ADJOINT_MODES}")
        if self.s0.q.shape != (self.sys.n,) or self.s0.v.shape != (self.sys.k,):
            raise ContractError("initial state dimensions do not match system")
        if not (np.all(np.isfinite(self.s0.q)) and np.all(np.isfinite(self.s0.v))):
            raise ContractError("initial state s0 must be finite")
        if self.ref.kind in (KIND_LINE, KIND_FREE_FLOW):
            # sample away from the endpoints so the FD probe stays in [0, T]
            probe = np.linspace(0.01 * self.T, 0.99 * self.T, 7)
            defect = reference_admissibility_defect(self.sys, self.ref, probe)
            if not defect <= 1e-6:
                raise ContractError(
                    f"reference is not an admissible curve (kinematic defect {defect:.3e})"
                )

    @property
    def h(self) -> float:
        return self.T / self.N

    @cached_property
    def times(self) -> Array:
        """The problem grid `time_grid(0, T, N)`, read-only: every trajectory
        of the problem shares this one array."""
        times = time_grid(0.0, self.T, self.N)
        times.flags.writeable = False
        return times

    @cached_property
    def _ref_table(self) -> Array:
        """Reference samples on the half grid j*(h/2), shape (2N+1, n+k)."""
        half_grid = np.arange(2 * self.N + 1) * (0.5 * self.h)
        return reference_rows(self.ref, half_grid, self.sys.n, self.sys.k)

    @cached_property
    def _ref_final(self) -> Array:
        """Reference row [q_r, v_r] at the horizon T."""
        return np.concatenate(self.ref.sample(self.T))


# ---------------------------------------------------------------------------
# Costs and Hamiltonian
# ---------------------------------------------------------------------------


def running_cost(s: AdaptedState, r: RefSample, u: Array, eps: float) -> Union[float, Array]:
    """Instantaneous cost (|q-q_r|^2 + |v-v_r|^2 + eps |u|^2) / 2, summed over
    the last axis: rows of points give one cost per row, bit for bit the
    cost of that row alone."""
    if not 0.0 < eps < np.inf:
        raise SingularProblemError("eps must be finite and positive")
    q_r, v_r = r
    u = np.asarray(u, dtype=float)
    return 0.5 * (
        np.sum((s.q - q_r) ** 2, axis=-1)
        + np.sum((s.v - v_r) ** 2, axis=-1)
        + eps * np.sum(u**2, axis=-1)
    )


def terminal_cost(sT: AdaptedState, rT: RefSample) -> float:
    """Terminal penalty |q(T)-q_r|^2 + |v(T)-v_r|^2 (no 1/2 factor)."""
    q_r, v_r = rT
    return float(np.sum((sT.q - q_r) ** 2)) + float(np.sum((sT.v - v_r) ** 2))


def hamiltonian(
    sys: NonholonomicSystem,
    s: AdaptedState,
    p: Costate,
    u: Array,
    r: RefSample,
    eps: float,
) -> Union[float, Array]:
    """Pointwise Hamiltonian: running cost plus costates paired with dynamics.

    Points may be stacked along leading axes (u of the shape of s.v; p and
    r broadcast against s): one value per point, bit for bit the value of
    that point alone."""
    qdot = admissible_velocity(sys, s)
    vdot = controlled_acceleration(sys, s, u)
    return (
        running_cost(s, r, u, eps)
        + np.einsum("...i,...i->...", p.lam, qdot)
        + np.einsum("...a,...a->...", p.mu, vdot)
    )


def stationary_control(p: Costate, eps) -> Array:
    """Control minimizing the Hamiltonian: u = -mu/eps (exact quadratic).

    eps is a scalar or an array broadcastable against mu, such as one
    weight per row of stacked costates; every entry must be finite and
    positive."""
    eps = np.asarray(eps, dtype=float)
    if not np.all((0.0 < eps) & (eps < np.inf)):
        raise SingularProblemError(
            "eps must be finite and positive: the stationary condition degenerates "
            "at eps = 0"
        )
    return -p.mu / eps


def hamiltonian_control_gradient(p: Costate, u: Array, eps) -> Array:
    """Gradient of the Hamiltonian in the control: eps*u + mu, with eps a
    scalar or an array broadcastable against mu."""
    return eps * np.asarray(u, dtype=float) + p.mu


# ---------------------------------------------------------------------------
# Adjoint equations
# ---------------------------------------------------------------------------


def _adjoint_derived(
    sys: NonholonomicSystem, s: AdaptedState, p: Costate, r: RefSample
) -> Costate:
    q, v = s.q, s.v
    q_r, v_r = r
    rho = sys.rho(q)
    gam = sys.gamma(q)
    d_rho = sys.d_rho(q)
    d_gam = sys.d_gamma(q)
    # dH/dq_j = (q-q_r)_j + lam_i d_rho[A,i,j] v^A - mu_C d_gam[C,A,B,j] v^A v^B
    dH_dq = (
        (q - q_r)
        + np.einsum("...i,...aij,...a->...j", p.lam, d_rho, v)
        - np.einsum("...c,...cabj,...a,...b->...j", p.mu, d_gam, v, v)
    )
    # dH/dv_A = (v-v_r)_A + lam_i rho[A,i] - mu_C (gam[C,A,B] + gam[C,B,A]) v^B
    dH_dv = (
        (v - v_r)
        + np.einsum("...ai,...i->...a", rho, p.lam)
        - np.einsum("...c,...cab,...b->...a", p.mu, gam + np.swapaxes(gam, -1, -2), v)
    )
    return Costate(lam=-dH_dq, mu=-dH_dv)


def _adjoint_paper_literal(
    s: AdaptedState, p: Costate, r: RefSample, eps: float
) -> Costate:
    x, y, z = np.moveaxis(s.q, -1, 0)
    v1, v2 = np.moveaxis(s.v, -1, 0)
    l1, l2, l3 = np.moveaxis(p.lam, -1, 0)
    m1, m2 = np.moveaxis(p.mu, -1, 0)
    q_r, v_r = (np.moveaxis(np.asarray(a, dtype=float), -1, 0) for a in r)
    w = 1.0 + y * y
    f = y / w
    lam_dot = [
        -(x - q_r[0]),
        l1 * v2 - (y - q_r[1]) + eps * v1 * v2 * m2 * (y * y - 1.0) / (w * w),
        -(z - q_r[2]),
    ]
    mu_dot = [
        -l2 - (v1 - v_r[0]) - m2 * f * v2,
        -l3 + l1 * y - (v2 - v_r[1]) - m2 * f * v1,
    ]
    return Costate(
        lam=np.stack(np.broadcast_arrays(*lam_dot), axis=-1),
        mu=np.stack(np.broadcast_arrays(*mu_dot), axis=-1),
    )


def adjoint_field(
    sys: NonholonomicSystem,
    s: AdaptedState,
    p: Costate,
    r: RefSample,
    eps: float,
    mode: str = "derived",
) -> Costate:
    """Costate time derivative (lam_dot, mu_dot).

    'derived' evaluates -(dH/dq, dH/dv) with the control held at its
    stationary value (whose sensitivity drops out since dH/du = 0 there).
    'paper-literal' is the as-printed variant for the bundled particle;
    it deviates from the gradient in the lam_2 coupling term (an extra
    eps factor and an opposite sign) and in the sign of both mu coupling
    terms. Points may be stacked along leading axes, as for
    `hamiltonian`: one row per point.
    """
    if mode == "derived":
        return _adjoint_derived(sys, s, p, r)
    if mode == "paper-literal":
        return _adjoint_paper_literal(s, p, r, eps)
    raise ContractError(f"unknown adjoint mode {mode!r}")


# ---------------------------------------------------------------------------
# Coupled flow, shooting residual, cost reporting
# ---------------------------------------------------------------------------


def coupled_field(t: float, z: Array, prob: TrackingProblem) -> Array:
    """Right-hand side of the combined state-costate system, flat layout."""
    n, k = prob.sys.n, prob.sys.k
    cs = CoupledState.from_flat(z, n, k)
    u = stationary_control(cs.p, prob.epsilon)
    r = prob.ref.sample(t)
    qdot = admissible_velocity(prob.sys, cs.s)
    vdot = controlled_acceleration(prob.sys, cs.s, u)
    pdot = adjoint_field(prob.sys, cs.s, cs.p, r, prob.epsilon, prob.adjoint_mode)
    return np.concatenate([qdot, vdot, pdot.lam, pdot.mu])


def _kernel_args(prob: TrackingProblem, alpha: Array) -> tuple:
    """Arguments of the coupled C kernels for the flow from (s0, alpha)."""
    alpha = np.asarray(alpha, dtype=float)
    n, k = prob.sys.n, prob.sys.k
    if alpha.shape != (n + k,):
        raise ContractError(f"alpha must have length {n + k}")
    z0 = np.concatenate([prob.s0.q, prob.s0.v, alpha])
    literal = prob.adjoint_mode == "paper-literal"
    return z0, prob.h, prob.N, prob._ref_table, prob.epsilon, literal


def integrate_coupled(prob: TrackingProblem, alpha: Array) -> Trajectory:
    """Flow of the coupled system from (s0, alpha) over [0, T], by the
    particle's C RK4 kernel (`coupled_field` is its generic oracle)."""
    states = kernels.rollout_coupled(*_kernel_args(prob, alpha))
    return Trajectory(times=prob.times, states=states)


def shooting_residual(alpha: Array, prob: TrackingProblem) -> Array:
    """Terminal defect of the coupled flow started at costate alpha: the
    rows of `_terminal_rows` at z(T), against the reference at T."""
    traj = integrate_coupled(prob, alpha)
    return residual_from_trajectory(traj, prob)


def _terminal_rows(prob: TrackingProblem, z: Array, ref=0.0) -> Array:
    """Transversality rows of the coupled state z = [q, v, lam, mu] at T
    against the reference row ref = [q_r, v_r]: lam - 2*omega*(q - q_r) and
    mu - 2*omega*(v - v_r) with full_transversality, else
    lam + omega*(q - q_r) and mu. Given a block dz/dalpha and the default
    zero reference, the same affine map gives the Jacobian rows
    (subtracting 0.0 changes no value). Raises DomainError, with no
    floating-point warning, when a row is not finite, as when a large
    omega overflows it."""
    n, d = prob.sys.n, prob.sys.n + prob.sys.k
    w = prob.omega
    with np.errstate(over="ignore", invalid="ignore"):
        err = z[:d] - ref
        if prob.full_transversality:
            rows = z[d:] - 2.0 * w * err
        else:
            rows = np.concatenate([z[d : d + n] + w * err[:n], z[d + n :]])
    if not np.isfinite(rows).all():
        raise DomainError(f"the transversality rows are not finite (omega = {w:g})")
    return rows


def residual_from_trajectory(traj: Trajectory, prob: TrackingProblem) -> Array:
    """Assemble the shooting residual from an already-integrated flow."""
    return _terminal_rows(prob, traj.final_state(), prob._ref_final)


def shooting_jacobian(prob: TrackingProblem, alpha: Array) -> Array:
    """Exact Jacobian dr/dalpha of the shooting residual of the discrete flow.

    alpha is the last n+k entries of the kernel's start z0 (`_kernel_args`),
    so the sensitivity S = dz/dalpha starts as [0; I]. One rollout advances
    it to S_N = dz_N/dalpha (`kernels.rollout_coupled`), and
    `_terminal_rows` maps it as it maps z_N in the residual. Raises
    DomainError when the flow or the Jacobian rows are not finite.
    """
    d = prob.sys.n + prob.sys.k
    S = np.eye(2 * d, d, -d)
    kernels.rollout_coupled(*_kernel_args(prob, alpha), sens=S)
    return _terminal_rows(prob, S)


def controls_along(traj: Trajectory, prob: TrackingProblem) -> Array:
    """Stationary control -mu/eps recovered at every grid point."""
    n, k = prob.sys.n, prob.sys.k
    p = Costate(lam=traj.states[:, n + k : 2 * n + k], mu=traj.states[:, 2 * n + k :])
    return stationary_control(p, prob.epsilon)


def _cost(prob: TrackingProblem, times: Array, body: Array, u: Array) -> float:
    """Composite-trapezoid running cost of the rows body = [q, v] with
    controls u on the problem grid, plus the omega-weighted terminal cost.

    `running_cost` evaluates all rows at once. times must equal the
    problem grid `prob.times`; the reference is read from the half-grid
    table, whose even rows are the grid times.
    """
    n = prob.sys.n
    if times is not prob.times and not np.array_equal(times, prob.times):
        raise ContractError("cost is evaluated on the problem's time grid only")
    ref = prob._ref_table[::2]
    s = AdaptedState(q=body[:, :n], v=body[:, n:])
    values = running_cost(s, (ref[:, :n], ref[:, n:]), u, prob.epsilon)
    integral = float(np.trapezoid(values, times))
    sT = AdaptedState(q=body[-1, :n], v=body[-1, n:])
    ref_T = prob._ref_final
    return integral + prob.omega * terminal_cost(sT, (ref_T[:n], ref_T[n:]))


def total_cost(traj: Trajectory, prob: TrackingProblem) -> float:
    """Composite-trapezoid running cost along a coupled trajectory plus
    the omega-weighted terminal cost."""
    n, k = prob.sys.n, prob.sys.k
    return _cost(prob, traj.times, traj.states[:, : n + k], controls_along(traj, prob))


def uncontrolled_trajectory(prob: TrackingProblem) -> Trajectory:
    """Free (u = 0) flow of the state alone from s0 on the problem grid."""
    x0 = np.concatenate([prob.s0.q, prob.s0.v])
    states = kernels.rollout_reduced(x0, prob.h, prob.N)
    return Trajectory(times=prob.times, states=states)


def uncontrolled_cost(prob: TrackingProblem) -> float:
    """Cost of simply letting the system drift (u = 0) from s0."""
    traj = uncontrolled_trajectory(prob)
    return _cost(prob, traj.times, traj.states, np.zeros((prob.N + 1, prob.sys.k)))


def benchmark_problem(
    epsilon: float = 7.0,
    omega: float = 1.0,
    T: float = 4.0,
    N: int = 4000,
    adjoint_mode: str = "derived",
    full_transversality: bool = True,
) -> TrackingProblem:
    """The bundled benchmark: particle from ((0.5, 0.2, 0.7), (0.5, 0.4))
    tracking the constant-z-line reference (1, 0, t+1, 0, 1)."""
    return TrackingProblem(
        ref=constant_z_line(x_r=1.0, z_offset=1.0, speed=1.0),
        epsilon=epsilon,
        omega=omega,
        T=T,
        s0=AdaptedState(q=np.array([0.5, 0.2, 0.7]), v=np.array([0.5, 0.4])),
        N=N,
        adjoint_mode=adjoint_mode,
        full_transversality=full_transversality,
    )
