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
rollouts run the particle's C RK4 kernel. The kernel's coupled
right-hand side is the one copy of the costate equations;
`kernels.coupled_rhs` evaluates it at stacked rows. `tests/oracles.py`
derives it, and the kernel's Jacobian, with sympy.

The costs, the Hamiltonian and the stationary control read the kernels'
row layout, stacked along leading axes: the coupled rows
z = [x, y, z, v1, v2, l1, l2, l3, m1, m2] of `hamiltonian`, the state
rows [x, y, z, v1, v2] of the costs (the layout of the references too),
and the fiber-costate rows [m1, m2] of the control. So a trajectory's
rows go in as slices, with no wrapping. An `AdaptedState` (q, v) is only
a start point. The Hamiltonian pairs the costates with the C kernel's own
slopes (`particle_slopes`): no Python copy of the equations is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from . import kernels
from .errors import ContractError, DomainError, SingularProblemError
from .geometry import AdaptedState
from .integrators import Trajectory, time_grid
from .integrators import integrate  # noqa: F401 - perfbench/spans.py rebinds tracking.integrate
from .particle import analytic_constants, analytic_flow

Array = np.ndarray
# A reference: time t -> rows [x_r, y_r, z_r, v1_r, v2_r], the layout of the
# kernels' states. A scalar t gives shape (5,) and M times give (M, 5); the
# built-in kinds keep one formula that broadcasts, so a row equals the
# scalar result bit for bit.
Reference = Callable[[Union[float, Array]], Array]

ADJOINT_MODES = ("derived", "paper-literal")

# The start [x, y, z, v1, v2] of the bundled benchmark, the paper's: the
# default of `benchmark_problem`, of the CLI's initial_state and of the
# checks that integrate from it.
BENCHMARK_START = (0.5, 0.2, 0.7, 0.5, 0.4)


def reference_rows(ref: Reference, times: Array) -> Array:
    """Rows [q_r, v_r] of ref at a 1-D array of M times, (M, 5), from one call.

    Raises ContractError when the call gives anything but an (M, 5) array
    of numbers, and DomainError, with no floating-point warning, naming
    the first time whose row is not finite, as when a large speed
    overflows it."""
    times = np.asarray(times, dtype=float)
    m = times.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = ref(times)
    try:
        rows = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as err:
        # such as a (q_r, v_r) pair, whose two parts numpy cannot stack
        raise ContractError(
            f"reference sample of {m} times is not an ({m}, 5) array of numbers: {err}"
        ) from None
    if rows.shape != (m, 5):
        raise ContractError(
            f"reference sample of {m} times gave shape {rows.shape}, expected ({m}, 5)"
        )
    require_finite_rows(rows, times, "the reference")
    return rows


def require_finite_rows(rows: Array, times: Array, what: str) -> None:
    """Raise DomainError naming the first of times whose row of rows (one
    row per time) is not finite."""
    if not np.isfinite(rows).all():
        t = float(times[np.argmin(np.isfinite(rows).all(axis=1))])
        raise DomainError(f"{what} is not finite at t = {t!r}", t=t)


def constant_z_line(x_r: float = 1.0, z_offset: float = 1.0, speed: float = 1.0) -> Reference:
    """Reference gliding along z at constant speed, pinned to y=0.

    q_r(t) = (x_r, 0, z_offset + speed*t), v_r = (0, speed). Lies on the
    particle's distribution (the constraint coupling vanishes at y=0) and
    solves its free dynamics.
    """

    def reference(t) -> Array:
        t = np.asarray(t, dtype=float)
        rows = np.empty(t.shape + (5,))
        rows[..., 0] = x_r
        rows[..., 1] = 0.0
        rows[..., 2] = z_offset + speed * t
        rows[..., 3] = 0.0
        rows[..., 4] = speed
        return rows

    return reference


def free_flow(s0: AdaptedState) -> Reference:
    """Reference generated by the particle's closed-form uncontrolled flow."""
    params = analytic_constants(s0)
    return lambda t: analytic_flow(params, t)


def tabulated(times: Array, samples: Array) -> Reference:
    """Reference interpolated linearly from rows (q_r, v_r) on a time grid.

    samples is an (M, 5) table, one row (x, y, z, v1, v2) per time, with
    M >= 1. Queries outside the grid clamp to the end values. Times and
    samples must be finite.
    """
    times = np.asarray(times, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 5:
        raise ContractError(
            f"tabulated reference needs an (M, 5) table of rows (x, y, z, v1, v2), "
            f"not shape {samples.shape}"
        )
    if times.ndim != 1 or samples.shape[0] != times.shape[0]:
        raise ContractError("tabulated reference needs one sample row per time")
    if times.shape[0] == 0:
        raise ContractError("tabulated reference needs at least one sample row")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(samples))):
        raise ContractError("tabulated reference times and samples must be finite")
    if np.any(np.diff(times) <= 0):
        raise ContractError("tabulated reference times must increase strictly")
    return lambda t: np.stack([np.interp(t, times, column) for column in samples.T], axis=-1)


@dataclass(frozen=True)
class TrackingProblem:
    """A complete tracking instance over a fixed horizon for the bundled
    particle: the rollouts run the particle's C RK4 kernel, whose row
    layout fixes the dimensions, 3 positions and 5 state entries.

    epsilon > 0 weights the control effort (zero is rejected: the
    stationary condition would no longer determine the control), omega > 0
    weights the terminal error; both and the horizon T must be finite. N is
    the integration step count, a Python or numpy int of at least 1, and
    the start s0 must be finite. The reference is sampled once, on the half
    grid j*(h/2) of the RK4 stages (`_ref_table`), at construction: a
    result other than (2N+1, 5) rows raises ContractError and a row that is not
    finite raises DomainError, whatever built the reference.

    full_transversality selects the terminal rows of the shooting
    residual. True (default) imposes the gradient of the terminal cost on
    both costates, lam(T) = 2*omega*(q(T)-q_r(T)) and mu(T) =
    2*omega*(v(T)-v_r(T)), which is the condition the minimization
    actually requires. (No code in the repository compares the resulting
    trajectory with a direct transcription of the cost yet.) False keeps
    the simplified as-printed rows lam(T) = -omega*(q(T)-q_r(T)),
    mu(T) = 0, whose root is a non-minimizing extremal kept for
    comparison.
    """

    ref: Reference
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
        if self.s0.q.shape != (3,) or self.s0.v.shape != (2,):
            raise ContractError("initial state dimensions do not match system")
        if not (np.all(np.isfinite(self.s0.q)) and np.all(np.isfinite(self.s0.v))):
            raise ContractError("initial state s0 must be finite")
        self._ref_table  # a mis-shaped or non-finite reference raises here

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
        """Reference rows on the half grid j*(h/2), shape (2N+1, 5)."""
        half_grid = time_grid(0.0, self.T, 2 * self.N)
        return reference_rows(self.ref, half_grid)

    @property
    def _ref_final(self) -> Array:
        """Reference row [q_r, v_r] at the horizon: the last row of the
        validated `_ref_table`, so the reference is sampled once. Its time
        (T/2N)*2N equals T for T in {1, 2, 3, 4, 8, 12} and every N up to
        4000 that is 1, 2, 4 or 5 times a power of ten; at other (T, N) it
        is within one ulp of T."""
        return self._ref_table[-1]


# ---------------------------------------------------------------------------
# Costs and Hamiltonian
# ---------------------------------------------------------------------------


def _positive_weight(eps) -> Array:
    """eps as a float array; every entry must be finite and positive."""
    eps = np.asarray(eps, dtype=float)
    if not np.all((0.0 < eps) & (eps < np.inf)):
        raise SingularProblemError(
            "eps must be finite and positive: the stationary condition degenerates "
            "at eps = 0"
        )
    return eps


def running_cost(x: Array, r: Array, u: Array, eps) -> Union[float, Array]:
    """Instantaneous cost (|q-q_r|^2 + |v-v_r|^2 + eps |u|^2) / 2 of the
    state rows x = [q, v] against the reference rows r = [q_r, v_r], both
    [x, y, z, v1, v2], summed over the last axis: stacked rows give one
    cost per row, bit for bit the cost of that row alone.

    eps is a scalar or one weight per point, of u's leading shape
    u.shape[:-1]. Any other shape, which would change the result's shape
    or not broadcast at all, raises ContractError."""
    eps = _positive_weight(eps)
    u = np.asarray(u, dtype=float)
    if eps.ndim and eps.shape != u.shape[:-1]:
        raise ContractError(
            f"eps of shape {eps.shape} is neither a scalar nor one weight per "
            f"point of the controls {u.shape}"
        )
    e = x - r
    return 0.5 * (
        np.sum(e[..., :3] ** 2, axis=-1)
        + np.sum(e[..., 3:] ** 2, axis=-1)
        + eps * np.sum(u**2, axis=-1)
    )


def terminal_cost(xT: Array, rT: Array) -> float:
    """Terminal penalty |q(T)-q_r|^2 + |v(T)-v_r|^2 (no 1/2 factor) of the
    state row xT = [q, v] against the reference row rT = [q_r, v_r]."""
    e = xT - rT
    return float(np.sum(e[:3] ** 2)) + float(np.sum(e[3:] ** 2))


def particle_slopes(x: Array, u: Optional[Array] = None) -> Array:
    """Slopes [qdot, vdot] of the particle at the state rows x = [q, v],
    (..., 5), stacked along leading axes: the first five columns of the C
    kernel's coupled right-hand side at lam = 0. With no u, mu = 0 and they
    are the free flow [qdot, drift]; with controls u, which broadcast
    against x[..., 3:], mu = -u at eps = 1, so the kernel's control
    -mu/eps is u exactly and they are [qdot, drift + u]."""
    x = np.asarray(x, dtype=float)
    z = np.zeros(x.shape[:-1] + (10,))
    z[..., :5] = x
    if u is not None:
        z[..., 8:] = -np.asarray(u, dtype=float)
    z = z.reshape(-1, 10)
    slopes = kernels.coupled_rhs(z, np.zeros((z.shape[0], 5)), 1.0, False)[:, :5]
    return slopes.reshape(x.shape)


def hamiltonian(z: Array, u: Array, r: Array, eps) -> Union[float, Array]:
    """Pointwise Hamiltonian: running cost + lam . qdot + mu . (drift + u),
    with [qdot, drift] the kernel's free slopes (`particle_slopes`).

    z holds the coupled rows [q, v, lam, mu] of the kernels, (..., 10), and
    r the reference rows [q_r, v_r]. Rows may be stacked along leading
    axes, and u (..., 2) and r broadcast against z: one value per point,
    bit for bit the value of that point alone."""
    slopes = particle_slopes(z[..., :5])
    return (
        running_cost(z[..., :5], r, u, eps)
        + np.einsum("...i,...i->...", z[..., 5:8], slopes[..., :3])
        + np.einsum("...a,...a->...", z[..., 8:], slopes[..., 3:] + u)
    )


def stationary_control(mu: Array, eps) -> Array:
    """Control minimizing the Hamiltonian: u = -mu/eps (exact quadratic), for
    fiber-costate rows mu = [m1, m2].

    eps is a scalar or an array broadcastable against mu, such as one
    weight per row of stacked costates; every entry must be finite and
    positive."""
    return -mu / _positive_weight(eps)


def hamiltonian_control_gradient(mu: Array, u: Array, eps) -> Array:
    """Gradient of the Hamiltonian in the control: eps*u + mu, for
    fiber-costate rows mu = [m1, m2], with eps a scalar or an array
    broadcastable against mu."""
    return eps * np.asarray(u, dtype=float) + mu


# ---------------------------------------------------------------------------
# Coupled flow, shooting residual, cost reporting
# ---------------------------------------------------------------------------


def _kernel_args(prob: TrackingProblem, alpha: Array) -> tuple:
    """Arguments of the coupled C kernels for the flow from (s0, alpha)."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (5,):
        raise ContractError("alpha must have length 5")
    z0 = np.concatenate([prob.s0.q, prob.s0.v, alpha])
    literal = prob.adjoint_mode == "paper-literal"
    return z0, prob.h, prob.N, prob._ref_table, prob.epsilon, literal


def integrate_coupled(prob: TrackingProblem, alpha: Array) -> Trajectory:
    """Flow of the coupled system from (s0, alpha) over [0, T], by the
    particle's C RK4 kernel."""
    states = kernels.rollout_coupled(*_kernel_args(prob, alpha))
    return Trajectory(times=prob.times, states=states)


def shooting_residual(alpha: Array, prob: TrackingProblem) -> Array:
    """Terminal defect of the coupled flow started at costate alpha: the
    rows of `_terminal_rows` at z(T), against the reference at T."""
    traj = integrate_coupled(prob, alpha)
    return residual_from_trajectory(traj, prob)


def _terminal_rows(prob: TrackingProblem, z: list, ref: list) -> list:
    """Transversality rows of the coupled state z = [q, v, lam, mu] at T
    against the reference row ref = [q_r, v_r], both lists of Python
    floats: lam - (2*omega)*(q - q_r) and mu - (2*omega)*(v - v_r) with
    full_transversality, else lam + omega*(q - q_r) and mu.

    z may also be a block dz/dalpha of m columns, flattened row by row,
    with ref m zeros per row: the same map then gives the Jacobian rows,
    flattened likewise (subtracting 0.0 changes no value). Each row takes
    the IEEE operations numpy would take on the stacked arrays, in the
    same order, so it equals numpy's bit for bit. Raises DomainError, with
    no floating-point warning, when a row is not finite, as when a large
    omega overflows it."""
    m = len(ref) // 5
    n, d = 3 * m, len(ref)
    w = prob.omega
    if prob.full_transversality:
        w2 = 2.0 * w
        rows = [p - w2 * (x - r) for x, p, r in zip(z[:d], z[d:], ref)]
    else:
        rows = [p + w * (x - r) for x, p, r in zip(z[:n], z[d : d + n], ref)] + z[d + n :]
    if not all(map(math.isfinite, rows)):
        raise DomainError(f"the transversality rows are not finite (omega = {w:g})")
    return rows


def residual_from_trajectory(traj: Trajectory, prob: TrackingProblem) -> Array:
    """Assemble the shooting residual from an already-integrated flow."""
    return np.array(_terminal_rows(prob, traj.final_state().tolist(), prob._ref_final.tolist()))


def shooting_maps(prob: TrackingProblem, alpha0: Array) -> tuple:
    """The shooting residual and its exact Jacobian as maps of alpha, for
    `shooting.newton_solve`, with the kernel arguments checked once.

    alpha0's length is checked, and the start head s0, the adjoint flag
    and the reference table are read, once here (`_kernel_args`), not per
    call; each map takes an alpha of alpha0's length. Each map makes one
    `kernels.rollout_coupled` call, looked up at call time, and returns
    the rows of `_terminal_rows` as Python floats: the residual as a list,
    the Jacobian as a list of rows. The Jacobian is that of the discrete
    flow: alpha is the last 5 entries of the kernel's start z0, so the
    sensitivity S = dz/dalpha starts as [0; I], the rollout advances it to
    S_N = dz_N/dalpha, and `_terminal_rows` maps S_N as it maps z_N. Both
    maps raise DomainError when the flow or their rows are not finite.
    """
    z0, h, N, ref_half, eps, literal = _kernel_args(prob, alpha0)
    d = 5  # entries of a state row, and of alpha
    head = z0[:d]
    ref_final = prob._ref_final.tolist()
    zero = [0.0] * (d * d)

    def residual(alpha: Array) -> list:
        states = kernels.rollout_coupled(np.concatenate((head, alpha)), h, N, ref_half, eps, literal)
        return _terminal_rows(prob, states[-1].tolist(), ref_final)

    def jacobian(alpha: Array) -> list:
        S = np.eye(2 * d, d, -d)
        kernels.rollout_coupled(np.concatenate((head, alpha)), h, N, ref_half, eps, literal, sens=S)
        flat = _terminal_rows(prob, S.ravel().tolist(), zero)
        return [flat[i : i + d] for i in range(0, d * d, d)]

    return residual, jacobian


def controls_along(traj: Trajectory, prob: TrackingProblem) -> Array:
    """Stationary control -mu/eps recovered at every grid point."""
    return stationary_control(traj.states[:, 8:], prob.epsilon)


def _cost(prob: TrackingProblem, body: Array, u: Array) -> float:
    """Composite-trapezoid running cost of the state rows body = [q, v]
    with controls u on the problem grid `prob.times`, plus the
    omega-weighted terminal cost.

    `running_cost` evaluates all rows at once; the reference is read from
    the half-grid table, whose even rows are the grid times.
    """
    values = running_cost(body, prob._ref_table[::2], u, prob.epsilon)
    integral = float(np.trapezoid(values, prob.times))
    return integral + prob.omega * terminal_cost(body[-1], prob._ref_final)


def total_cost(traj: Trajectory, prob: TrackingProblem) -> float:
    """Composite-trapezoid running cost along a coupled trajectory plus
    the omega-weighted terminal cost. The trajectory must lie on the
    problem grid."""
    if traj.times is not prob.times and not np.array_equal(traj.times, prob.times):
        raise ContractError("cost is evaluated on the problem's time grid only")
    return _cost(prob, traj.states[:, :5], controls_along(traj, prob))


def uncontrolled_trajectory(prob: TrackingProblem) -> Trajectory:
    """Free (u = 0) flow of the state alone from s0 on the problem grid."""
    x0 = np.concatenate([prob.s0.q, prob.s0.v])
    states = kernels.rollout_reduced(x0, prob.h, prob.N)
    return Trajectory(times=prob.times, states=states)


def uncontrolled_cost(prob: TrackingProblem) -> float:
    """Cost of simply letting the system drift (u = 0) from s0."""
    traj = uncontrolled_trajectory(prob)
    return _cost(prob, traj.states, np.zeros((prob.N + 1, 2)))


def benchmark_problem(
    epsilon: float = 7.0,
    omega: float = 1.0,
    T: float = 4.0,
    N: int = 4000,
    adjoint_mode: str = "derived",
    full_transversality: bool = True,
) -> TrackingProblem:
    """The bundled benchmark: particle from BENCHMARK_START tracking the
    constant-z-line reference (1, 0, t+1, 0, 1)."""
    return TrackingProblem(
        ref=constant_z_line(x_r=1.0, z_offset=1.0, speed=1.0),
        epsilon=epsilon,
        omega=omega,
        T=T,
        s0=AdaptedState(q=np.array(BENCHMARK_START[:3]), v=np.array(BENCHMARK_START[3:])),
        N=N,
        adjoint_mode=adjoint_mode,
        full_transversality=full_transversality,
    )
