"""Damped Newton iteration on the shooting residual.

The unknown is the initial costate alpha; the residual is the terminal
defect of one coupled integration. Jacobians come from central finite
differences (the residual is smooth in alpha thanks to the fixed-step
integrator), steps are damped by simple backtracking, and the 5x5 linear
solves use partial-pivot elimination with an explicit pivot check so a
rank-deficient Jacobian ends the solve with a reason instead of garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import DomainError, SingularJacobianError
from .integrators import Trajectory
from .tracking import (
    TrackingProblem,
    controls_along,
    integrate_coupled,
    residual_from_trajectory,
    total_cost,
)

Array = np.ndarray

# Backtracking: halve the step up to MAX_HALVINGS times, accepting as soon
# as the new residual norm is below (1 - ARMIJO * step_fraction) * old.
MAX_HALVINGS = 30
ARMIJO = 1e-4

PIVOT_TOL = 1e-14


@dataclass(frozen=True)
class NewtonConfig:
    """Tolerances and limits for the damped Newton iteration."""

    tol_residual: float = 1e-10
    max_iters: int = 100
    fd_step: float = 1e-6

    def __post_init__(self):
        if self.tol_residual <= 0.0:
            raise ValueError("tol_residual must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.fd_step <= 0.0:
            raise ValueError("fd_step must be positive")


@dataclass
class ShootingReport:
    """Outcome of a shooting solve.

    residual_norms[i] is the max-norm after i accepted steps (entry 0 is
    the starting residual; the list is empty when the flow at the starting
    guess already left the finite domain). trajectory/controls/cost are
    attached by solve_tracking (also on non-convergence, for reporting)
    whenever the flow at alpha_star is finite; bare newton_solve leaves
    them None.
    """

    alpha_star: Array
    iterations: int
    residual_norms: List[float]
    converged: bool
    message: str = ""
    trajectory: Optional[Trajectory] = None
    controls: Optional[Array] = None
    cost: Optional[float] = None


def fd_jacobian(res: Callable[[Array], Array], alpha: Array, step: float) -> Array:
    """Central-difference Jacobian with per-column steps step*max(1, |alpha_j|)."""
    if step <= 0.0:
        raise ValueError("fd step must be positive")
    alpha = np.asarray(alpha, dtype=float)
    d = alpha.shape[0]
    J = np.empty((d, d))
    for j in range(d):
        hj = step * max(1.0, abs(alpha[j]))
        e = np.zeros(d)
        e[j] = hj
        try:
            rp = np.asarray(res(alpha + e), dtype=float)
            rm = np.asarray(res(alpha - e), dtype=float)
        except DomainError as err:
            raise DomainError(f"residual probe failed in column {j}: {err}") from err
        col = (rp - rm) / (2.0 * hj)
        if not np.all(np.isfinite(col)):
            raise DomainError(f"non-finite residual while probing column {j}")
        J[:, j] = col
    return J


def solve_pivoted(A: Array, b: Array) -> Array:
    """Solve A x = b by Gaussian elimination with partial pivoting.

    Raises SingularJacobianError when the best available pivot falls below
    PIVOT_TOL times the row scale of the original matrix.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    d = A.shape[0]
    scale = np.max(np.abs(A), axis=1)
    scale[scale == 0.0] = 1.0
    perm_scale = scale.copy()
    for col in range(d):
        pivot_row = col + int(np.argmax(np.abs(A[col:, col])))
        if abs(A[pivot_row, col]) < PIVOT_TOL * perm_scale[pivot_row]:
            raise SingularJacobianError(
                f"negligible pivot in column {col} (|pivot| = {abs(A[pivot_row, col]):.3e})"
            )
        if pivot_row != col:
            A[[col, pivot_row]] = A[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
            perm_scale[[col, pivot_row]] = perm_scale[[pivot_row, col]]
        inv_p = 1.0 / A[col, col]
        for row in range(col + 1, d):
            m = A[row, col] * inv_p
            if m != 0.0:
                A[row, col + 1 :] -= m * A[col, col + 1 :]
                b[row] -= m * b[col]
    x = np.empty(d)
    for row in range(d - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1 :] @ x[row + 1 :]) / A[row, row]
    return x


def newton_solve(
    res: Callable[[Array], Array], alpha0: Array, cfg: NewtonConfig = NewtonConfig()
) -> ShootingReport:
    """Backtracking Newton iteration on a square residual map.

    Always returns a report; convergence is flagged, never raised. A step
    is accepted only when it strictly reduces the residual max-norm, so
    the recorded norm history is monotone. A DomainError at the starting
    guess or in a Jacobian probe, or a singular Jacobian, ends the
    iteration with a non-converged report whose message gives the reason
    and whose alpha_star is the iterate where it happened.
    """
    alpha = np.asarray(alpha0, dtype=float).copy()
    try:
        r = np.asarray(res(alpha), dtype=float)
    except DomainError as err:
        return ShootingReport(
            alpha_star=alpha,
            iterations=0,
            residual_norms=[],
            converged=False,
            message=f"residual at the starting guess left the domain: {err}",
        )
    norm = float(np.max(np.abs(r)))
    norms = [norm]
    message = ""
    iterations = 0
    converged = norm <= cfg.tol_residual
    while not converged and iterations < cfg.max_iters:
        try:
            J = fd_jacobian(res, alpha, cfg.fd_step)
        except DomainError as err:
            message = f"Jacobian left the domain: {err}"
            break
        try:
            delta = solve_pivoted(J, -r)
        except SingularJacobianError as err:
            message = f"singular Jacobian: {err}"
            break
        s = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            trial = alpha + s * delta
            try:
                r_trial = np.asarray(res(trial), dtype=float)
            except DomainError:
                # trial left the integrable region: treat as a rejected step
                s *= 0.5
                continue
            norm_trial = float(np.max(np.abs(r_trial)))
            if np.isfinite(norm_trial) and norm_trial < (1.0 - ARMIJO * s) * norm:
                alpha, r, norm = trial, r_trial, norm_trial
                accepted = True
                break
            s *= 0.5
        if not accepted:
            message = "line search stalled: no damping factor reduced the residual"
            break
        iterations += 1
        norms.append(norm)
        converged = norm <= cfg.tol_residual
    if not converged and not message:
        message = f"no convergence within {cfg.max_iters} iterations"
    return ShootingReport(
        alpha_star=alpha,
        iterations=iterations,
        residual_norms=norms,
        converged=converged,
        message=message,
    )


def solve_tracking(
    prob: TrackingProblem,
    alpha0: Optional[Array] = None,
    cfg: NewtonConfig = NewtonConfig(),
) -> ShootingReport:
    """Shoot for the initial costate of a tracking problem.

    Starts from alpha0 (default: zeros). After the iteration the coupled
    flow is integrated once more at the final iterate to attach the
    trajectory, the control samples, and the achieved cost to the report
    (also when not converged, so a failed run can still be inspected). When
    that flow leaves the finite domain too, the report carries no trajectory.
    """
    d = prob.sys.n + prob.sys.k
    if alpha0 is None:
        alpha0 = np.zeros(d)

    def res(alpha: Array) -> Array:
        return residual_from_trajectory(integrate_coupled(prob, alpha), prob)

    report = newton_solve(res, alpha0, cfg)
    try:
        traj = integrate_coupled(prob, report.alpha_star)
    except DomainError:
        return report
    report.trajectory = traj
    report.controls = controls_along(traj, prob)
    report.cost = total_cost(traj, prob)
    return report
