"""Damped Newton iteration on the shooting residual.

The unknown is the initial costate alpha; the residual is the terminal
defect of one coupled integration. The Jacobian is the exact derivative of
that discrete map, from the forward sensitivities the C kernel carries
alongside the flow (`tracking.shooting_jacobian`); the central-difference
`fd_jacobian` is kept as its oracle. Steps are damped by simple
backtracking, and the 5x5 linear solves use partial-pivot elimination with
an explicit pivot check so a rank-deficient Jacobian ends the solve with a
reason instead of garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

import numpy as np

from .errors import DomainError, SingularJacobianError
from .integrators import Trajectory
from .tracking import (
    TrackingProblem,
    controls_along,
    integrate_coupled,
    shooting_jacobian,
    shooting_residual,
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

    def __post_init__(self):
        if not 0.0 < self.tol_residual < np.inf:
            raise ValueError("tol_residual must be finite and positive")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError(f"max_iters must be an integer, not {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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

    The pivot is the first row with the largest |entry| in its column.
    Raises SingularJacobianError when that pivot falls below PIVOT_TOL
    times the row scale of the original matrix. The elimination runs on
    Python floats: for the 5x5 shooting systems that is several times
    faster than on numpy rows.
    """
    rows = np.asarray(A, dtype=float).tolist()
    rhs = np.asarray(b, dtype=float).tolist()
    d = len(rows)
    scale = [max(map(abs, row)) or 1.0 for row in rows]
    for col in range(d):
        pivot_row = max(range(col, d), key=lambda r: abs(rows[r][col]))
        pivot = rows[pivot_row][col]
        if abs(pivot) < PIVOT_TOL * scale[pivot_row]:
            raise SingularJacobianError(
                f"negligible pivot in column {col} (|pivot| = {abs(pivot):.3e})"
            )
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
            scale[col], scale[pivot_row] = scale[pivot_row], scale[col]
        top = rows[col]
        inv_p = 1.0 / pivot
        for row in range(col + 1, d):
            below = rows[row]
            m = below[col] * inv_p
            if m != 0.0:
                for c in range(col + 1, d):
                    below[c] -= m * top[c]
                rhs[row] -= m * rhs[col]
    x = [0.0] * d
    for row in range(d - 1, -1, -1):
        r = rows[row]
        acc = rhs[row]
        for c in range(row + 1, d):
            acc -= r[c] * x[c]
        x[row] = acc / r[row]
    return np.array(x)


def newton_solve(
    res: Callable[[Array], Array],
    jac: Callable[[Array], Array],
    alpha0: Array,
    cfg: NewtonConfig = NewtonConfig(),
) -> ShootingReport:
    """Backtracking Newton iteration on a square residual map res with
    Jacobian jac, which is called once per iteration, at the accepted
    iterate.

    Always returns a report; convergence is flagged, never raised. A step
    is accepted only when it strictly reduces the residual max-norm, so
    the recorded norm history is monotone. A DomainError at the starting
    guess or from jac, or a singular Jacobian, ends the iteration with a
    non-converged report whose message gives the reason and whose
    alpha_star is the iterate where it happened.
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
            J = jac(alpha)
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

    res = partial(shooting_residual, prob=prob)
    report = newton_solve(res, partial(shooting_jacobian, prob), alpha0, cfg)
    try:
        traj = integrate_coupled(prob, report.alpha_star)
    except DomainError:
        return report
    report.trajectory = traj
    report.controls = controls_along(traj, prob)
    report.cost = total_cost(traj, prob)
    return report
