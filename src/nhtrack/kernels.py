"""Fixed-step RK4 rollouts for the particle flows.

Shooting evaluates hundreds of full state-costate integrations (every
finite-difference Jacobian column is two), so the inner loop matters. One
RK4 driver steps the state as plain Python floats, whose arithmetic is IEEE
double like numpy's float64 scalars but without the cost of creating numpy
scalars; each system supplies one right-hand side over such a sequence.

State layouts (matching the CSV column order):
    reduced   [x, y, z, v1, v2]
    unreduced [x, y, z, vx, vy, vz]
    coupled   [x, y, z, v1, v2, l1, l2, l3, m1, m2]

The right-hand sides take the state and the half-grid index j of the stage
time t0 + j*(h/2), so the stages of step i sit at j = 2i, 2i+1, 2i+2. The
coupled flow reads its reference samples from a table on that half grid.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .errors import DomainError


def backend() -> str:
    """Name of the kernel backend, echoed in reports and benchmark output."""
    return "python"


def _rk4(rhs, x0, h: float, n_steps: int, label: str) -> np.ndarray:
    """Integrate rhs(x, j) -> tuple from x0; returns (n_steps+1, len(x0)).

    Raises DomainError at the first step whose result is not finite. The
    update keeps the grouping x + h*((k1 + 2k2 + 2k3 + k4)/6) of
    integrators.rk4_step, so constant fields advance by exactly h per step.
    """
    states = np.empty((n_steps + 1, len(x0)))
    states[0] = x0
    x = states[0].tolist()
    h = float(h)
    hh = 0.5 * h
    for i in range(n_steps):
        j = 2 * i
        k1 = rhs(x, j)
        k2 = rhs([a + hh * b for a, b in zip(x, k1)], j + 1)
        k3 = rhs([a + hh * b for a, b in zip(x, k2)], j + 1)
        k4 = rhs([a + h * b for a, b in zip(x, k3)], j + 2)
        x = [
            a + h * ((b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
        ]
        states[i + 1] = x
        if not all(map(isfinite, x)):
            raise DomainError(
                f"{label} rollout left the finite domain at step {i}", x=states[i]
            )
    return states


def _reduced_rhs(s, j):
    _, y, _, v1, v2 = s
    return (-y * v2, v1, v2, 0.0, -(y / (1.0 + y * y)) * v1 * v2)


def _unreduced_rhs(s, j):
    _, y, _, vx, vy, vz = s
    lam = -vz * vy / (1.0 + y * y)
    return (vx, vy, vz, lam, 0.0, y * lam)


def _coupled_rhs(ref_half: np.ndarray, eps: float, literal: bool):
    """State-costate rhs with u = -mu/eps, reading the reference at index j."""
    # a flat view: three rows per step are read as floats, none is copied
    ref = memoryview(np.ascontiguousarray(ref_half, dtype=float).ravel())
    eps = float(eps)

    def rhs(s, j):
        x, y, z, v1, v2, l1, l2, l3, m1, m2 = s
        r = 5 * j
        w = 1.0 + y * y
        f = y / w
        ex = x - ref[r]
        ey = y - ref[r + 1]
        ez = z - ref[r + 2]
        e1 = v1 - ref[r + 3]
        e2 = v2 - ref[r + 4]
        if literal:
            dl2 = l1 * v2 - ey + eps * v1 * v2 * m2 * (y * y - 1.0) / (w * w)
            dm1 = -l2 - e1 - m2 * f * v2
            dm2 = -l3 + l1 * y - e2 - m2 * f * v1
        else:
            dl2 = l1 * v2 - ey + m2 * v1 * v2 * (1.0 - y * y) / (w * w)
            dm1 = -l2 - e1 + m2 * f * v2
            dm2 = l1 * y - l3 - e2 + m2 * f * v1
        return (-y * v2, v1, v2, -m1 / eps, -m2 / eps - f * v1 * v2, -ex, dl2, -ez, dm1, dm2)

    return rhs


def rollout_reduced(x0: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """Integrate the uncontrolled reduced flow; returns (n_steps+1, 5)."""
    return _rk4(_reduced_rhs, x0, h, n_steps, "reduced")


def rollout_unreduced(x0: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """Integrate the ambient multiplier flow; returns (n_steps+1, 6)."""
    return _rk4(_unreduced_rhs, x0, h, n_steps, "unreduced")


def rollout_coupled(
    z0: np.ndarray,
    h: float,
    n_steps: int,
    ref_half: np.ndarray,
    eps: float,
    literal: bool,
) -> np.ndarray:
    """Integrate the state-costate flow; returns (n_steps+1, 10).

    ref_half must hold reference samples (x_r, y_r, z_r, v1_r, v2_r) on the
    half grid, shape (2*n_steps + 1, 5). literal selects the paper-literal
    adjoint instead of the derived one.
    """
    if ref_half.shape != (2 * n_steps + 1, 5):
        raise ValueError("reference table does not cover the half grid")
    return _rk4(_coupled_rhs(ref_half, eps, literal), z0, h, n_steps, "coupled")
