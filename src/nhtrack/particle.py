"""The benchmark system: a free particle on R^3 constrained by xdot + y*zdot = 0.

The distribution is spanned by Y1 = d/dy and Y2 = d/dz - y d/dx, giving
induced coordinates (x, y, z, v1, v2). In this frame the only nonzero
connection coefficient is Gamma^2_12 = y / (1 + y^2) and the restricted
metric is diag(1, 1 + y^2); there is no potential.

This module writes no frame, connection or annihilator: the particle's
equations are those of the C kernel (`_rk4.c`), and the frame model they
come from lives with the tests (`tests/oracles.py`). What is here is the
name, the energy, and two independent oracles of the reduced dynamics:

* the closed-form flow of the uncontrolled equations (with its separate
  zero-v1 branch, where the generic antiderivatives degenerate), and
* the unreduced Lagrange-multiplier dynamics in ambient coordinates
  (x, y, z, vx, vy, vz), which the C kernel integrates (`kernels`); embed
  gives its start for a reduced state. Its Python model, written term for
  term like the C right-hand side, lives with the tests too.

In the closed form, x(t) and z(t) come from direct quadrature of
xdot = -y v2 and zdot = v2; a finite-difference residual test pins down
that the expressions actually solve the reduced equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import AdaptedState

Array = np.ndarray

PARTICLE_NAME = "nonholonomic-particle"

# |v1(0)| at or below this uses the constant-y branch of the closed form.
C1_SWITCH = 1e-10


def restricted_energy(x: Array):
    """Kinetic energy in the adapted frame: (v1^2 + (1+y^2) v2^2) / 2 of the
    state rows x = [x, y, z, v1, v2], one value per row of stacked rows."""
    y = x[..., 1]
    return 0.5 * (x[..., 3] ** 2 + (1.0 + y * y) * x[..., 4] ** 2)


# ---------------------------------------------------------------------------
# Closed-form flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticParams:
    """Integration constants of the uncontrolled flow.

    c1 is the (conserved) first fiber velocity; c2 scales the second one so
    that v2(t) = c2 / sqrt(y(t)^2 + 1).
    """

    c1: float
    c2: float
    x0: float
    y0: float
    z0: float


def _radius(y):
    """sqrt(y^2 + 1) of a scalar or an array y, with no overflow: where
    y^2 + 1 overflows it is |y|, which equals sqrt(y^2 + 1) in float64
    there. Where it does not, the bits are those of sqrt(y * y + 1.0), and
    an input with no overflow costs no extra pass."""
    y = np.asarray(y, dtype=float)
    try:
        with np.errstate(over="raise"):
            return np.sqrt(y * y + 1.0)
    except FloatingPointError:
        with np.errstate(over="ignore"):
            r = np.sqrt(y * y + 1.0)
        return np.where(np.isfinite(r), r, np.abs(y))


def analytic_constants(s0: AdaptedState) -> AnalyticParams:
    """Constants reproducing s0 at t=0: c1 = v1(0), c2 = v2(0) sqrt(y0^2+1)."""
    x0, y0, z0 = s0.q
    return AnalyticParams(
        c1=float(s0.v[0]),
        c2=float(s0.v[1]) * float(_radius(y0)),
        x0=float(x0),
        y0=float(y0),
        z0=float(z0),
    )


def analytic_flow(p: AnalyticParams, t) -> Array:
    """Exact uncontrolled state at time t, a scalar or a 1-D array of times,
    as rows [x, y, z, v1, v2].

    Generic branch (|c1| > C1_SWITCH):
        y = y0 + c1 t,   v1 = c1,   v2 = c2 / sqrt(y^2 + 1),
        x = x0 + (c2/c1) (sqrt(y0^2+1) - sqrt(y^2+1)),
        z = z0 + (c2/c1) (asinh(y) - asinh(y0)).
    Constant-y branch (|c1| <= C1_SWITCH): y frozen at y0, v2 constant,
    x and z linear in t.

    For a scalar t the result has shape (5,); for M times it is (M, 5),
    row j belonging to t[j] and equal bit for bit to the scalar result at
    t[j].
    """
    t = np.asarray(t, dtype=float)
    rows = np.empty(t.shape + (5,))
    if abs(p.c1) > C1_SWITCH:
        y = p.y0 + p.c1 * t
        r0 = _radius(p.y0)
        r = _radius(y)
        rows[..., 0] = p.x0 + (p.c2 / p.c1) * (r0 - r)
        rows[..., 1] = y
        rows[..., 2] = p.z0 + (p.c2 / p.c1) * (np.arcsinh(y) - np.arcsinh(p.y0))
        rows[..., 3] = p.c1
        rows[..., 4] = p.c2 / r
    else:
        v2 = p.c2 / _radius(p.y0)
        rows[..., 0] = p.x0 - p.y0 * v2 * t
        rows[..., 1] = p.y0
        rows[..., 2] = p.z0 + v2 * t
        rows[..., 3] = 0.0
        rows[..., 4] = v2
    return rows


# ---------------------------------------------------------------------------
# Ambient embedding
# ---------------------------------------------------------------------------


def embed(s: AdaptedState) -> Array:
    """Ambient representative in the unreduced kernel's layout
    [x, y, z, vx, vy, vz], with (vx, vy, vz) = (-y v2, v1, v2)."""
    y = s.q[1]
    return np.concatenate([s.q, [-y * s.v[1], s.v[0], s.v[1]]])
