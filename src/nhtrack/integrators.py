"""Deterministic fixed-step classical Runge-Kutta integration.

A fixed step keeps every downstream quantity (shooting residuals in
particular) a smooth, reproducible function of its inputs; adaptive
stepping would turn finite-difference Jacobians into noise. `time_grid`
is the one grid formula, t0 + i*h with h = T/N computed once, never
accumulated; the reference half grid j*(h/2) of `TrackingProblem` holds
the same times in its even rows.

The RK4 formula is written once, in `_step`, on Python floats, and
`integrate` loops it over the grid; `integrate(vf, t, x, h, 1)` takes a
single step. Every stage's slope must have shape (dim,) and be finite,
and so must the update, or the step raises ContractError or DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable

import numpy as np

from .errors import ContractError, DomainError

Array = np.ndarray


@dataclass(frozen=True)
class VectorField:
    """Right-hand side f(t, x) of an ODE with state dimension dim."""

    dim: int
    f: Callable[[float, Array], Array]


@dataclass(frozen=True)
class Trajectory:
    """States sampled on a uniform time grid; row i belongs to times[i]."""

    times: Array
    states: Array

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=float))
        if self.states.shape[0] != self.times.shape[0]:
            raise ContractError("trajectory row count does not match time grid")

    def final_state(self) -> Array:
        return self.states[-1]


def time_grid(t0: float, T: float, N: int) -> Array:
    """The N+1 times t0 + i*(T/N), i = 0..N, of a uniform grid over [t0, t0+T]."""
    return t0 + (T / N) * np.arange(N + 1)


def _slope(f: Callable[[float, Array], Array], dim: int, t: float, y: list) -> list:
    """The slope f(t, y) as dim Python floats.

    Raises ContractError unless the field returns shape (dim,), and
    DomainError, with this stage's t and y, at a non-finite slope.
    """
    k = np.asarray(f(t, np.array(y)), dtype=float)
    if k.shape != (dim,):
        raise ContractError(f"vector field returned shape {k.shape}, expected ({dim},)")
    k = k.tolist()
    if not all(map(isfinite, k)):
        raise DomainError("vector field returned a non-finite value", t=t, x=np.array(y))
    return k


def _step(f: Callable[[float, Array], Array], dim: int, t: float, x: list, h: float) -> list:
    """The classical 4-stage update of the float list x at t.

    Python floats, not arrays: numpy's dispatch on small arrays would cost
    more than most fields. The update is grouped as
    x + h*((k1 + 2k2 + 2k3 + k4)/6) so constant fields advance by exactly h
    per step (the (h/6)*sum grouping re-rounds). Finite slopes can still
    give a non-finite update, which raises DomainError with the step's t, x.
    """
    hh = 0.5 * h
    k1 = _slope(f, dim, t, x)
    k2 = _slope(f, dim, t + hh, [a + hh * b for a, b in zip(x, k1)])
    k3 = _slope(f, dim, t + hh, [a + hh * b for a, b in zip(x, k2)])
    k4 = _slope(f, dim, t + h, [a + h * b for a, b in zip(x, k3)])
    x_next = [a + h * ((b + 2.0 * c + 2.0 * d + e) / 6.0) for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
    if not all(map(isfinite, x_next)):
        raise DomainError("RK4 update overflowed", t=t, x=np.array(x))
    return x_next


def integrate(vf: VectorField, t0: float, x0: Array, T: float, N: int) -> Trajectory:
    """Integrate over [t0, t0+T] with N uniform steps; returns N+1 rows.

    Step i is `_step`'s update from time_grid(t0, T, N)[i]. T must be
    finite and positive, t0 finite and x0 of shape (dim,); a ContractError
    or DomainError of step i is prefixed with "step i: ", and an exception
    of the field itself propagates unchanged.
    """
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)):
        raise ContractError(f"step count must be an integer, not {N!r}")
    if N < 1:
        raise ContractError("step count must be at least 1")
    if not 0.0 < T < np.inf:
        raise ContractError("horizon must be finite and positive")
    if not isfinite(t0):
        raise ContractError("start time must be finite")
    x0 = np.asarray(x0, dtype=float)
    dim = vf.dim
    if x0.shape != (dim,):
        raise ContractError(f"initial state shape {x0.shape} does not match dim {dim}")
    h = float(T / N)
    times = time_grid(t0, T, N)
    states = np.empty((N + 1, dim))
    states[0] = x0
    x = x0.tolist()
    for i, t in enumerate(times[:-1].tolist()):
        try:
            states[i + 1] = x = _step(vf.f, dim, t, x, h)
        except DomainError as err:
            raise DomainError(f"step {i}: {err}", t=err.t, x=err.x) from err
        except ContractError as err:
            raise ContractError(f"step {i}: {err}") from err
    return Trajectory(times=times, states=states)

