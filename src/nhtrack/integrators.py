"""Deterministic fixed-step classical Runge-Kutta integration.

A fixed step keeps every downstream quantity (shooting residuals in
particular) a smooth, reproducible function of its inputs; adaptive
stepping would turn finite-difference Jacobians into noise. `time_grid`
is the one grid formula, t0 + i*h with h = T/N computed once, never
accumulated; the reference half grid j*(h/2) of `TrackingProblem` holds
the same times in its even rows.

The RK4 formula has two copies, pinned bit-identical by the tests.
`rk4_step` runs `_rk4` on arrays and checks every stage for finiteness.
`integrate` runs each step on Python floats, where numpy's dispatch on
small arrays would cost more than most fields, and re-runs a step that
fails any of its checks through `rk4_step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DegenerateFitError, DomainError

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

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def final_state(self) -> Array:
        return self.states[-1]


def time_grid(t0: float, T: float, N: int) -> Array:
    """The N+1 times t0 + i*(T/N), i = 0..N, of a uniform grid over [t0, t0+T]."""
    return t0 + (T / N) * np.arange(N + 1)


def _stage(vf: VectorField, t: float, x: Array) -> Array:
    k = np.asarray(vf.f(t, x), dtype=float)
    if not np.all(np.isfinite(k)):
        raise DomainError("vector field returned a non-finite value", t=t, x=x)
    return k


def _rk4(stage: Callable[[float, Array], Array], t: float, x: Array, h: float) -> Array:
    """The classical 4-stage update of x at t, with stage(t, x) the slope.

    The update is grouped as x + h*((k1 + 2k2 + 2k3 + k4)/6) so constant
    fields advance by exactly h per step (the (h/6)*sum grouping re-rounds).
    """
    k1 = stage(t, x)
    k2 = stage(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = stage(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = stage(t + h, x + h * k3)
    return x + h * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)


def rk4_step(vf: VectorField, t: float, x: Array, h: float) -> Array:
    """One classical 4-stage step from (t, x) with step size h > 0.

    Each stage is checked: the first non-finite slope raises DomainError
    with the time and state that stage was evaluated at.
    """
    if h <= 0.0:
        raise ContractError("step size must be positive")
    return _rk4(lambda s, y: _stage(vf, s, y), t, x, h)


def integrate(vf: VectorField, t0: float, x0: Array, T: float, N: int) -> Trajectory:
    """Integrate over [t0, t0+T] with N uniform steps; returns N+1 rows.

    Each step runs on Python floats: the field gets a Python float t and a
    fresh array, its slope becomes a list, and the stage inputs and the
    update are formed element by element with the grouping of `_rk4`, so
    this loop is a second copy of the formula, pinned bit-identical to a
    loop of `rk4_step` by the tests. A step goes through the checked path
    instead, rk4_step (calling the field again), when it raised or set
    numpy's overflow, invalid or divide flag, when a slope does not have
    exactly dim entries, or when a stage input or the result is not
    finite. The error is then "step i: " plus rk4_step's, with the failing
    stage's t and x, or the field's own exception, and the broadcasting
    and warnings are rk4_step's.
    """
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
    h = T / N
    hh = 0.5 * h
    times = time_grid(t0, T, N)
    states = np.empty((N + 1, dim))
    states[0] = x0
    ts = times.tolist()
    x = x0.tolist()

    def slope(t, y):
        if not all(map(isfinite, y)):
            raise FloatingPointError("non-finite stage input")
        k = np.asarray(vf.f(t, np.array(y)), dtype=float).tolist()
        if len(k) != dim:  # a 0-d slope raises TypeError here
            raise ValueError("slope length does not match dim")
        return k

    caller = np.geterr()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for i in range(N):
            t = ts[i]
            try:
                k1 = slope(t, x)
                k2 = slope(t + hh, [a + hh * b for a, b in zip(x, k1)])
                k3 = slope(t + hh, [a + hh * b for a, b in zip(x, k2)])
                k4 = slope(t + h, [a + h * b for a, b in zip(x, k3)])
                x_next = [
                    a + h * ((b + 2.0 * c + 2.0 * d + e) / 6.0)
                    for a, b, c, d, e in zip(x, k1, k2, k3, k4)
                ]
                ok = all(map(isfinite, x_next))
            except Exception:  # the checked re-run raises it again, or an earlier stage's error
                ok = False
            if ok:
                states[i + 1] = x = x_next
                continue
            try:
                with np.errstate(**caller):
                    x_next = rk4_step(vf, times[i], np.array(x), h)
            except DomainError as err:
                raise DomainError(f"step {i}: {err}", t=err.t, x=err.x) from err
            states[i + 1] = x_next
            x = states[i + 1].tolist()
    return Trajectory(times=times, states=states)


def convergence_order(
    vf: VectorField,
    oracle: Callable[[float], Array],
    t0: float,
    x0: Array,
    T: float,
    N_list: Sequence[int],
) -> float:
    """Least-squares slope of log(max grid error) against log(h).

    N_list must contain at least three step counts, each double the last.
    Raises DegenerateFitError when the integrator reproduces the oracle
    exactly at some N (the log-log fit is then meaningless).
    """
    N_list = list(N_list)
    if len(N_list) < 3:
        raise ContractError("need at least three step counts")
    for a, b in zip(N_list, N_list[1:]):
        if b != 2 * a:
            raise ContractError("step counts must double at each entry")
    errors = []
    steps = []
    for N in N_list:
        traj = integrate(vf, t0, x0, T, N)
        exact = np.array([oracle(t) for t in traj.times])
        err = float(np.max(np.abs(traj.states - exact)))
        if err == 0.0:
            raise DegenerateFitError(f"integration exact at N={N}; no order to fit")
        errors.append(err)
        steps.append(T / N)
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    return float(slope)
