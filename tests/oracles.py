"""Reference models the tests compare the package against.

Five oracles for the bundled particle, none of which the package runs:

* `particle_oracle`, a symbolic derivation (below);
* `frame_slopes`, the numpy frame model of the free particle: the frame
  rho and the connection Gamma contracted with v. The package has no
  Python copy of these equations; the C kernel's reduced rhs and the
  state columns of its coupled rhs equal this model value for value (a
  zero's sign aside);
* the unreduced Lagrange-multiplier dynamics in ambient coordinates
  (x, y, z, vx, vy, vz): `AmbientState`, `multiplier` and
  `unreduced_field`, the Python model of the C unreduced right-hand side,
  written term for term like it. `nhtrack.particle.embed` ties it to the
  reduced picture;
* `convergence_order`, the least-squares order of
  `nhtrack.integrators.integrate` against a closed form;
* `hamiltonian_balance_defect`, Pontryagin's balance of the Hamiltonian
  along a solved extremal.

`particle_oracle` derives, with sympy, everything the package writes by
hand for the particle: the Hamiltonian, the costate equations in both
adjoint modes, the coupled state-costate right-hand side and its 10 x 10
Jacobian. It starts from the frame rho = [[0, 1, 0], [-y, 0, 1]] and the
one nonzero connection coefficient Gamma^2_12 = y / (1 + y^2), and from
nothing else:

    H = (|q - q_r|^2 + |v - v_r|^2 + eps |u|^2) / 2 + lam . qdot + mu . vdot,
    qdot = rho^T v,    vdot^C = -Gamma^C_AB v^A v^B + u^C,

and the derived adjoint is -dH/d(q, v) with u held fixed, evaluated at
the stationary control u = -mu/eps. The paper-literal rows are the
derived rows with the printed deviations of `LITERAL_COUPLING_SCALE`.

sympy is imported inside the builder only, which runs once per process
(about 1 s, the import included); collecting the tests does not import
it. Each result is a numpy function of stacked rows: an argument of
width w is an array of shape (..., w), and a scalar eps broadcasts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

from nhtrack.errors import ContractError, NhtrackError
from nhtrack.integrators import VectorField, integrate
from nhtrack.tracking import ADJOINT_MODES, hamiltonian

Array = np.ndarray

# The printed costate equations differ from the derived ones in the
# coupling terms -d(mu . (-Gamma v v))/d(q, v) alone: the as-printed rows
# scale that term by the factor below, keyed by the coordinate the row
# differentiates in (the lam2 row differentiates in y, the mu rows in v1
# and v2). Every other row and term is the derived one.
LITERAL_COUPLING_SCALE = {"y": "-eps", "v1": "-1", "v2": "-1"}


@dataclass(frozen=True)
class ParticleOracle:
    """The derivation, lambdified. z rows are [x, y, z, v1, v2, l1, l2, l3,
    m1, m2], r rows the reference [x_r, y_r, z_r, v1_r, v2_r], u rows the
    control [u1, u2]; the dicts are keyed by adjoint mode.

    - hamiltonian(z, u, r, eps) -> (...,): H at an arbitrary control u;
    - adjoint[mode](z, r, eps) -> (..., 5): (lam_dot, mu_dot) at u = -mu/eps;
    - field[mode](z, r, eps) -> (..., 10): the coupled right-hand side;
    - jacobian[mode](z, eps) -> (..., 10, 10): d field / dz, which does not
      depend on the reference;
    - sparsity[mode]: (10, 10) bool, the symbolically nonzero entries of
      the Jacobian.
    """

    hamiltonian: Callable
    adjoint: Dict[str, Callable]
    field: Dict[str, Callable]
    jacobian: Dict[str, Callable]
    sparsity: Dict[str, np.ndarray]


def _rows(fn: Callable, shape: tuple) -> Callable:
    """Wrap a lambdified fn, whose list arguments unpack one column per
    symbol, so that it takes stacked rows and returns an array of shape
    (..., *shape); constant entries broadcast to the rows' shape."""

    def call(*args):
        cols = [np.moveaxis(np.asarray(a, dtype=float), -1, 0) if np.ndim(a) else a for a in args]
        out = np.broadcast_arrays(*(np.asarray(e, dtype=float) for e in fn(*cols)))
        return np.stack(out, axis=-1).reshape(out[0].shape + shape)

    return call


@functools.cache
def particle_oracle() -> ParticleOracle:
    """Derive the particle's tracking equations symbolically; see the
    module docstring."""
    import sympy as sp

    q = sp.symbols("x y z", real=True)
    v = sp.symbols("v1 v2", real=True)
    lam = sp.symbols("l1 l2 l3", real=True)
    mu = sp.symbols("m1 m2", real=True)
    q_r = sp.symbols("x_r y_r z_r", real=True)
    v_r = sp.symbols("v1_r v2_r", real=True)
    u = sp.symbols("u1 u2", real=True)
    eps = sp.symbols("eps", positive=True)
    y = q[1]
    z = [*q, *v, *lam, *mu]
    r = [*q_r, *v_r]

    rho = sp.Matrix([[0, 1, 0], [-y, 0, 1]])
    gamma = [[[sp.S.Zero] * 2 for _ in range(2)] for _ in range(2)]
    gamma[1][0][1] = y / (1 + y**2)  # Gamma^2_12, indexed [C][A][B]

    qdot = list(rho.T * sp.Matrix(v))
    drift = [-sum(gamma[c][a][b] * v[a] * v[b] for a in range(2) for b in range(2)) for c in range(2)]
    vdot = [drift[c] + u[c] for c in range(2)]
    cost = (
        sum((a - b) ** 2 for a, b in zip(q, q_r))
        + sum((a - b) ** 2 for a, b in zip(v, v_r))
        + eps * sum(c**2 for c in u)
    ) / 2
    H = cost + sum(a * b for a, b in zip(lam, qdot)) + sum(a * b for a, b in zip(mu, vdot))
    coupling = sum(a * b for a, b in zip(mu, drift))

    stationary = {u[c]: -mu[c] / eps for c in range(2)}
    names = {str(s): s for s in z + [eps]}
    scale = {names[key]: sp.sympify(text, locals=names) for key, text in LITERAL_COUPLING_SCALE.items()}
    costate = {
        "derived": [-sp.diff(H, s) for s in [*q, *v]],
        "paper-literal": [
            -sp.diff(H - coupling, s) - scale.get(s, 1) * sp.diff(coupling, s) for s in [*q, *v]
        ],
    }
    state = [e.subs(stationary) for e in qdot + vdot]

    adjoint, field, jacobian, sparsity = {}, {}, {}, {}
    for mode in ADJOINT_MODES:
        pdot = [e.subs(stationary) for e in costate[mode]]
        rhs = sp.Matrix(state + pdot)
        jac = rhs.jacobian(z)
        adjoint[mode] = _rows(sp.lambdify([z, r, eps], pdot, "numpy"), (5,))
        field[mode] = _rows(sp.lambdify([z, r, eps], list(rhs), "numpy"), (10,))
        jacobian[mode] = _rows(sp.lambdify([z, eps], list(jac), "numpy"), (10, 10))
        sparsity[mode] = np.array([e != 0 for e in jac]).reshape(10, 10)
    hamiltonian = _rows(sp.lambdify([z, u, r, eps], [H], "numpy"), ())
    return ParticleOracle(hamiltonian, adjoint, field, jacobian, sparsity)


# ---------------------------------------------------------------------------
# The frame model of the free particle
# ---------------------------------------------------------------------------


def frame_slopes(x: Array) -> Array:
    """Slopes [qdot, vdot] of the free particle at the state rows x =
    [x, y, z, v1, v2], (..., 5), stacked along leading axes, from the
    frame and the connection alone:

        qdot = rho^T v,    rho = [[0, 1, 0], [-y, 0, 1]],
        vdot^C = -Gamma^C_AB v^A v^B,    Gamma^2_12 = y / (1 + y^2),

    every other connection coefficient zero, Gamma indexed [C, A, B]."""
    y, v = x[..., 1], x[..., 3:]
    rho = np.zeros(x.shape[:-1] + (2, 3))
    rho[..., 0, 1] = 1.0
    rho[..., 1, 0] = -y
    rho[..., 1, 2] = 1.0
    gamma = np.zeros(x.shape[:-1] + (2, 2, 2))
    gamma[..., 1, 0, 1] = y / (1.0 + y * y)
    qdot = np.einsum("...ai,...a->...i", rho, v)
    vdot = -np.einsum("...cab,...a,...b->...c", gamma, v, v)
    return np.concatenate([qdot, vdot], axis=-1)


# ---------------------------------------------------------------------------
# Unreduced Lagrange-multiplier dynamics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmbientState:
    """Ambient position q = (x, y, z) and velocity vq = (vx, vy, vz)."""

    q: Array
    vq: Array

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "vq", np.asarray(self.vq, dtype=float))


def multiplier(s: AmbientState) -> float:
    """Constraint multiplier lambda = -vz vy / (1 + y^2).

    Chosen so d/dt (vx + y vz) vanishes identically along the flow.
    """
    y = s.q[1]
    return -s.vq[2] * s.vq[1] / (1.0 + y * y)


def unreduced_field(s: AmbientState) -> AmbientState:
    """Time derivative of an ambient state under the multiplier dynamics.

    Returned in the same container: .q holds (xdot, ydot, zdot) and .vq
    holds (vxdot, vydot, vzdot) = (lambda, 0, y lambda).
    """
    lam = multiplier(s)
    return AmbientState(q=s.vq.copy(), vq=np.array([lam, 0.0, s.q[1] * lam]))


# ---------------------------------------------------------------------------
# Convergence order of the Python RK4
# ---------------------------------------------------------------------------


class DegenerateFitError(NhtrackError):
    """A convergence-order fit is meaningless (exact integration, zero error)."""


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


# ---------------------------------------------------------------------------
# Hamiltonian balance along an extremal
# ---------------------------------------------------------------------------


def hamiltonian_balance_defect(prob, report) -> float:
    """|H(T) - H(0) - integral of dH/dt| along the solved trajectory of a
    problem that tracks a line moving along z at unit speed, such as the
    benchmark's constant_z_line(x_r, z_offset, 1).

    Along an extremal dH/dt equals the explicit time derivative
    -(q - q_r) . qdot_r - (v - v_r) . vdot_r, which for that line is
    -(z - z_r). H comes from one `hamiltonian` call on the trajectory's
    coupled rows, with the report's controls and the reference rows of the
    grid; the integral is composite Simpson on the grid, so N must be even.
    """
    if prob.N % 2:
        raise ContractError("composite Simpson needs an even step count")
    z, ref = report.trajectory.states, prob._ref_table[::2]
    H = hamiltonian(z, report.controls, ref, prob.epsilon)
    f = -(z[:, 2] - ref[:, 2])
    integral = prob.h / 3.0 * (f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-1:2]))
    return float(abs(H[-1] - H[0] - integral))
