"""Frame-based description of a nonholonomic mechanical system.

A system lives on an n-dimensional configuration space carrying a rank-k
velocity distribution. The distribution is spanned by k frame fields with
coefficients rho(q) (a k x n array), and the reduced dynamics are written
in the induced coordinates (q, v): q moves along the frame with fiber
velocity v, and v is driven by the connection coefficients Gamma(q) plus
the potential force pulled back through the restricted metric.

All objects are plain immutable containers around closed-form callables;
every operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, DomainError

Array = np.ndarray


@dataclass(frozen=True)
class AdaptedFrame:
    """Spanning frame of the constraint distribution.

    rho(q) returns a (k, n) array whose row A holds the coefficients of the
    A-th frame field in the coordinate basis. Rows must stay linearly
    independent on the declared domain.
    """

    n: int
    k: int
    rho: Callable[[Array], Array]

    def __post_init__(self):
        if not (1 <= self.k <= self.n):
            raise ContractError(f"frame needs 1 <= k <= n, got k={self.k}, n={self.n}")


@dataclass(frozen=True)
class ChristoffelField:
    """Connection coefficients gamma(q) -> (k, k, k), indexed [C, A, B]."""

    gamma: Callable[[Array], Array]


@dataclass(frozen=True)
class RestrictedMetricField:
    """Kinetic-energy metric restricted to the distribution.

    g(q) is the (k, k) symmetric positive-definite coefficient matrix in
    the frame basis; g_inv(q) its inverse.
    """

    g: Callable[[Array], Array]
    g_inv: Callable[[Array], Array]


@dataclass(frozen=True)
class PotentialGradient:
    """Coordinate gradient dV(q) -> (n,) of the potential energy."""

    dV: Callable[[Array], Array]


@dataclass(frozen=True)
class NonholonomicSystem:
    """A mechanical system constrained to a velocity distribution.

    constraint_annihilator(q) returns an (m, n) array of one-form
    coefficients that vanish on the frame: mu(q) @ rho(q).T == 0.

    The optional derivative callables (d_rho, d_gamma, d_pforce) supply the
    closed-form q-derivatives needed by the analytically derived adjoint
    equations; `tracking.adjoint_field` rejects systems without them in
    derived mode. Only the bundled particle can be tracked (see
    `tracking.TrackingProblem`). ``domain`` declares where the closed forms
    are valid (connection singularities must be excluded here).
    """

    frame: AdaptedFrame
    christoffel: ChristoffelField
    metric: RestrictedMetricField
    potential: PotentialGradient
    constraint_annihilator: Callable[[Array], Array]
    domain: Callable[[Array], bool] = field(default=lambda q: True)
    d_rho: Optional[Callable[[Array], Array]] = None  # (k, n, n): [A, i, j] = d rho_A^i / d q^j
    d_gamma: Optional[Callable[[Array], Array]] = None  # (k, k, k, n): [C, A, B, j]
    d_pforce: Optional[Callable[[Array], Array]] = None  # (k, n): [C, j] = d force^C / d q^j
    name: str = ""

    @property
    def n(self) -> int:
        return self.frame.n

    @property
    def k(self) -> int:
        return self.frame.k


@dataclass(frozen=True)
class AdaptedState:
    """Point of the distribution: base point q (n,) and fiber velocity v (k,)."""

    q: Array
    v: Array

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


def _check_state(sys: NonholonomicSystem, s: AdaptedState) -> None:
    if s.q.shape != (sys.n,) or s.v.shape != (sys.k,):
        raise ContractError(
            f"state dimensions {s.q.shape}/{s.v.shape} do not match system "
            f"(n={sys.n}, k={sys.k})"
        )


def admissible_velocity(sys: NonholonomicSystem, s: AdaptedState) -> Array:
    """Base velocity qdot = rho(q).T @ v induced by the fiber velocity.

    The result lies in the distribution by construction: the constraint
    residual of the returned velocity is zero up to roundoff.
    """
    _check_state(sys, s)
    return sys.frame.rho(s.q).T @ s.v


def potential_force(sys: NonholonomicSystem, q: Array) -> Array:
    """Force term g_inv(q) @ rho(q) @ dV(q) entering the fiber acceleration."""
    return sys.metric.g_inv(q) @ (sys.frame.rho(q) @ sys.potential.dV(q))


def nh_acceleration(sys: NonholonomicSystem, s: AdaptedState) -> Array:
    """Uncontrolled fiber acceleration.

    vdot^C = -Gamma^C_AB(q) v^A v^B - (g_inv rho dV)^C. Raises DomainError
    outside the system's declared domain.
    """
    _check_state(sys, s)
    if not sys.domain(s.q):
        raise DomainError(f"base point {s.q} outside declared system domain", x=s.q)
    gam = sys.christoffel.gamma(s.q)
    quad = np.einsum("cab,a,b->c", gam, s.v, s.v)
    return -quad - potential_force(sys, s.q)


def controlled_acceleration(sys: NonholonomicSystem, s: AdaptedState, u: Array) -> Array:
    """Fiber acceleration with a fully actuated input added componentwise."""
    u = np.asarray(u, dtype=float)
    if u.shape != (sys.k,):
        raise ContractError(f"control dimension {u.shape} does not match k={sys.k}")
    return nh_acceleration(sys, s) + u


def constraint_residual(sys: NonholonomicSystem, q: Array, qdot: Array) -> Array:
    """Per-constraint value mu(q) @ qdot; zero iff qdot is admissible at q."""
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    if q.shape != (sys.n,) or qdot.shape != (sys.n,):
        raise ContractError("q/qdot dimensions do not match system")
    return sys.constraint_annihilator(q) @ qdot


def christoffel_from_structure(C: Array) -> Array:
    """Connection coefficients from bracket structure constants.

    Applies Gamma^C_AB = (C^B_CA + C^A_CB + C^C_AB) / 2 with C stored as
    C[upper, lower, lower]. Only valid when the restricted metric has
    constant coefficients in the frame; with a position-dependent metric
    the symbols must be supplied directly (the bundled particle does so).
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 3 or len(set(C.shape)) != 1:
        raise ContractError("structure constants must form a cubic k x k x k array")
    if not np.allclose(C, -C.transpose(0, 2, 1), atol=1e-14):
        raise ContractError("structure constants must be antisymmetric in the lower indices")
    # Gamma[c,a,b] = (C[b,c,a] + C[a,c,b] + C[c,a,b]) / 2
    return 0.5 * (C.transpose(1, 2, 0) + C.transpose(1, 0, 2) + C)


def frame_annihilation_defect(sys: NonholonomicSystem, q: Array) -> float:
    """Max-norm of mu(q) @ rho(q).T, zero for a consistent system."""
    q = np.asarray(q, dtype=float)
    return float(np.max(np.abs(sys.constraint_annihilator(q) @ sys.frame.rho(q).T)))
