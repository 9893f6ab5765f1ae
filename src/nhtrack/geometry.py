"""Frame-based description of a nonholonomic mechanical system.

A system lives on an n-dimensional configuration space carrying a rank-k
velocity distribution. The distribution is spanned by k frame fields with
coefficients rho(q) (a k x n array), and the reduced dynamics are written
in the induced coordinates (q, v): q moves along the frame with fiber
velocity v, and v is driven by the connection coefficients Gamma(q).

The system is one immutable record of closed-form callables; every
operation is a pure function of its inputs. Points may be stacked along
leading axes: q of shape (..., n) with v of shape (..., k) gives one
result per point, each row equal bit for bit to the call on that point
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError

Array = np.ndarray


@dataclass(frozen=True)
class NonholonomicSystem:
    """A mechanical system constrained to a velocity distribution.

    The configuration space has dimension n and the distribution rank k,
    1 <= k <= n. Each callable takes points q of shape (..., n) stacked
    along any leading axes and returns one block per point:

    - rho(q), (..., k, n): row A holds the coefficients of the A-th frame
      field in the coordinate basis; rows must stay linearly independent;
    - gamma(q), (..., k, k, k): the connection coefficients, indexed
      [C, A, B];
    - constraint_annihilator(q), (..., m, n): one-form coefficients that
      vanish on the frame, mu(q) rho(q)^T == 0;
    - d_rho(q), (..., k, n, n), and d_gamma(q), (..., k, k, k, n): the
      closed-form q-derivatives of rho and gamma that the derived adjoint
      equations read.
    """

    n: int
    k: int
    rho: Callable[[Array], Array]
    gamma: Callable[[Array], Array]
    constraint_annihilator: Callable[[Array], Array]
    d_rho: Callable[[Array], Array]  # (..., k, n, n): [A, i, j] = d rho_A^i / d q^j
    d_gamma: Callable[[Array], Array]  # (..., k, k, k, n): [C, A, B, j]

    def __post_init__(self):
        if not (1 <= self.k <= self.n):
            raise ContractError(f"frame needs 1 <= k <= n, got k={self.k}, n={self.n}")


@dataclass(frozen=True)
class AdaptedState:
    """Point of the distribution: base point q (n,) and fiber velocity v (k,),
    or M points stacked as (M, n) and (M, k), and so on for more leading axes."""

    q: Array
    v: Array

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


def _check_state(sys: NonholonomicSystem, s: AdaptedState) -> None:
    if (
        s.q.shape[-1:] != (sys.n,)
        or s.v.shape[-1:] != (sys.k,)
        or s.q.shape[:-1] != s.v.shape[:-1]
    ):
        raise ContractError(
            f"state dimensions {s.q.shape}/{s.v.shape} do not match system "
            f"(n={sys.n}, k={sys.k}) with one leading shape"
        )


def admissible_velocity(sys: NonholonomicSystem, s: AdaptedState) -> Array:
    """Base velocity qdot = rho(q)^T v induced by the fiber velocity, (..., n).

    The result lies in the distribution by construction: the constraint
    residual of the returned velocity is zero up to roundoff.
    """
    _check_state(sys, s)
    return np.einsum("...ai,...a->...i", sys.rho(s.q), s.v)


def nh_acceleration(sys: NonholonomicSystem, s: AdaptedState) -> Array:
    """Uncontrolled fiber acceleration vdot^C = -Gamma^C_AB(q) v^A v^B, (..., k)."""
    _check_state(sys, s)
    return -np.einsum("...cab,...a,...b->...c", sys.gamma(s.q), s.v, s.v)


def controlled_acceleration(sys: NonholonomicSystem, s: AdaptedState, u: Array) -> Array:
    """Fiber acceleration with a fully actuated input added componentwise;
    u has the shape of the fiber velocity v."""
    u = np.asarray(u, dtype=float)
    if u.shape != s.v.shape or u.shape[-1:] != (sys.k,):
        raise ContractError(
            f"control dimension {u.shape} does not match k={sys.k} and the "
            f"velocity shape {s.v.shape}"
        )
    return nh_acceleration(sys, s) + u


def constraint_residual(sys: NonholonomicSystem, q: Array, qdot: Array) -> Array:
    """Per-constraint value mu(q) qdot, (..., m); zero iff qdot is
    admissible at q."""
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    if q.shape[-1:] != (sys.n,) or qdot.shape != q.shape:
        raise ContractError(
            f"q/qdot dimensions {q.shape}/{qdot.shape} do not match system (n={sys.n}) "
            "with one leading shape"
        )
    return np.einsum("...mi,...i->...m", sys.constraint_annihilator(q), qdot)


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
    """Max-norm of mu(q) rho(q)^T over the points q, zero for a consistent
    system."""
    q = np.asarray(q, dtype=float)
    products = np.einsum("...mi,...ai->...ma", sys.constraint_annihilator(q), sys.rho(q))
    return float(np.max(np.abs(products)))
