"""A start point of the particle, and the structure-constant helper.

The particle's equations live in one place, the C kernel `_rk4.c`; the
package reads its slope rows through `kernels.coupled_rhs` (see
`tracking.particle_slopes`). The paper's frame model of those equations,
the frame rho(q) and the connection Gamma(q), lives with the tests
(`tests/oracles.py`: `frame_slopes` in numpy, `particle_oracle` in
sympy), which hold the kernel to it.

What is left here: `AdaptedState`, a start point (q, v) of the
distribution, and `christoffel_from_structure`, the connection of a frame
with constant structure constants and a constant restricted metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

Array = np.ndarray


@dataclass(frozen=True)
class AdaptedState:
    """Point of the distribution: base point q (n,) and fiber velocity v (k,),
    or M points stacked as (M, n) and (M, k), and so on for more leading axes."""

    q: Array
    v: Array

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


def christoffel_from_structure(C: Array) -> Array:
    """Connection coefficients from bracket structure constants.

    Applies Gamma^C_AB = (C^B_CA + C^A_CB + C^C_AB) / 2 with C stored as
    C[upper, lower, lower]. Only valid when the restricted metric has
    constant coefficients in the frame; with a position-dependent metric
    the symbols must be supplied directly (the bundled particle's are
    written in the C kernel).
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 3 or len(set(C.shape)) != 1:
        raise ContractError("structure constants must form a cubic k x k x k array")
    if not np.allclose(C, -C.transpose(0, 2, 1), atol=1e-14):
        raise ContractError("structure constants must be antisymmetric in the lower indices")
    # Gamma[c,a,b] = (C[b,c,a] + C[a,c,b] + C[c,a,b]) / 2
    return 0.5 * (C.transpose(1, 2, 0) + C.transpose(1, 0, 2) + C)
