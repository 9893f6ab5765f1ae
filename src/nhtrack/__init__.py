"""Trajectory tracking for nonholonomic systems by indirect shooting."""

from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    KernelBuildError,
    NhtrackError,
    SingularJacobianError,
    SingularProblemError,
)
from .geometry import (
    AdaptedState,
    NonholonomicSystem,
    admissible_velocity,
    christoffel_from_structure,
    constraint_residual,
    controlled_acceleration,
    nh_acceleration,
)
from .integrators import Trajectory, VectorField, integrate
from .particle import AnalyticParams, analytic_constants, analytic_flow, embed, particle_system
from .shooting import NewtonConfig, ShootingReport, fd_jacobian, newton_solve, solve_tracking
from .tracking import (
    Costate,
    TrackingProblem,
    benchmark_problem,
    constant_z_line,
    free_flow,
    hamiltonian,
    running_cost,
    shooting_residual,
    stationary_control,
    tabulated,
    terminal_cost,
    total_cost,
)

__version__ = "0.1.0"
