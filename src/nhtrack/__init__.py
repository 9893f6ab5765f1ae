"""Trajectory tracking for nonholonomic systems by indirect shooting."""

from .errors import (
    ConfigError,
    ConstraintViolationError,
    ContractError,
    DegenerateFitError,
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
from .integrators import Trajectory, VectorField, convergence_order, integrate, rk4_step
from .particle import (
    AmbientState,
    AnalyticParams,
    analytic_constants,
    analytic_flow,
    embed,
    particle_system,
    project,
    unreduced_field,
)
from .shooting import NewtonConfig, ShootingReport, fd_jacobian, newton_solve, solve_tracking
from .tracking import (
    Costate,
    CoupledState,
    ReferenceTrajectory,
    TrackingProblem,
    adjoint_field,
    benchmark_problem,
    constant_z_line,
    coupled_field,
    free_flow,
    hamiltonian,
    running_cost,
    shooting_jacobian,
    shooting_residual,
    stationary_control,
    tabulated,
    terminal_cost,
    total_cost,
)

__version__ = "0.1.0"
