"""Exception types shared across the package."""


class NhtrackError(Exception):
    """Base class for all package errors."""


class ContractError(NhtrackError):
    """A precondition was violated (dimension mismatch, bad argument)."""


class DomainError(NhtrackError):
    """Evaluation left the finite domain (singularity, non-finite value).

    Carries the offending time and state when raised inside an integration.
    """

    def __init__(self, message, t=None, x=None):
        super().__init__(message)
        self.t = t
        self.x = x


class ConstraintViolationError(NhtrackError):
    """An ambient velocity lies too far off the constraint distribution."""


class SingularProblemError(NhtrackError):
    """The control-effort weight is zero or negative; the stationary
    condition no longer determines the control."""


class SingularJacobianError(NhtrackError):
    """Elimination hit a negligible pivot."""


class KernelBuildError(NhtrackError):
    """The C compiler could not run or failed to build the RK4 kernel.

    The message names the compiler and carries its error output."""


class DegenerateFitError(NhtrackError):
    """A convergence-order fit is meaningless (exact integration, zero error)."""


class ConfigError(NhtrackError):
    """Malformed experiment configuration. Carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
