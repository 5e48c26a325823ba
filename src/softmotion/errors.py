"""Exception types shared across the library."""


class SoftMotionError(Exception):
    """Base class for all library errors."""


class InfeasibleBoundary(SoftMotionError, ValueError):
    """Boundary state violates the kinematic limits and cannot be planned."""


class InfeasibleDuration(SoftMotionError, ValueError):
    """The requested duration falls in a gap where no slowed profile exists."""


class SearchBudgetExceeded(SoftMotionError, RuntimeError):
    """The brute-force search exceeded its node or layer budget (not an infeasibility)."""


class SolverFailure(SoftMotionError, RuntimeError):
    """A solver gave no valid answer (a numerical fault, not an infeasibility)."""
