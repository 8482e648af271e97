"""Exception types shared across the solver."""


class SolverError(Exception):
    """Base class for all rtspect errors."""


class ProfileError(SolverError):
    """Invalid density profile data or parameters."""


class DegenerateBasisError(SolverError):
    """Outer exponential basis numerically collinear (tau - k below threshold)."""


class TruncationError(SolverError):
    """Profile approaches its limits too slowly to truncate the line."""


class CoercivityError(SolverError):
    """Discrete energy form failed its lower-bound check."""


class CoercivitySearchError(SolverError):
    """An endpoint form at the truncation points is not positive semidefinite."""


class BracketError(SolverError):
    """Root bracket does not enclose a sign change."""


class RankError(SolverError):
    """Requested more eigenpairs than the weighted mass matrix supports."""


class GluingError(SolverError):
    """Inner solution cannot be extended by decaying tails."""


class ExtrapolationError(SolverError):
    """Evaluation requested beyond the sampled outer region."""


class StepSizeError(SolverError):
    """Finite-difference step too small for the eigensolve noise floor."""


class StiffnessError(SolverError):
    """Adaptive integrator failed; a smaller step may be required."""


class ConfigError(SolverError):
    """Malformed or incomplete run configuration."""
