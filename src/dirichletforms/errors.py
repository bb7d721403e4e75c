"""Exception hierarchy shared across the package."""


class DirichletFormError(Exception):
    """Base class for all package errors."""


class StructuralError(DirichletFormError, ValueError):
    """Mismatched spaces, unknown points, malformed data."""


class ParameterError(DirichletFormError, ValueError):
    """A numeric parameter is outside its allowed range."""


class InfeasibleError(DirichletFormError, ValueError):
    """A field violates a hard constraint (boundary, obstacle feasibility)."""


class NonConvergenceError(DirichletFormError, RuntimeError):
    """An iterative solver exhausted its budget.

    The best iterate found so far is attached as ``best``.
    """

    def __init__(self, message, best=None, report=None):
        super().__init__(message)
        self.best = best
        self.report = report


class InconclusiveError(DirichletFormError, RuntimeError):
    """A limit procedure ended without a verdict (extend the schedule)."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class InternalCheckError(DirichletFormError):
    """A result failed one of the package's own consistency checks.

    Raised when a computed value breaks a law it must obey (an equilibrium
    potential leaving [0, h], a capacity whose certified gap exceeds its
    tolerance, a Green trace decreasing along its schedule): a defect of the
    solvers, not of the input.
    """
