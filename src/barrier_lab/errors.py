"""Exception hierarchy shared by all modules."""


class BarrierLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(BarrierLabError):
    """A constructor argument is out of its admissible range."""


class StructuralError(BarrierLabError):
    """An evaluator output has an inconsistent shape or dtype, or is not finite."""


class DefinitenessError(BarrierLabError):
    """A weight matrix is not symmetric positive definite."""


class InfeasibleProblemError(BarrierLabError):
    """No KKT-certified point exists for the constraint rows.

    Carries the index of the most violated row and its violation.
    """

    def __init__(self, message, row=None, violation=None):
        super().__init__(message)
        self.row = row
        self.violation = violation


class StrictFeasibilityError(BarrierLabError):
    """g(x)^T grad_h(x) is degenerate where the constraint must bind."""


class NotOnBoundaryError(BarrierLabError):
    """A state expected on the zero level set has |h| above tolerance."""


class AssumptionViolationError(BarrierLabError):
    """A structural assumption (e.g. constant D matrix) fails numerically."""


class PreconditionError(BarrierLabError):
    """An operation was called outside its stated preconditions."""


class ConfigError(BarrierLabError):
    """A scenario config failed to parse or validate.

    ``path`` is the dotted location inside the config document and ``line``
    the 1-based line in the source file when it could be determined.
    """

    def __init__(self, message, path=None, line=None):
        super().__init__(message)
        self.path = path
        self.line = line

    def __str__(self):
        prefix = ""
        if self.line is not None:
            prefix += "line %d: " % self.line
        if self.path:
            prefix += "%s: " % self.path
        return prefix + super().__str__()
