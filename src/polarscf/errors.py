"""Exception hierarchy shared by all polarscf modules."""


class PolarSCFError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PolarSCFError, ValueError):
    """An argument is outside its documented domain."""


class InvalidPermutationError(ParameterError):
    """The images of a permutation are not a bijection on 1..n."""


class CapacityError(PolarSCFError):
    """Input exceeds a hard enumeration or table limit."""


class ShapeError(PolarSCFError, ValueError):
    """Array lengths or dimensions do not match."""


class PreconditionError(PolarSCFError):
    """A documented precondition on the input state was violated."""


class DomainError(PolarSCFError, ValueError):
    """A physical/mathematical domain restriction was violated (CLI exit 3)."""


class ConvergenceError(PolarSCFError):
    """Iteration failed to converge (CLI exit 2).

    Attributes
    ----------
    trace : list of dict
        Per-iteration convergence record (energy, deltas).
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class SingularityError(PolarSCFError):
    """A linear system that must be regular was singular."""


class SymmetryViolationError(PolarSCFError):
    """Data violates a required symmetry beyond tolerance.

    Attributes
    ----------
    asymmetry : float
        Largest detected violation.
    """

    def __init__(self, message, asymmetry=None):
        super().__init__(message)
        self.asymmetry = asymmetry


class ConfigError(DomainError):
    """Malformed or out-of-domain configuration text.

    Attributes
    ----------
    line : int or None
        1-based line number of the offending entry, when known.
    key : str or None
        Offending key name, when known.
    """

    def __init__(self, message, line=None, key=None):
        super().__init__(message)
        self.line = line
        self.key = key
