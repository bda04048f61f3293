"""The errors of polarscf, one class per way a `polar-scf` run ends.

`ParameterError`, a `ValueError`, is bad input: an argument, config line,
grid or state outside its documented domain (exit 3).  `ConvergenceError`
is a solve that did not converge, and keeps its iteration trace (exit 2).
`PolarSCFError` is their base; raised directly, it is a failed self-check,
such as a nonzero anticommutator in `verify` (exit 3).
"""


class PolarSCFError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PolarSCFError, ValueError):
    """An argument, config line or input is outside its documented domain."""


class ConvergenceError(PolarSCFError):
    """Iteration failed to converge; `trace` holds its per-iteration rows."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
