"""Exception types shared across the toolkit."""


class CaflowError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CaflowError, ValueError):
    """Invalid configuration: bad geometry, broken invariants, parse failures.

    ``diagnostics`` optionally carries (line_number, message) pairs from the
    config parser; line_number is None for whole-file problems.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class EmptyCarrierError(CaflowError, ValueError):
    """A per-user rate was requested on a carrier that serves no one."""


class UnstableSystemError(CaflowError, ValueError):
    """A closed-form result was requested at or beyond the stability boundary."""


class UnsupportedGeometryError(CaflowError, ValueError):
    """Operation restricted to single-area cells was called with several areas."""


class InfeasibleTargetError(CaflowError, ValueError):
    """Throughput target exceeds what an empty system could deliver."""


class StateSpaceTooLargeError(CaflowError, RuntimeError):
    """Enumeration would exceed the configured state budget.

    ``suggested_max_total`` is the largest population cap that fits.
    """

    def __init__(self, message, suggested_max_total=None):
        super().__init__(message)
        self.suggested_max_total = suggested_max_total


class ConvergenceError(CaflowError, RuntimeError):
    """Stationary solve failed to reach the residual tolerance.

    ``residual_trace`` holds the normalized residuals observed along the way.
    """

    def __init__(self, message, residual_trace=None):
        super().__init__(message)
        self.residual_trace = list(residual_trace or [])


class DegenerateSolveError(CaflowError, RuntimeError):
    """Stationary distribution is inconsistent with the offered traffic."""
