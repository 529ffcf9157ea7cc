"""Exception types shared across the toolkit."""


class CaflowError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CaflowError, ValueError):
    """Invalid input: bad geometry, broken invariants, parse failures, a path
    that cannot be read or written.

    ``diagnostics`` optionally carries (line_number, message) pairs from the
    config parser; line_number is None for whole-file problems.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class UnstableSystemError(CaflowError, ValueError):
    """A closed-form result was requested at or beyond the stability boundary."""


class UnsupportedGeometryError(CaflowError, ValueError):
    """Operation restricted to single-area cells was called with several areas."""


class InfeasibleTargetError(CaflowError, ValueError):
    """Throughput target exceeds what an empty system could deliver."""


class StateSpaceTooLargeError(CaflowError, RuntimeError):
    """Enumeration would exceed the configured state budget."""


class ConvergenceError(CaflowError, RuntimeError):
    """A stationary solve or a simulator probe failed to reach an estimate."""


class DegenerateSolveError(CaflowError, RuntimeError):
    """Stationary distribution is inconsistent with the offered traffic."""
