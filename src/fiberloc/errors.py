"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Malformed or inconsistent input (dimensions, schemas, non-Hermitian data)."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation (e.g. not PSD)."""


class ProjectionError(RuntimeError):
    """Gauss-Newton projection onto the zero set failed to converge."""


class StateError(RuntimeError):
    """A localization state violates its invariants (e.g. the trace bound)."""


class PathAbort(RuntimeError):
    """A simulated path had to stop early. Carries partial diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
