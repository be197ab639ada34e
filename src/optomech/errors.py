"""Shared exception types.

Exit-code mapping used by the CLI: ConfigError -> 1, IntegrationError -> 2,
TruncationError -> 3, WorkerError -> 4.
"""


class TruncationError(ValueError):
    """A truncated Fock space is too small for the requested state.

    Carries the smallest dimension estimated to be adequate, when known.
    """

    def __init__(self, message, required_dim=None):
        super().__init__(message)
        self.required_dim = required_dim


class IntegrationError(RuntimeError):
    """Numerical integration left its validity envelope (norm drift, invariant breakage)."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class WorkerError(RuntimeError):
    """A worker process ended without reporting its items' outcomes."""
