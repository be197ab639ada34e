"""Shared exception types.

Exit-code mapping used by the CLI: ConfigError, OutputError and the
builtin MemoryError (a job too large for memory) -> 1, IntegrationError
-> 2, TruncationError -> 3, WorkerError -> 4.
"""


class TruncationError(ValueError):
    """A truncated Fock space is too small for the requested state."""


class IntegrationError(RuntimeError):
    """Numerical integration left its validity envelope (norm drift, invariant breakage)."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class WorkerError(RuntimeError):
    """A worker process ended without reporting its items' outcomes."""


class OutputError(RuntimeError):
    """An output file that the OS refused to write."""
