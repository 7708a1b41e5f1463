"""Error types shared across the package.

All inherit ValueError so callers that only care about "bad input" can catch
one thing; the CLI maps them onto exit codes (config -> 2, everything else
model-side -> 3).
"""


class NldefError(ValueError):
    """Base class for all package errors."""


class DimensionError(NldefError):
    """Unsupported or mismatched dimension."""


class ParameterError(NldefError):
    """Parameter outside its admissible range."""


class DomainError(NldefError):
    """Point outside the admissible domain (box, PSD cone, sample range, ...)."""


class ModelError(NldefError):
    """Request outside the model class (e.g. jump field where W^{1,p} is required)."""


class ConfigError(NldefError):
    """Malformed configuration; message carries the offending field path."""


class InsufficientDataError(NldefError):
    """Not enough records for the requested estimate."""


class WorkerError(NldefError):
    """A pool worker process died, and so did one of the rebuilt pool."""
