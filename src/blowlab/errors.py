"""Exception types shared across the library."""


class BlowlabError(Exception):
    """Base class for all library errors."""


class ConfigError(BlowlabError):
    """Malformed configuration or invalid parameter combination."""


class DomainError(BlowlabError):
    """Point or parameter outside the validity region of an operation."""


class NewtonError(BlowlabError):
    """Newton iteration failed to converge; carries the residual trace."""

    def __init__(self, message, trace=None, point=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
        self.point = point


class FootPointError(NewtonError):
    """Foot-point projection onto a graph surface did not converge."""


class BoundFailureError(BlowlabError):
    """A certified two-sided bound degenerated (ratio out of range)."""


class LocalizationError(BlowlabError):
    """Outer-data bracket disagreement exceeds tolerance in the core region."""


class MissingArtifactError(BlowlabError):
    """A pipeline stage requires an upstream artifact that does not exist
    or does not parse."""
