"""Shared exception types and process exit conventions."""

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INTERNAL = 2


class DomainError(ValueError):
    """Invalid input: wrong dimensions, non-dominant weight, malformed data."""


class NotDoubled(DomainError):
    """A Jordan type that should consist of doubled parts does not."""


class CapExceeded(DomainError):
    """A configured limit was hit; ``knob`` names the config key to raise."""

    def __init__(self, knob: str, message: str):
        super().__init__(message)
        self.knob = knob


class InternalInconsistency(RuntimeError):
    """A mathematically impossible state; signals an implementation bug."""


class SelfCheckFailed(InternalInconsistency):
    """A constructed object failed its independent verification."""

