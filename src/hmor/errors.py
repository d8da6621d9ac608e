"""Exception hierarchy shared across the package.

The CLI maps these onto distinct process exit codes, so new error
conditions should subclass one of the three branches below rather than
raising bare built-ins.
"""


class HmorError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(HmorError, ValueError):
    """An argument violates a documented precondition or invariant."""


class InvalidDepthError(InvalidInputError):
    """A depth that must be strictly positive is not."""


class BehindCameraError(InvalidInputError):
    """A 3D point with non-positive depth cannot be projected."""


class GenerationError(HmorError):
    """Synthetic scene generation could not satisfy its constraints."""


class NumericalError(HmorError):
    """A computation produced a non-finite value."""
