"""Error hierarchy shared by the whole package.

Every error raised on purpose derives from ObsdiamError so callers (and the
CLI exit-code mapping) can distinguish our failures from genuine bugs.
"""


class ObsdiamError(Exception):
    """Base class for all package errors."""


class DomainError(ObsdiamError):
    """An argument is outside the mathematical domain of the operation."""


class ValidationError(ObsdiamError):
    """Structured data violates an invariant (bad masses, broken metric, ...)."""


class ResourceCapError(ObsdiamError):
    """An enumeration cap would be exceeded; raise the cap explicitly to proceed."""


def check_cap(count: int, cap: int, what: str, *, keyword: str = "cap_n") -> None:
    """Raise ResourceCapError when ``count`` exceeds ``cap``.  ``what`` reads
    "<items> exceed the <name> cap"; the library keyword ``keyword`` and the
    CLI's ``--cap-n`` raise the cap."""
    if count > cap:
        raise ResourceCapError(f"{count} {what} {cap}; raise {keyword} (--cap-n) to proceed")


class VerificationError(ObsdiamError):
    """A computed result failed its own certificate check.

    Raised explicitly rather than through ``assert``, so the check still runs
    under ``python -O``.  It signals a bug in the package, not bad input.
    """
