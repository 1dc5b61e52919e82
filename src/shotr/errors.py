"""Exception types raised across the package."""


class ShotrError(Exception):
    """Base class for all errors raised by this package."""


class MalformedRow(ShotrError):
    """A CSV row could not be parsed; the message carries the line number."""


class DuplicateTimestamp(ShotrError):
    """Two samples of the same track share a timestamp."""


class NonMonotoneTimes(ShotrError):
    """Sample times are not strictly increasing."""


class OutOfDomain(ShotrError):
    """An evaluation time lies outside the reconstructed time span."""


class UnsupportedDegree(ShotrError):
    """Requested degree outside the supported range."""


class CheckFailed(ShotrError):
    """One or more validation gates were violated in ``--check`` mode."""
