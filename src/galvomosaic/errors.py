"""Exception types raised across the package.

Every error that a pipeline stage can raise is a subclass of
:class:`GalvoMosaicError`, so CLI code can catch one type and turn it
into a diagnostic plus a nonzero exit code.
"""


class GalvoMosaicError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GalvoMosaicError):
    """Invalid configuration value; the message names the offending key."""


class IndexRangeError(GalvoMosaicError):
    """Scan index or pixel coordinate outside its valid range."""


class DegenerateGridError(GalvoMosaicError):
    """Grid too small for the requested trajectory (e.g. 1-column sinusoid)."""


class DimensionMismatchError(GalvoMosaicError):
    """Arrays that must share a shape do not."""


class InvalidReferenceError(GalvoMosaicError):
    """Reference frames or levels unusable for response fitting."""


class CoverageError(GalvoMosaicError):
    """A tile placement falls outside the available ground-truth image."""


class CompositionError(GalvoMosaicError):
    """Canvas accumulation produced an inconsistent state."""


class NoOverlapError(GalvoMosaicError):
    """An overlap sample is empty."""


class DegenerateFitError(GalvoMosaicError):
    """Least-squares fit undefined (constant predictor samples)."""


class UndefinedCnrError(GalvoMosaicError):
    """CNR undefined because the background has zero variance."""
