"""Exception types shared across the package, and the checks that raise them."""

import cmath

import numpy as np


class CvtError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(CvtError):
    """Invalid parameter, grid geometry, or option combination."""


class DomainError(CvtError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class AccuracyError(CvtError):
    """The requested evaluation cannot meet its accuracy contract."""


class UnsupportedDeconvolutionError(ConfigurationError):
    """A sampled-grid conversion was asked to run in the deconvolving direction."""


class NotSeparableError(CvtError):
    """A separable decomposition was requested for a state that has none."""


# the scalar types of a real number and of a number (a bool is an int, and no number)
_REALS = (int, float, np.integer, np.floating)
_NUMBERS = (int, float, complex, np.number)


def as_number(x, what: str, dtype=float, finite: bool = True):
    """``x`` as a Python ``dtype`` (float or complex) if it is an int, a float or,
    for complex, a complex value; a bool, None, text, an array or any other
    object, or a NaN or infinity with ``finite`` set, raises ConfigurationError."""
    try:
        if not isinstance(x, _REALS if dtype is float else _NUMBERS) or isinstance(x, bool):
            raise TypeError
        v = dtype(x)
    except (TypeError, OverflowError):  # not a number, or an int past the float range
        raise ConfigurationError(f"{what} must be a number, got {x!r}") from None
    if finite and not cmath.isfinite(v):
        raise ConfigurationError(f"{what} must be finite, got {x!r}")
    return v


def as_array(x, what: str, dtype=float, finite: bool = True) -> np.ndarray:
    """``x`` (a number or anything array-like) as an ndarray of ``dtype``, under
    the rule of :func:`as_number` for each entry."""
    try:
        v = np.asarray(x)
        if v.dtype.kind not in "iuf" + "c" * (dtype is complex):  # bools, text, objects
            raise TypeError
        v = v.astype(dtype, copy=False)
    except (TypeError, ValueError):  # ragged nesting
        raise ConfigurationError(f"{what} must be a number, got {x!r}") from None
    if finite and not np.isfinite(v).all():
        raise ConfigurationError(f"{what} must be finite, got {x!r}")
    return v


def as_index(x, what: str, lo=0, hi=None) -> int:
    """``x`` as an int if it is an integer (not a bool) in [lo, hi], where a
    None bound is open; otherwise a ConfigurationError naming ``what``."""
    if (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            and (lo is None or lo <= x) and (hi is None or x <= hi)):
        return int(x)
    bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise ConfigurationError(f"{what} must be an integer{bounds}, got {x!r}")


def as_kind(x, kind: type, what: str):
    """``x`` itself if it is a ``kind``; otherwise a ConfigurationError naming ``what``."""
    if not isinstance(x, kind):
        raise ConfigurationError(f"{what} takes a {kind.__name__}, got {type(x).__name__}")
    return x
