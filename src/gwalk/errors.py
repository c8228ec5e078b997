"""Exception hierarchy shared by all gwalk modules, and the checks of each
kind of argument, which the CLI's config table and the library share."""

import math
from collections.abc import Sequence
from numbers import Integral, Real

import numpy as np


class WalkError(Exception):
    """Base class for all gwalk errors."""


class ConfigurationError(WalkError):
    """Invalid input: bad lattice shape, inadmissible wavenumber, bad config."""


class SignConditionError(ConfigurationError):
    """A gravitational-wave amplitude constant violates its sign condition."""


class GeometryError(WalkError):
    """Degenerate geometry: singular cosine matrix or malformed triad."""


class ConsistencyError(WalkError):
    """An internal cross-check failed beyond its tolerance."""


# ---------------------------------------------------------------------------
# argument kinds: each checks a value named ``name`` and returns it resolved
# ---------------------------------------------------------------------------

#: the lower bounds a finite number may take, by the word that names them
_BOUNDS = {"positive": (0.0).__lt__, "nonnegative": (0.0).__le__}


def _is(value, kind) -> bool:
    """``value`` is a ``numbers`` ``kind``; a bool is not a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def finite(value, name: str, bound: str | None = None) -> float:
    """A real number, finite as a float, within ``bound``."""
    try:
        number = float(value) if _is(value, Real) else math.nan
    except OverflowError:  # an integer past the float range
        number = math.nan
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    if bound and not _BOUNDS[bound](number):
        raise ConfigurationError(f"{name} must be {bound}, got {value!r}")
    return number


def optional(value, name: str, kind, *constraint):
    return None if value is None else kind(value, name, *constraint)


def finite_list(value, name: str, bound: str | None = None,
                minimum: int = 1) -> tuple[float, ...]:
    """A sequence (not a string) or 1-D array of at least ``minimum`` finite
    numbers, each within ``bound``."""
    listed = (value.ndim == 1 if isinstance(value, np.ndarray)
              else isinstance(value, Sequence) and not isinstance(value, str))
    if not listed or len(value) < minimum:
        raise ConfigurationError(f"{name} must be a list of >= {minimum} numbers, "
                                 f"got {value!r}")
    return tuple(finite(v, name, bound) for v in value)


def integer(value, name: str, minimum: int) -> int:
    if not _is(value, Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def even_pair(value, name: str) -> tuple[int, int]:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(_is(v, Integral) and v > 0 and v % 2 == 0 for v in value)):
        raise ConfigurationError(
            f"{name} must be two positive even integers, got {value!r}")
    return tuple(value)


def choice(value, name: str, choices: tuple) -> str:
    if value not in choices:
        raise ConfigurationError(
            f"unknown {name} {value!r}; choose one of {', '.join(choices)}")
    return value
