"""Semantic exception hierarchy shared across the package."""

from __future__ import annotations

import math
import numbers

import numpy as np


class HitTimesError(Exception):
    """Base error for this package."""


class ValidationError(HitTimesError, ValueError):
    """Inputs violate a contract: domain, shape, or consistency checks."""


class NumericalDriftError(HitTimesError, FloatingPointError):
    """Accumulated floating error exceeded the mass-balance tolerance."""


class ProbabilityUnderflowError(HitTimesError):
    """A chained exact probability underflowed below 1e-300."""


class BudgetExceededError(HitTimesError):
    """A requested exact computation exceeds the configured size budget."""


class InsufficientDataError(HitTimesError):
    """A Monte-Carlo estimate has fewer observations than required."""


class SamplingError(HitTimesError):
    """A sampler produced a value outside its supported range."""


class ConfigError(ValidationError):
    """An experiment configuration failed schema validation."""


def _is_integral(value) -> bool:
    """Whether ``value`` is an integer or an integral float such as 1.0; bools,
    strings and non-finite floats are not. Python callers may pass integral
    floats (``n_replicas=1e6``); the CLI refuses them in a config."""
    if type(value) is int:  # the common case, ahead of the slower ABC checks
        return True
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or float(value).is_integer()


def _int_tuple(values, what: str, lo: int, hi: int | None = None) -> tuple[int, ...]:
    """``values`` as a tuple of ints; anything that is not an integral number
    in [lo, hi) (no upper bound when ``hi`` is None) raises, naming ``what``."""
    v = tuple(values)
    if not all(_is_integral(c) and lo <= c and (hi is None or c < hi) for c in v):
        bounds = f"be >= {lo}" if hi is None else f"lie in [{lo}, {hi})"
        raise ValidationError(f"{what} must {bounds}, as integers; got {v}")
    return tuple(map(int, v))


def _int_array(values, what: str, lo: int, hi: int | None = None, ndim: int = 1) -> np.ndarray:
    """``values`` as an int64 array of ``ndim`` >= 1 axes of integral numbers in
    [lo, hi), lo >= -2**63, and below 2**63 whatever ``hi`` is; anything else
    raises, naming ``what``, rather than be cast, which would read 1.5 and True as 1.

    An integer ndarray comes back as int64, the array itself when it is one:
    unscanned when its dtype holds no value outside the bounds, else checked
    with one min and one max. Anything else (lists, float and bool arrays, an
    integer array out of bounds) goes row by row through `_int_tuple`, so a
    refusal names the first bad row: in 1-D, the first bad entry.
    """
    a = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if a.ndim != ndim:
        raise ValidationError(f"{what} must be {ndim}-D, got shape {a.shape}")
    if a.dtype.kind in "iu":
        top = 2**63 if hi is None else min(hi, 2**63)
        info = np.iinfo(a.dtype)
        held = lo <= info.min and info.max < top  # no value of the dtype is out of bounds
        if held or not a.size or lo <= int(a.min()) and int(a.max()) < top:
            return a.astype(np.int64, copy=False)
    rows = a.reshape(a.shape[0], math.prod(a.shape[1:])).tolist()
    rows = [_int_tuple(row, what, lo, hi) for row in rows]
    try:
        return np.array(rows, dtype=np.int64).reshape(a.shape)
    except OverflowError:
        big = next(row for row in rows if max(row) >= 2**63)
        raise ValidationError(f"{what} must be in the int64 range, got {big}") from None


def _flag(value, what: str) -> bool:
    """``value`` as a bool; anything but a bool or a numpy bool raises, naming
    ``what``, so that a truthy string such as "no" cannot turn a flag on."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{what} must be a bool, got {value!r}")
    return bool(value)
