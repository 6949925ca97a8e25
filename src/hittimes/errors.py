"""Semantic exception hierarchy shared across the package."""

from __future__ import annotations

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
    """Whether ``value`` is an integer or an integral float such as 1.0, as a
    JSON "integer" may be; bools, strings and non-finite floats are not."""
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


def _flag(value, what: str) -> bool:
    """``value`` as a bool; anything but a bool or a numpy bool raises, naming
    ``what``, so that a truthy string such as "no" cannot turn a flag on."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{what} must be a bool, got {value!r}")
    return bool(value)
