"""Closed-form reference laws for rare-event hitting and return times.

Everything here is a pure function of its inputs. The module collects the
exponential limit family in one formula, `consecutive_asymptote`, for d
consecutive inter-hit gaps (d = 1 gives the hitting factor theta*e^{-theta*t}
and the return factor theta^2*e^{-theta*t}), the continued-fraction
large-digit predictions with their prime-restricted variant, and
Gauss-measure digit-cell values.

All logarithms are natural; base-2 logarithms enter only through the Gauss
density normalization 1/ln(2) at formula boundaries.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ValidationError, _flag, _int_tuple
from .primes import is_prime, primes_up_to

LN2 = math.log(2.0)


def consecutive_asymptote(
    theta: float,
    mu_a: float,
    gaps: Sequence[int],
    hitting_start: bool,
) -> float:
    """Exponential asymptote for d consecutive inter-hit gaps of a target of measure mu_a.

    ``theta`` is the extremal index in (0, 1]. With a stationary start
    (``hitting_start=True``, the first time is a plain hitting time) the
    prefactor is theta^(2d-1); conditioned on starting in the target it is
    theta^(2d). Both carry mu_a^d * exp(-theta * mu_a * sum(gaps)). At d = 1
    these are the hitting and return masses theta*e^(-theta*t)*mu_a and
    theta^2*e^(-theta*t)*mu_a at t = mu_a*k; the return law's missing mass
    1 - theta is its atom of instant returns.
    """
    gaps = _int_tuple(gaps, "gaps", 1)
    if not gaps:
        raise ValidationError("gap list must be nonempty")
    if not (0.0 < theta <= 1.0):
        raise ValidationError(f"theta must lie in (0, 1], got {theta}")
    if not (0.0 < mu_a < 1.0):
        raise ValidationError(f"mu_a must lie in (0, 1), got {mu_a}")
    d = len(gaps)
    power = 2 * d - 1 if _flag(hitting_start, "hitting_start") else 2 * d
    total = float(sum(gaps))
    return theta**power * math.exp(-theta * (mu_a * total)) * mu_a**d


def cf_joint_asymptote(
    threshold: int,
    gaps: Sequence[int],
    marks: Sequence[int],
    prime_variant: bool = False,
) -> float:
    """Product-form prediction for a joint (gap, mark) cell of CF large digits.

    ``threshold`` is the digit cutoff l >= 2, ``gaps`` the d inter-hit
    distances k^(j) >= 1, ``marks`` the observed digit values a^(j) >= l.
    With ``prime_variant`` the marks must additionally be prime and the decay
    rate of the gaps slows from 1/(l*ln2) to 1/(l*ln(l)*ln2). Each factor is
    exp(-k * rate) / (a^2 * ln2), where the rate is the asymptotic target
    measure `cf_rare_set_measure`.
    """
    (threshold,) = _int_tuple((threshold,), "threshold", 2)
    if len(gaps) != len(marks) or not gaps:
        raise ValidationError("gaps and marks must be nonempty and of equal length")
    gaps = _int_tuple(gaps, "gaps", 1)
    marks = _int_tuple(marks, f"marks of threshold {threshold}", threshold)
    prime_variant = _flag(prime_variant, "prime_variant")
    if prime_variant and not all(is_prime(a) for a in marks):
        raise ValidationError(f"prime variant requires prime marks, got {marks}")
    rate = cf_rare_set_measure(threshold, prime_variant)
    value = 1.0
    for k, a in zip(gaps, marks):
        value *= math.exp(-k * rate) / (float(a) ** 2 * LN2)
    return value


def cf_rare_set_measure(threshold: int, prime_variant: bool = False) -> float:
    """Asymptotic Gauss measure of the large-digit target {a >= l}.

    Returns 1/(l*ln2), or 1/(l*ln(l)*ln2) when restricted to prime digits.
    The exact (non-asymptotic) measure of {a >= l} is `threshold_cell_measure`.
    """
    (threshold,) = _int_tuple((threshold,), "threshold", 2)
    if _flag(prime_variant, "prime_variant"):
        return 1.0 / (threshold * math.log(threshold) * LN2)
    return 1.0 / (threshold * LN2)


def threshold_cell_measure(threshold: int) -> float:
    """Exact Gauss measure of {a >= l}: log2(1 + 1/l), valid for l >= 1."""
    (threshold,) = _int_tuple((threshold,), "threshold", 1)
    return math.log1p(1.0 / threshold) / LN2


def prime_threshold_measure(threshold: int, sieve_bound: int = 10**7) -> float:
    """Near-exact Gauss measure of {a >= l, a prime}.

    Sums exact digit-cell measures over primes up to ``sieve_bound`` and adds
    the prime-number-theorem tail estimate 1/(B*ln(B)*ln2), leaving a relative
    remainder of order 1/ln(B). With the default bound the absolute error is
    below 1e-8, far inside every tolerance used against this quantity.
    """
    threshold, sieve_bound = _int_tuple((threshold, sieve_bound), "threshold and sieve_bound", 2)
    if sieve_bound <= threshold:
        raise ValidationError("sieve_bound must exceed threshold")
    ps = np.array([p for p in primes_up_to(sieve_bound) if p >= threshold], dtype=float)
    total = float(np.sum(np.log1p(1.0 / (ps * (ps + 2.0))))) / LN2
    tail = 1.0 / (sieve_bound * math.log(sieve_bound) * LN2)
    return total + tail


def gauss_digit_cell_measure(k: int) -> float:
    """Exact Gauss measure of the digit cell I_k = (1/(k+1), 1/k].

    Equals log2((k+1)^2 / (k*(k+2))); partial sums over k <= K telescope to
    1 - log2(1 + 1/(K+1)).
    """
    (k,) = _int_tuple((k,), "digit index", 1)
    return math.log1p(1.0 / (k * (k + 2.0))) / LN2
