"""Stationary symbolic-orbit simulation by exact inverse-branch backward sampling.

Forward iteration of an expanding interval map loses a digit of precision per
step and is useless after ~50 steps. Instead we simulate the time reversal of
the stationary dynamics: starting from a point drawn from the invariant law,
repeatedly choose an inverse branch v_k with probability

    p_k(y) = h(v_k(y)) * |v_k'(y)| / h(y),

which is the conditional law of the preimage under stationarity. Every
backward step is a contraction, so arbitrarily long digit sequences come out
at full statistical fidelity. Reading the recorded branch indices in reverse
generation order yields a stationary forward digit sequence: if y_0 ~ mu and
y_j = v_{k_j}(y_{j-1}), then (y_n, k_n, k_{n-1}, ..., k_1) is distributed as
(x, a_1(x), ..., a_n(x)) with x ~ mu.

Concrete systems: the continued-fraction (Gauss) map, whose branch law has a
closed-form inverse CDF thanks to the telescoping cumulative
C_K(y) = 1 - (1+y)/(K+1+y), and the doubling map as the fair-bit reference
system that cross-validates against the exact Markov-shift oracle.

The generator is pinned by specification to Philox (counter-based, 64-bit
seed, substream index in the second key word) so streams are reproducible
across platforms and replicas never overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SamplingError, ValidationError
from .primes import is_prime

__all__ = [
    "BranchSystem",
    "DigitStream",
    "GAUSS",
    "DOUBLING",
    "doubling_branch_sample",
    "gauss_branch_sample",
    "gauss_stationary_point",
    "generate_stream",
    "is_prime",
    "make_rng",
    "system_by_name",
]

DIGIT_CAP = 2**62
DEFAULT_BLOCK = 2**16


def make_rng(seed: int, substream: int = 0) -> np.random.Generator:
    """Philox generator for a (seed, substream) pair.

    Distinct substreams are independent by construction of the keyed counter
    generator, which is what makes replica parallelism reproducible.
    """
    if not (0 <= int(seed) < 2**64):
        raise ValidationError(f"seed must be an unsigned 64-bit integer, got {seed}")
    if not (0 <= int(substream) < 2**64):
        raise ValidationError(f"substream must be an unsigned 64-bit integer, got {substream}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, substream], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# Gauss continued-fraction map
# ---------------------------------------------------------------------------


def gauss_stationary_point(u: float) -> float:
    """Inverse-CDF sample of the Gauss law: the CDF is log2(1+x), so x = 2^u - 1."""
    if not (0.0 <= u < 1.0):
        raise ValidationError(f"u must lie in [0, 1), got {u}")
    return 2.0**u - 1.0


def gauss_branch_sample(y: float, u: float) -> tuple[int, float]:
    """Closed-form backward step: digit k and preimage 1/(k+y).

    k is the smallest K with C_K(y) >= u, which solves to
    k = max(1, ceil((1+y)/(1-u) - 1 - y)).
    """
    if not (0.0 <= y < 1.0):
        raise ValidationError(f"y must lie in [0, 1), got {y}")
    if not (0.0 <= u < 1.0):
        raise ValidationError(f"u must lie in [0, 1), got {u}")
    raw = (1.0 + y) / (1.0 - u) - 1.0 - y
    k = max(1, math.ceil(raw))
    if k > DIGIT_CAP:
        raise SamplingError(f"digit {k} above cap 2**62; refusing to wrap")
    return k, 1.0 / (k + y)


def _gauss_stationary_array(u: np.ndarray) -> np.ndarray:
    return np.exp2(u) - 1.0


def _gauss_branch_array(y: np.ndarray, u: np.ndarray, k: np.ndarray) -> None:
    # gauss_branch_sample's operation order, so digits and preimages are
    # bit-identical to it: k = max(ceil((1+y)/(1-u) - 1 - y), 1), y = 1/(k+y)
    np.subtract(1.0, u, out=u)
    np.add(1.0, y, out=k)
    k /= u
    k -= 1.0
    k -= y
    np.ceil(k, out=k)
    np.maximum(k, 1.0, out=k)
    if k.max() > DIGIT_CAP:
        raise SamplingError("digit above cap 2**62; refusing to wrap")
    y += k
    np.divide(1.0, y, out=y)


# ---------------------------------------------------------------------------
# Doubling map
# ---------------------------------------------------------------------------


def doubling_branch_sample(y: float, u: float) -> tuple[int, float]:
    """Backward step of the doubling map: fair bit, preimage (y+bit)/2."""
    if not (0.0 <= y < 1.0):
        raise ValidationError(f"y must lie in [0, 1), got {y}")
    if not (0.0 <= u < 1.0):
        raise ValidationError(f"u must lie in [0, 1), got {u}")
    bit = 1 if u >= 0.5 else 0
    return bit, (y + bit) / 2.0


def _doubling_stationary_array(u: np.ndarray) -> np.ndarray:
    return u.copy()


def _doubling_branch_array(y: np.ndarray, u: np.ndarray, k: np.ndarray) -> None:
    np.greater_equal(u, 0.5, out=k)
    y += k
    y /= 2.0


# ---------------------------------------------------------------------------
# System objects and stream generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchSystem:
    """A piecewise-invertible interval map with closed-form backward sampling.

    ``branch_sample(y, u)`` returns (digit, preimage). The array variants are
    the vectorized forms used by the replica estimators; ``branch_array(y, u,
    k)`` works in place and returns None: it overwrites ``y`` with the
    preimages and ``k`` with the digits as float64 (integer-valued, exact
    below ``DIGIT_CAP``), and may use ``u`` as scratch.
    """

    name: str
    stationary_point: Callable[[float], float]
    branch_sample: Callable[[float, float], tuple[int, float]]
    stationary_array: Callable[[np.ndarray], np.ndarray]
    branch_array: Callable[[np.ndarray, np.ndarray, np.ndarray], None]


GAUSS = BranchSystem(
    name="gauss",
    stationary_point=gauss_stationary_point,
    branch_sample=gauss_branch_sample,
    stationary_array=_gauss_stationary_array,
    branch_array=_gauss_branch_array,
)

DOUBLING = BranchSystem(
    name="doubling",
    stationary_point=lambda u: u,
    branch_sample=doubling_branch_sample,
    stationary_array=_doubling_stationary_array,
    branch_array=_doubling_branch_array,
)


def system_by_name(name: str) -> BranchSystem:
    try:
        return {"gauss": GAUSS, "doubling": DOUBLING}[name]
    except KeyError:
        raise ValidationError(f"unknown branch system {name!r}") from None


@dataclass(frozen=True)
class DigitStream:
    """A stationary forward digit sequence a_1..a_N of a branch system.

    ``anchor_point`` is the orbit point whose digits the stream holds (the
    final point of the backward chain); successive forward points satisfy
    y_prev = v_digit(y_next) exactly, which tests verify to one ulp.
    """

    system: str
    seed: int
    substream: int
    digits: np.ndarray
    anchor_point: float

    def __post_init__(self) -> None:
        d = np.asarray(self.digits, dtype=np.int64)
        d.setflags(write=False)
        object.__setattr__(self, "digits", d)

    def __len__(self) -> int:
        return int(self.digits.size)

    def export_binary(self, path) -> None:
        """Write the digits as little-endian 64-bit integers for external audit."""
        self.digits.astype("<i8").tofile(path)

    def export_text(self, path) -> None:
        """Write the digits as newline-delimited decimal text."""
        with open(path, "w", encoding="ascii") as handle:
            for d in self.digits:
                handle.write(f"{int(d)}\n")


def generate_stream(
    system: BranchSystem,
    seed: int,
    n: int,
    substream: int = 0,
) -> DigitStream:
    """Generate a stationary digit stream of length n.

    Runs n backward steps from a stationary start, drawing uniforms in blocks
    of ``DEFAULT_BLOCK``, and returns the branch indices in reverse generation
    order; reversing the whole materialized buffer is the same as reversing
    each block and consuming blocks last-generated-first.
    """
    if n < 1:
        raise ValidationError(f"stream length must be >= 1, got {n}")
    rng = make_rng(seed, substream)
    y = system.stationary_point(float(rng.random()))
    buf = np.empty(n, dtype=np.int64)
    sample = system.branch_sample
    pos = 0
    while pos < n:
        us = rng.random(min(DEFAULT_BLOCK, n - pos))
        for u in us:
            k, y = sample(y, float(u))
            buf[pos] = k
            pos += 1
    return DigitStream(
        system=system.name,
        seed=int(seed),
        substream=int(substream),
        digits=buf[::-1].copy(),
        anchor_point=y,
    )
