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

For the two systems here generation order has the forward law as well:
doubling digits are i.i.d., and Gauss cylinders are reversal-symmetric,
mu[a_1..a_n] = mu[a_n..a_1], since the natural extension's density
1/((1+xy)^2 ln 2) is symmetric in x and y. So (k_1, ..., k_n) is distributed
as (a_1, ..., a_n) too, and the replica estimator reads hits in generation
order, which lets a replica stop at its last needed hit. `generate_stream`
returns the reversed order, which is exact for any system and ends at the
anchor point.

Concrete systems: the continued-fraction (Gauss) map, whose branch law has a
closed-form inverse CDF thanks to the telescoping cumulative
C_K(y) = 1 - (1+y)/(K+1+y), and the doubling map as the fair-bit reference
system that cross-validates against the exact Markov-shift oracle.

A single orbit is sequential, yet it runs in parallel lanes. The backward
steps contract, so two orbits driven by the same uniforms coalesce: in float64
an orbit from 0.5 and one from a stationary point become bit-equal after a
median of 17 steps for Gauss and 54 for doubling (99% of 20 000 pairs within
24 and 61 steps, the most 31 and 70). `generate_stream` cuts each chunk of
uniforms into up to 1024 contiguous lanes of 64 steps. Lane 0 starts from the
exact point, every other lane from 0.5, and all lanes advance in lockstep
through ``branch_array``, the one step kernel, recording their points every 8
steps. Then every lane whose start is not bitwise the end of the lane before
it runs again from that end, all such lanes in lockstep, but only until the
first of those marks where every rerun point is bitwise the one recorded
there: the lanes have rejoined their last run, whose digits and end stand.
Rounds go on until every start is an end, so the digits and the anchor point
are those of one backward step per digit whether or not the orbits coalesce;
coalescence only decides how far the reruns go. A full Gauss chunk takes 96
kernel calls (64 steps, then a rerun to step 32), a doubling chunk 128 or 136
(its rerun can outlast the lane, and a third round reruns the lanes after).

A preimage can round to 1.0 (after 54 one-bits in a row for doubling, or a
Gauss digit near 2^53). The kernels are continuous there, so such an orbit
carries on: the Gauss step maps 1.0 to 1/(k+1), and doubling digits do not
depend on the point at all.

The generator is pinned by specification to Philox (counter-based, 64-bit
seed, substream index in the second key word) so streams are reproducible
across platforms and replicas never overlap. The stream and the replica
chunk read its uniforms through one reader, `_Uniforms`, in the order and
with the bits of plain ``random`` calls. When the process may use two CPUs,
the reader draws the next read's uniforms on a helper thread while the
caller runs its kernels (NumPy fills Philox arrays without the GIL), but
only for blocks of at least ``_AHEAD_MIN`` uniforms and never past what the
call can still use; the thread lives only as long as the call.
"""

from __future__ import annotations

import math
import numbers
import os
import queue
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SamplingError, ValidationError, _int_tuple, _is_integral

__all__ = [
    "BranchSystem",
    "DigitStream",
    "GAUSS",
    "DOUBLING",
    "doubling_branch_sample",
    "gauss_branch_sample",
    "generate_stream",
    "make_rng",
    "system_by_name",
]

DIGIT_CAP = 2**62
DEFAULT_BLOCK = 2**16
# a stream chunk of DEFAULT_BLOCK steps runs as _LANES lanes of _MIN_LANE
# steps, a shorter one as fewer lanes; lanes i >= 1 first run from
# _SEED_POINT, and a rerun checks every _MARK steps whether it has rejoined
_LANES = 1024
_MIN_LANE = DEFAULT_BLOCK // _LANES
_MARK = 8
_SEED_POINT = 0.5
# the fewest uniforms worth drawing on a helper thread: below this the
# hand-off costs more than the draw
_AHEAD_MIN = 2**12


def make_rng(seed: int, substream: int = 0) -> np.random.Generator:
    """Philox generator for a (seed, substream) pair.

    Distinct substreams are independent by construction of the keyed counter
    generator, which is what makes replica parallelism reproducible.
    Python callers may pass integral floats such as 1.0; the CLI refuses
    them in a config.
    """
    key = [_key_word("seed", seed), _key_word("substream", substream)]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def _key_word(name: str, value) -> int:
    """An unsigned 64-bit Philox key word; anything not an integral number is refused."""
    if not _is_integral(value) or not 0 <= int(value) < 2**64:
        raise ValidationError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return int(value)


def _spare_cpu() -> bool:
    """Whether this process may run on two CPUs at once, so that a helper
    thread can draw while the caller computes."""
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) >= 2


class _Uniforms:
    """The uniforms of ``make_rng(seed, substream)``, read in order by ``take``.

    ``take(n)`` returns the next n of them: the same numbers, bit for bit, as
    successive ``random`` calls on that generator. ``most`` is the most
    uniforms the caller can still take, and ``take``'s ``most`` lowers it to
    the most that can follow that read. Numbers are drawn in blocks; a read
    inside one block is a view of it, and a read that spans blocks is a
    concatenation. A block drawn ahead starts with the unread numbers of the
    block before it, copied, so a read of it is a view too. No block is read
    twice, so the caller may write into what it took.

    While the caller works on a read of n, a helper thread draws the next
    block, enough fresh numbers to make n unread, but never past ``most``.
    It does so only when the process may use a second CPU and at least
    ``_AHEAD_MIN`` numbers are to be drawn; otherwise each read draws what it
    lacks when it is made. At most one draw is in flight, and the calling
    thread does not draw while one is. The helper starts at the first
    read-ahead and is joined on leaving the ``with`` block, whether or not it
    raised.
    """

    def __init__(self, seed: int, substream: int, most: int) -> None:
        self._rng = make_rng(seed, substream)
        self._undrawn = most  # numbers not yet drawn that can still be taken
        self._block = np.empty(0)
        self._used = 0  # numbers of _block already taken
        self._drawing = False  # whether the helper holds the next block
        self._spare: bool | None = None  # _spare_cpu(), probed at the first chance to read ahead
        self._helper: threading.Thread | None = None

    def __enter__(self) -> "_Uniforms":
        return self

    def __exit__(self, *exc) -> None:
        if self._helper is not None:
            self._orders.put(None)
            self._helper.join()

    def take(self, n: int, most: int | None = None) -> np.ndarray:
        if self._drawing:
            block = self._drawn.get()
            if isinstance(block, BaseException):
                raise block
            self._block, self._used, self._drawing = block, 0, False
        unread = self._block.size - self._used
        if unread < n:
            fresh = self._rng.random(n - unread)
            self._undrawn -= fresh.size
            self._block = np.concatenate((self._block[self._used :], fresh)) if unread else fresh
            self._used = 0
        out = self._block[self._used : self._used + n]
        self._used += n
        unread = self._block.size - self._used
        if most is not None:
            self._undrawn = min(self._undrawn, most - unread)
        fresh = min(n - unread, self._undrawn)
        if fresh >= _AHEAD_MIN:
            if self._spare is None:
                self._spare = _spare_cpu()
            if self._spare:
                self._draw_ahead(fresh)
        return out

    def _draw_ahead(self, fresh: int) -> None:
        """Hand the helper a new block: the unread numbers, copied, and room
        for ``fresh`` more, which it draws."""
        if self._helper is None:
            self._orders, self._drawn = queue.SimpleQueue(), queue.SimpleQueue()
            self._helper = threading.Thread(
                target=_draw_orders, args=(self._rng, self._orders, self._drawn), daemon=True
            )
            self._helper.start()
        unread = self._block[self._used :]
        block = np.empty(unread.size + fresh)
        block[: unread.size] = unread
        self._orders.put((block, unread.size))
        self._block, self._used, self._drawing = block[:0], 0, True
        self._undrawn -= fresh


def _draw_orders(rng: np.random.Generator, orders, drawn) -> None:
    """The helper thread of a `_Uniforms`: for each (block, start) order,
    fill ``block[start:]`` from ``rng`` and pass the block (or the error) on
    to ``drawn``, until the order None."""
    for block, start in iter(orders.get, None):
        try:
            rng.random(out=block[start:])
        except BaseException as exc:  # re-raised by the reading thread
            block = exc
        drawn.put(block)


# ---------------------------------------------------------------------------
# Gauss continued-fraction map
# ---------------------------------------------------------------------------


def gauss_branch_sample(y: float, u: float) -> tuple[int, float]:
    """Closed-form backward step: digit k and preimage 1/(k+y).

    k is the smallest K with C_K(y) >= u, which solves to
    k = max(1, ceil((1+y)/(1-u) - 1 - y)). The scalar reference that
    ``GAUSS.branch_array`` is held to bit for bit. y may be 1.0, since a
    preimage can round to it.
    """
    if not (0.0 <= y <= 1.0):
        raise ValidationError(f"y must lie in [0, 1], got {y}")
    if not (0.0 <= u < 1.0):
        raise ValidationError(f"u must lie in [0, 1), got {u}")
    raw = (1.0 + y) / (1.0 - u) - 1.0 - y
    k = max(1, math.ceil(raw))
    if k > DIGIT_CAP:
        raise SamplingError(f"digit {k} above cap 2**62; refusing to wrap")
    return k, 1.0 / (k + y)


def _gauss_stationary_array(u: np.ndarray) -> np.ndarray:
    # inverse CDF of the Gauss law: the CDF is log2(1+x), so x = 2^u - 1
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
    """Backward step of the doubling map: fair bit, preimage (y+bit)/2.

    The scalar reference that ``DOUBLING.branch_array`` is held to bit for
    bit. y may be 1.0, since a preimage can round to it.
    """
    if not (0.0 <= y <= 1.0):
        raise ValidationError(f"y must lie in [0, 1], got {y}")
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

    ``stationary_array(u)`` is the inverse CDF of the invariant law, applied
    to an array of uniforms; it draws the replicas' starts and, from one
    uniform, the stream's start. ``branch_array(y, u, k)`` is the
    one backward step kernel, for the replica estimators and the stream's
    lanes alike. It works in place and returns None: it overwrites ``y``
    with the preimages and ``k`` with the digits as float64 (integer-valued,
    exact below ``DIGIT_CAP``), and may use ``u`` as scratch. It takes y in
    [0, 1] and u in [0, 1). Every digit lies in ``digit_range``.
    """

    name: str
    stationary_array: Callable[[np.ndarray], np.ndarray]
    branch_array: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    digit_range: tuple[int, float]


GAUSS = BranchSystem(
    name="gauss",
    stationary_array=_gauss_stationary_array,
    branch_array=_gauss_branch_array,
    digit_range=(1, math.inf),
)

DOUBLING = BranchSystem(
    name="doubling",
    stationary_array=_doubling_stationary_array,
    branch_array=_doubling_branch_array,
    digit_range=(0, 1),
)


def system_by_name(name: str) -> BranchSystem:
    try:
        return {"gauss": GAUSS, "doubling": DOUBLING}[name]
    except KeyError:
        raise ValidationError(f"unknown branch system {name!r}") from None


@dataclass(frozen=True)
class DigitStream:
    """A stationary forward digit sequence a_1..a_N, as read-only int64 ``digits``.

    ``anchor_point`` is the orbit point whose digits the stream holds (the
    final point of the backward chain); successive forward points satisfy
    y_prev = v_digit(y_next) exactly, which tests verify to one ulp.
    """

    digits: np.ndarray
    anchor_point: float

    def __post_init__(self) -> None:
        d = _digit_array(self.digits, "digits")
        a = self.anchor_point
        if isinstance(a, bool) or not isinstance(a, numbers.Real) or not 0.0 <= a <= 1.0:
            raise ValidationError(f"anchor point must be a finite number in [0, 1], got {a!r}")
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
            handle.write("".join(f"{d}\n" for d in self.digits.tolist()))


def _digit_array(values, what: str) -> np.ndarray:
    """``values`` as a 1-D int64 array, the array itself when it is one.
    Anything else that is not one axis of integral numbers in the int64
    range is refused, naming ``what``, rather than cast, which would
    truncate 1.5 to 1 and read True as 1."""
    d = np.asarray(values)
    if d.ndim != 1:
        raise ValidationError(f"{what} must be one-dimensional, got shape {d.shape}")
    if not isinstance(values, np.ndarray):
        # asarray reads [2, True] as int64, so look at the elements themselves
        flag = next((v for v in values if isinstance(v, (bool, np.bool_))), None)
        if flag is not None:
            raise ValidationError(f"{what} must be integers in the int64 range, got {flag!r}")
    if d.dtype == np.int64:
        return d
    if d.dtype.kind == "f":
        bad = ~(np.isfinite(d) & (np.trunc(d) == d) & (np.abs(d) < 2.0**63))
    elif d.dtype.kind in "iu":
        bad = d > np.iinfo(np.int64).max
    else:
        bad = np.ones(d.shape, dtype=bool)
    if bad.any():
        raise ValidationError(f"{what} must be integers in the int64 range, got {d[bad].tolist()[0]!r}")
    return d.astype(np.int64)


def _run_lanes(system: BranchSystem, y: float, u: np.ndarray, out: np.ndarray) -> float:
    """Advance y through the uniforms u in contiguous lanes, writing the j-th
    digit to out[j]; return the end point.

    The chunk gets as many lanes of ``_MIN_LANE`` steps as fit, at least 1
    and at most ``_LANES``; when they do not divide it, the first
    ``u.size % lanes`` lanes are one step longer. Lane 0 starts from y, every
    other lane from ``_SEED_POINT``, and round 1 runs them all in lockstep
    through ``branch_array`` over their full length, recording every lane's
    point every ``_MARK`` steps. Each later round reruns, in lockstep, the
    lanes from the first to the last whose start is not bitwise the end of
    the lane before it, each from that end (a lane between them whose start
    was right repeats its last run). The round stops at the first mark where
    every rerun lane's point is bitwise the one its last run recorded there:
    the kernel is a function of (y, u), so from that mark on the digits and
    ends are those of the last run. The first stale lane starts from an exact
    end, so each round leaves one more lane exact and at most as many rounds
    as lanes run: the result is exact whether or not the orbits rejoin.
    """
    lanes = max(1, min(_LANES, u.size // _MIN_LANE))
    m, r = divmod(u.size, lanes)
    head = r * (m + 1)
    # column i is lane i; row m holds the last step of the first r (long) lanes
    uu = np.empty((m + 1, lanes))
    uu[:, :r] = u[:head].reshape(r, m + 1).T
    uu[:m, r:] = u[head:].reshape(lanes - r, m).T
    kk = np.empty_like(uu)
    marks = np.full((m // _MARK, lanes), np.nan)  # no point is NaN: round 1 runs out
    begins = np.full(lanes, _SEED_POINT)
    begins[0] = y
    ends = np.empty(lanes)
    lo, hi = 0, lanes
    while lo < hi:
        y_lanes = begins[lo:hi].copy()
        for j in range(m):
            # a fresh copy each time: the Gauss kernel uses uniforms as scratch
            system.branch_array(y_lanes, uu[j, lo:hi].copy(), kk[j, lo:hi])
            t, off = divmod(j + 1, _MARK)
            if not off:
                seen = marks[t - 1, lo:hi]
                if np.array_equal(seen.view(np.int64), y_lanes.view(np.int64)):
                    break
                seen[:] = y_lanes
        else:
            n_long = max(0, min(hi, r) - lo)
            if n_long:
                system.branch_array(
                    y_lanes[:n_long], uu[m, lo : lo + n_long].copy(), kk[m, lo : lo + n_long]
                )
            ends[lo:hi] = y_lanes
        stale = np.flatnonzero(begins.view(np.int64)[1:] != ends.view(np.int64)[:-1]) + 1
        begins[stale] = ends[stale - 1]
        lo, hi = (stale[0], stale[-1] + 1) if stale.size else (0, 0)
    out[:head].reshape(r, m + 1)[...] = kk[:, :r].T
    out[head:].reshape(lanes - r, m)[...] = kk[:m, r:].T
    return float(ends[-1])


def generate_stream(
    system: BranchSystem,
    seed: int,
    n: int,
    substream: int = 0,
) -> DigitStream:
    """Generate a stationary digit stream of length n.

    Runs n backward steps from a stationary start and returns the branch
    indices in reverse generation order, written straight into place. The
    start is ``stationary_array`` of the first uniform, the kernel that
    starts the replicas too. The other uniforms are read in chunks of
    ``DEFAULT_BLOCK`` through `_Uniforms`, the same numbers one draw would
    give, and each chunk runs in lanes (`_run_lanes`): a lane starts from a fixed point, and while
    its start is not bitwise the end of the lane before it, it reruns from
    that end until it rejoins its last run. Digits and anchor point are those
    of n steps of the scalar reference ``gauss_branch_sample`` or
    ``doubling_branch_sample``.
    """
    (n,) = _int_tuple((n,), "stream length", 1)
    digits = np.empty(n, dtype=np.int64)
    with _Uniforms(seed, substream, n + 1) as uniforms:
        y = float(system.stationary_array(uniforms.take(1))[0])
        for hi in range(n, 0, -DEFAULT_BLOCK):
            lo = max(0, hi - DEFAULT_BLOCK)
            y = _run_lanes(system, y, uniforms.take(hi - lo), digits[lo:hi][::-1])
    return DigitStream(digits=digits, anchor_point=y)
