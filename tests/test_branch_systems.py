"""Backward-sampling tests. Statistical checks use fixed Philox seeds and the
0.01 chi-square level; exact cylinder probabilities come from continuant
interval endpoints (test-local, independent of the package)."""

import dataclasses
import itertools
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from hittimes import branch_systems
from hittimes.branch_systems import (
    _AHEAD_MIN,
    _LANES,
    _MARK,
    _MIN_LANE,
    _SEED_POINT,
    DEFAULT_BLOCK,
    DOUBLING,
    GAUSS,
    DigitStream,
    _run_lanes,
    _Uniforms,
    generate_stream,
    make_rng,
    system_by_name,
)
from hittimes.errors import BudgetExceededError, SamplingError, ValidationError
from hittimes.theory import gauss_digit_cell_measure, threshold_cell_measure
from oracles import (
    SCALAR_STEP,
    doubling_branch_sample,
    gauss_branch_cum,
    gauss_branch_prob,
    gauss_branch_sample,
    scalar_stream,
    scalar_steps,
)

LN2 = math.log(2.0)


def branch_array(system, y, u):
    """(digits, preimages) of the in-place kernel, leaving y and u untouched."""
    y_next, k = y.copy(), np.empty_like(y)
    assert system.branch_array(y_next, u.copy(), k) is None
    return k, y_next


def cf_cylinder_ratio(word) -> Fraction:
    """(1 + hi) / (1 + lo) for the endpoints lo < hi of the cylinder
    {a_1..a_m = word}, exactly, from its continuants; the cylinder's Gauss
    measure is log2 of it."""
    h_prev, h_cur = 1, 0
    k_prev, k_cur = 0, 1
    for a in word:
        h_prev, h_cur = h_cur, a * h_cur + h_prev
        k_prev, k_cur = k_cur, a * k_cur + k_prev
    lo = Fraction(h_cur, k_cur)
    hi = Fraction(h_cur + h_prev, k_cur + k_prev)
    if lo > hi:
        lo, hi = hi, lo
    return (1 + hi) / (1 + lo)


def cf_cylinder_measure(word) -> float:
    """Exact Gauss measure of {a_1..a_m = word} via continuant endpoints."""
    return math.log2(float(cf_cylinder_ratio(word)))


class TestCylinderOracle:
    def test_rank_one_matches_cell_measure(self):
        for k in (1, 2, 5, 9):
            assert cf_cylinder_measure((k,)) == pytest.approx(
                gauss_digit_cell_measure(k), rel=1e-12
            )

    def test_rank_sums_are_consistent(self):
        # sum over c2 <= 400 of mu([c1, c2]) approaches mu([c1])
        for c1 in (1, 3):
            total = math.fsum(cf_cylinder_measure((c1, c2)) for c2 in range(1, 401))
            assert total == pytest.approx(cf_cylinder_measure((c1,)), rel=5e-3)


class TestTimeReversal:
    """Gauss cylinders are reversal-symmetric, mu[a_1..a_n] = mu[a_n..a_1]
    (the natural extension's density 1/((1+xy)^2 ln 2) is symmetric), so
    digits in generation order have the forward law, as the replica
    estimator assumes. Doubling digits are i.i.d., so there it is immediate."""

    @pytest.mark.parametrize("length", [2, 3, 4, 5])
    def test_cylinder_measure_is_reversal_symmetric(self, length):
        for word in itertools.product((1, 2, 3, 7, 50, 61), repeat=length):
            ratio = cf_cylinder_ratio(word)
            assert ratio == cf_cylinder_ratio(word[::-1]), word
            # the measure, to full relative precision however small
            mu = math.log1p(float(ratio - 1)) / LN2
            assert mu == math.log1p(float(cf_cylinder_ratio(word[::-1]) - 1)) / LN2 > 0.0

    def test_permutations_other_than_reversal_move_the_measure(self):
        # the symmetry is of reversal only: 1 2 3 and 2 1 3 differ
        assert cf_cylinder_ratio((1, 2, 3)) != cf_cylinder_ratio((2, 1, 3))


class TestGaussSampler:
    def test_stationary_point_endpoints(self):
        top = np.nextafter(1.0, 0.0)  # the largest uniform a generator draws
        x = GAUSS.stationary_array(np.array([0.0, 0.999999, 0.5, top]))
        assert x[0] == 0.0
        assert x[1] == pytest.approx(1.0, abs=1e-5)
        assert x[2] == pytest.approx(math.sqrt(2) - 1, abs=1e-15)
        # the branch kernels take y in [0, 1], 1.0 included
        assert 0.0 < x[3] <= 1.0

    def test_branch_prob_formula_and_density_ratio(self):
        assert gauss_branch_prob(1, 0.0) == pytest.approx(0.5, abs=1e-15)
        # p_k(y) = h(v_k(y)) * |v_k'(y)| / h(y) with v_k(y) = 1/(k+y)
        h = lambda x: 1.0 / ((1.0 + x) * LN2)
        for k in (1, 2, 7, 40):
            for y in (0.0, 0.3, 0.9):
                v = 1.0 / (k + y)
                dv = 1.0 / (k + y) ** 2
                assert gauss_branch_prob(k, y) == pytest.approx(
                    h(v) * dv / h(y), rel=1e-12
                )

    def test_branch_cum_telescopes(self):
        ys = np.linspace(0.0005, 0.9995, 1000)
        for k_top in (1, 10, 1000):
            direct = np.zeros_like(ys)
            for k in range(1, k_top + 1):
                direct += (1.0 + ys) / ((k + ys) * (k + ys + 1.0))
            closed = np.array([gauss_branch_cum(k_top, y) for y in ys])
            assert np.max(np.abs(direct - closed)) < 1e-14

    def test_closed_form_inverts_cumulative(self):
        rng = make_rng(31337)
        y = rng.random(10**6)
        u = rng.random(10**6)
        k, y_next = branch_array(GAUSS, y, u)
        c_k = 1.0 - (1.0 + y) / (k + 1.0 + y)
        c_km1 = np.where(k > 1, 1.0 - (1.0 + y) / (k - 1 + 1.0 + y), -np.inf)
        assert np.all(c_k >= u)
        assert np.all(c_km1 < u)
        assert np.allclose(y_next, 1.0 / (k + y), rtol=0, atol=0)

    def test_scalar_matches_array(self):
        rng = make_rng(7)
        ys = rng.random(200)
        us = rng.random(200)
        kk, yy = branch_array(GAUSS, ys, us)
        for i in range(200):
            k, y2 = gauss_branch_sample(float(ys[i]), float(us[i]))
            assert k == kk[i]
            assert y2 == yy[i]

    @pytest.mark.parametrize(
        "system,sample", [(GAUSS, gauss_branch_sample), (DOUBLING, doubling_branch_sample)]
    )
    def test_in_place_kernel_matches_scalar_bitwise(self, system, sample):
        rng = make_rng(41)
        top = np.nextafter(1.0, 0.0)  # the largest uniform: the largest digit
        ys = np.concatenate(([0.0, 0.0, top, top, 0.5], rng.random(5000)))
        us = np.concatenate(([0.0, top, 0.0, top, 0.5], rng.random(5000)))
        k, y_next = branch_array(system, ys, us)
        assert k.dtype == np.float64
        assert k.max() <= 2**54  # so no uniform can reach DIGIT_CAP
        for i in range(ys.size):
            k_i, y_i = sample(float(ys[i]), float(us[i]))
            assert k[i] == k_i and y_next[i] == y_i, i

    def test_digit_law_from_stationary_y(self):
        rng = make_rng(12)
        y = GAUSS.stationary_array(rng.random(400_000))
        k, _ = branch_array(GAUSS, y, rng.random(400_000))
        # averaged over y ~ h, the branch index has the digit-cell law
        probs = np.array([gauss_digit_cell_measure(c) for c in range(1, 21)])
        obs = np.array([(k == c).sum() for c in range(1, 21)], dtype=float)
        stat = ((obs - 400_000 * probs) ** 2 / (400_000 * probs)).sum()
        rest_obs = 400_000 - obs.sum()
        rest_p = 1.0 - probs.sum()
        stat += (rest_obs - 400_000 * rest_p) ** 2 / (400_000 * rest_p)
        assert stats.chi2.sf(stat, 20) > 0.01


class TestDoubling:
    def test_branch_sample(self):
        assert doubling_branch_sample(0.2, 0.49) == (0, 0.1)
        bit, y = doubling_branch_sample(0.2, 0.5)
        assert bit == 1 and y == 0.6
        with pytest.raises(ValidationError):
            doubling_branch_sample(1.2, 0.5)

    def test_bit_frequencies(self):
        stream = generate_stream(DOUBLING, seed=3, n=200_000)
        freq = stream.digits.mean()
        assert abs(freq - 0.5) < 4 * 0.5 / math.sqrt(200_000)

    def test_twogram_frequencies(self):
        stream = generate_stream(DOUBLING, seed=4, n=200_000)
        d = stream.digits
        grams = d[:-1] * 2 + d[1:]
        obs = np.bincount(grams, minlength=4).astype(float)
        n = obs.sum()
        stat = ((obs - n / 4) ** 2 / (n / 4)).sum()
        assert stats.chi2.sf(stat, 3) > 0.01


class TestStreams:
    def test_seeded_determinism(self):
        a = generate_stream(GAUSS, seed=12, n=5000)
        b = generate_stream(GAUSS, seed=12, n=5000)
        assert np.array_equal(a.digits, b.digits)
        assert a.anchor_point == b.anchor_point
        c = generate_stream(GAUSS, seed=13, n=5000)
        assert not np.array_equal(a.digits, c.digits)

    def test_length_that_cannot_be_held_raises_budget_error(self):
        # numpy's ValueError from allocating the digits was the old answer
        with pytest.raises(BudgetExceededError, match="10{20} digits"):
            generate_stream(DOUBLING, seed=1, n=10**20)

    def test_substreams_differ(self):
        a = generate_stream(GAUSS, seed=12, n=5000, substream=0)
        b = generate_stream(GAUSS, seed=12, n=5000, substream=1)
        assert not np.array_equal(a.digits, b.digits)

    def test_anchor_chain_is_exact(self):
        # replaying the backward chain reproduces every anchor to the bit:
        # y_{j} = 1/(k_j + y_{j-1}) for the generation-order digits; the
        # stream draws its uniforms in blocks, so cross a block boundary
        n = DEFAULT_BLOCK + 3
        stream = generate_stream(GAUSS, seed=21, n=n)
        rng = make_rng(21)
        y = float(GAUSS.stationary_array(rng.random(1))[0])
        backward = stream.digits[::-1]
        for j in range(n):
            u = float(rng.random())
            k, y2 = gauss_branch_sample(y, u)
            assert k == backward[j]
            assert y2 == 1.0 / (k + y)  # bitwise: same expression
            assert 0.0 <= y2 < 1.0
            y = y2
        assert y == stream.anchor_point

    def test_single_digit_streams_have_cell_law(self):
        # N=1 stationarity: one digit per stream, many substreams
        counts = np.zeros(11)
        m = 4000
        for i in range(m):
            d = generate_stream(GAUSS, seed=77, n=1, substream=i).digits[0]
            counts[min(d, 11) - 1] += 1
        probs = np.array([gauss_digit_cell_measure(k) for k in range(1, 11)])
        probs = np.append(probs, 1.0 - probs.sum())
        stat = ((counts - m * probs) ** 2 / (m * probs)).sum()
        assert stats.chi2.sf(stat, 10) > 0.01

    def test_digit_marginals_match_cells(self):
        stream = generate_stream(GAUSS, seed=5, n=400_000)
        d = stream.digits
        probs = np.array([gauss_digit_cell_measure(k) for k in range(1, 21)])
        obs = np.array([(d == k).sum() for k in range(1, 21)], dtype=float)
        n = d.size
        stat = ((obs - n * probs) ** 2 / (n * probs)).sum()
        rest = n - obs.sum()
        rest_p = 1.0 - probs.sum()
        stat += (rest - n * rest_p) ** 2 / (n * rest_p)
        assert stats.chi2.sf(stat, 20) > 0.01

    @pytest.mark.parametrize("m", [2, 3])
    def test_mgram_stationarity(self, m):
        """m-gram frequencies match exact cylinder measures (digits capped at 10)."""
        cap = 10
        stream = generate_stream(GAUSS, seed=6, n=300_000)
        d = np.minimum(stream.digits, cap + 1)  # cap+1 = overflow symbol
        n_grams = d.size - m + 1
        codes = np.zeros(n_grams, dtype=np.int64)
        for i in range(m):
            codes = codes * (cap + 1) + (d[i : i + n_grams] - 1)
        # exact probabilities for grams with all digits <= cap
        cells = []
        probs = []
        import itertools

        for gram in itertools.product(range(1, cap + 1), repeat=m):
            code = 0
            for c in gram:
                code = code * (cap + 1) + (c - 1)
            cells.append(code)
            probs.append(cf_cylinder_measure(gram))
        cells = np.array(cells)
        probs = np.array(probs)
        # deterministic merge: keep cells with expected count >= 10;
        # the remainder (small cells + any gram with an over-cap digit) pools
        keep = probs * n_grams >= 10.0
        obs = np.array([(codes == c).sum() for c in cells[keep]], dtype=float)
        stat = ((obs - n_grams * probs[keep]) ** 2 / (n_grams * probs[keep])).sum()
        rest_obs = n_grams - obs.sum()
        rest_p = 1.0 - probs[keep].sum()
        stat += (rest_obs - n_grams * rest_p) ** 2 / (n_grams * rest_p)
        df = int(keep.sum())
        assert stats.chi2.sf(stat, df) > 0.01

    def test_threshold_frequency(self):
        stream = generate_stream(GAUSS, seed=8, n=300_000)
        mu = threshold_cell_measure(50)
        freq = (stream.digits >= 50).mean()
        se = math.sqrt(mu * (1 - mu) / stream.digits.size)
        assert abs(freq - mu) < 4 * se

    def test_generate_stream_validation(self):
        for n in (0, 2.5, True):
            with pytest.raises(ValidationError):
                generate_stream(GAUSS, seed=1, n=n)
        with pytest.raises(ValidationError):
            make_rng(-1)

    @pytest.mark.parametrize("bad", [1.5, True, np.bool_(True), "1", math.nan, math.inf, None, 2**64])
    def test_non_integer_seed_refused(self, bad):
        # a truncated seed used to draw the stream of its integer part
        with pytest.raises(ValidationError, match="seed must be"):
            make_rng(bad)
        with pytest.raises(ValidationError, match="substream must be"):
            make_rng(1, bad)
        with pytest.raises(ValidationError, match="seed must be"):
            generate_stream(GAUSS, seed=bad, n=8)
        with pytest.raises(ValidationError, match="substream must be"):
            generate_stream(GAUSS, seed=1, n=8, substream=bad)

    def test_integral_seeds_accepted(self):
        first = make_rng(1).random()
        for seed in (np.int64(1), np.uint64(1), 1.0, np.float64(1.0)):
            assert make_rng(seed).random() == first
        assert make_rng(0, 2.0).random() == make_rng(0, 2).random()
        assert np.array_equal(
            generate_stream(GAUSS, seed=1.0, n=8).digits, generate_stream(GAUSS, seed=1, n=8).digits
        )

    def test_system_lookup(self):
        assert system_by_name("gauss") is GAUSS
        assert system_by_name("doubling") is DOUBLING
        with pytest.raises(ValidationError):
            system_by_name("tent")

    def test_stream_export_roundtrip(self, tmp_path):
        stream = generate_stream(GAUSS, seed=23, n=500)
        bin_path = tmp_path / "s.bin"
        txt_path = tmp_path / "s.txt"
        stream.export_binary(bin_path)
        stream.export_text(txt_path)
        back = np.fromfile(bin_path, dtype="<i8")
        assert np.array_equal(back, stream.digits)
        lines = txt_path.read_text().splitlines()
        assert [int(x) for x in lines] == stream.digits.tolist()


def assert_same_stream(got, want):
    assert np.array_equal(got.digits, want.digits)
    assert repr(got.anchor_point) == repr(want.anchor_point)  # bitwise, and a float


# lengths around one lane (under 2 * _MIN_LANE steps), two lanes, the lane
# cap (_LANES lanes of _MIN_LANE steps: a full chunk) and several chunks
STREAM_LENGTHS = [
    1,
    2,
    _MIN_LANE - 1,
    _MIN_LANE,
    _MIN_LANE + 1,
    2 * _MIN_LANE - 1,
    2 * _MIN_LANE,
    2 * _MIN_LANE + 1,
    3 * _MIN_LANE - 1,
    (_LANES - 1) * _MIN_LANE - 1,
    DEFAULT_BLOCK - 1,
    DEFAULT_BLOCK,
    DEFAULT_BLOCK + 1,
    3 * DEFAULT_BLOCK + 5,
]


def chunk(system, seed, size):
    """(start point, uniforms) of the first chunk of a stream."""
    rng = make_rng(seed)
    return float(system.stationary_array(rng.random(1))[0]), rng.random(size)


def lane_bounds(size: int, lanes: int) -> list[int]:
    """The lanes + 1 bounds of ``lanes`` contiguous lanes that cover ``size``
    steps; the first ``size % lanes`` lanes are one step longer."""
    m, r = divmod(size, lanes)
    return [i * m + min(i, r) for i in range(lanes + 1)]


def scalar_rounds(system, y0: float, u: np.ndarray) -> list[int]:
    """The lockstep width of every kernel call `_run_lanes` makes on the
    chunk (y0, u), worked out lane by lane with the scalar step of ``system``.

    Round 1 runs every lane over its full length, lane 0 from y0 and the
    others from _SEED_POINT. Each later round reruns lanes lo..hi - 1, the
    first to the last lane whose start is not the end of the lane before
    it, each from that end, and stops at the first mark (every _MARK steps)
    where every rerun lane's point is the one its last run had there."""
    step = SCALAR_STEP[system.name]
    lanes = max(1, min(_LANES, u.size // _MIN_LANE))
    bounds = lane_bounds(u.size, lanes)
    m, r = divmod(u.size, lanes)

    def path(i, y):  # the points after each step of lane i from y
        points = []
        for uj in u[bounds[i] : bounds[i + 1]].tolist():
            y = step(y, uj)[1]
            points.append(y)
        return points

    begins = [y0] + [_SEED_POINT] * (lanes - 1)
    paths = [path(i, y) for i, y in enumerate(begins)]
    widths = [lanes] * m + [r] * bool(r)
    while True:
        stale = [i for i in range(1, lanes) if begins[i] != paths[i - 1][-1]]
        if not stale:
            return widths
        lo, hi = stale[0], stale[-1] + 1
        for i in stale:
            begins[i] = paths[i - 1][-1]
        rerun = {i: path(i, begins[i]) for i in range(lo, hi)}
        for t in range(_MARK, m + 1, _MARK):
            if all(rerun[i][t - 1] == paths[i][t - 1] for i in range(lo, hi)):
                widths += [hi - lo] * t
                break
        else:
            widths += [hi - lo] * m + [min(hi, r) - lo] * (lo < r)
        for i in range(lo, hi):
            paths[i] = rerun[i]


class TestLaneStream:
    @pytest.mark.parametrize("n", STREAM_LENGTHS)
    @pytest.mark.parametrize("substream", [0, 1])
    @pytest.mark.parametrize("system", [GAUSS, DOUBLING], ids=["gauss", "doubling"])
    def test_matches_scalar_stream(self, system, substream, n):
        got = generate_stream(system, 40 + n % 7, n, substream)
        assert_same_stream(got, scalar_stream(system, 40 + n % 7, n, substream))

    @pytest.mark.parametrize("seed,substream", [(19, 1), (41, 0), (59, 0)])
    def test_gauss_start_one_ulp_from_the_old_start(self, seed, substream):
        # the stream starts at exp2(u) - 1, which for these seeds is one ulp
        # of 2^u away from the old start 2.0**u - 1; the backward chain
        # contracts, so the digits and the anchor are the old start's
        u = make_rng(seed, substream).random()
        assert abs(np.exp2(u) - 2.0**u) == np.spacing(2.0**u)
        old_start = lambda u: 2.0**u - 1.0
        got = generate_stream(GAUSS, seed, 5000, substream)
        assert_same_stream(got, scalar_stream(GAUSS, seed, 5000, substream, start=old_start))

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from([GAUSS, DOUBLING]),
        st.integers(0, 2**64 - 1),
        st.integers(1, 3 * DEFAULT_BLOCK),
    )
    def test_matches_scalar_stream_randomized(self, system, seed, n):
        assert_same_stream(generate_stream(system, seed, n), scalar_stream(system, seed, n))

    @pytest.mark.parametrize("size", [DEFAULT_BLOCK + 77, 5 * _MIN_LANE + 3])
    @pytest.mark.parametrize("system", [GAUSS, DOUBLING], ids=["gauss", "doubling"])
    def test_every_lane_repaired(self, system, size):
        # lanes i >= 1 start from _SEED_POINT, which is never their true
        # start here, so every one is rerun; the lockstep widths are exactly
        # those of the rounds worked out lane by lane with the scalar step
        # (doubling digits do not depend on the point, so there only the
        # rounds and the end point can tell)
        steps = []

        def counting(y, u, k):
            steps.append(y.size)
            system.branch_array(y, u, k)

        y0, u = chunk(system, 61, size)
        u_before = u.copy()
        out = np.empty(size, dtype=np.int64)
        end = _run_lanes(dataclasses.replace(system, branch_array=counting), y0, u, out)
        want = scalar_stream(system, 61, size)
        assert np.array_equal(out, want.digits[::-1])
        assert repr(end) == repr(want.anchor_point)
        assert np.array_equal(u, u_before)
        assert steps == scalar_rounds(system, y0, u)

    def test_lanes_that_never_rejoin_rerun_in_full(self):
        # a rotation by u does not contract, so no rerun ever rejoins its
        # last run: round q + 1 reruns lanes q..6 over their full length,
        # and the result is still the sequential one
        size = 7 * _MIN_LANE + 5  # 7 lanes, the first 5 one step longer
        steps = []

        def rotation(y, u, k):
            steps.append(y.size)
            np.subtract(1.0, u, out=k)
            np.divide(1.0 + y, k, out=k)
            k -= 1.0
            k -= y
            np.maximum(np.ceil(k, out=k), 1.0, out=k)
            y += u
            y -= np.floor(y)

        system = dataclasses.replace(GAUSS, name="rotation", branch_array=rotation)
        y0, u = chunk(system, 65, size)
        out = np.empty(size, dtype=np.int64)
        end = _run_lanes(system, y0, u, out)
        want, want_end = scalar_steps(system, y0, u)
        assert np.array_equal(out, want)
        assert repr(end) == repr(want_end)
        m = _MIN_LANE
        assert steps == [w for q in range(7) for w in [7 - q] * m + [5 - q] * (q < 5)]
        assert steps == scalar_rounds(system, y0, u)

    @pytest.mark.parametrize(
        "system,bound", [(GAUSS, 96), (DOUBLING, 136)], ids=["gauss", "doubling"]
    )
    def test_kernel_calls_per_chunk(self, system, bound):
        # a full chunk takes one round of _LANES lanes over _MIN_LANE steps,
        # then reruns until the lanes rejoin: Gauss by step 32 of the second
        # round, doubling within a full second round and 8 steps of a third
        # (the 96-step warm-up this replaced took 352 calls)
        for seed in range(6):
            calls = []

            def counting(y, u, k):
                calls.append(y.size)
                system.branch_array(y, u, k)

            generate_stream(dataclasses.replace(system, branch_array=counting), seed, DEFAULT_BLOCK)
            assert calls[: _MIN_LANE] == [_LANES] * _MIN_LANE
            assert len(calls) <= bound, seed

    @pytest.mark.parametrize("size", [10, DEFAULT_BLOCK])
    def test_gauss_chunk_through_one_completes(self, size):
        # from y = 0 a first uniform of 0.1 gives digit 1 and preimage
        # 1/(1 + 0) = 1.0; the orbit carries on through the kernel from there
        assert gauss_branch_sample(0.0, 0.1) == (1, 1.0)
        assert gauss_branch_sample(1.0, 0.5) == (2, 1.0 / 3.0)
        u = make_rng(62).random(size)
        u[0] = 0.1
        out = np.empty(size, dtype=np.int64)
        end = _run_lanes(GAUSS, 0.0, u, out)
        want, want_end = scalar_steps(GAUSS, 0.0, u)
        assert np.array_equal(out, want)
        assert repr(end) == repr(want_end)

    def test_doubling_run_of_ones_completes_inside_a_lane(self):
        # 54 one-bits in a row take any point to (y + 1)/2 = 1.0 in float64;
        # here that happens in lane 5, and the orbit carries on from there
        size = DEFAULT_BLOCK
        y0, u = chunk(DOUBLING, 63, size)
        at = lane_bounds(size, _LANES)[5] + 20
        u[at : at + 60] = 0.75
        out = np.empty(size, dtype=np.int64)
        end = _run_lanes(DOUBLING, y0, u, out)
        want, want_end = scalar_steps(DOUBLING, y0, u)
        assert 1.0 in [scalar_steps(DOUBLING, y0, u[:t])[1] for t in range(at + 54, at + 61)]
        assert np.array_equal(out, want)
        assert np.array_equal(out, u >= 0.5)
        assert repr(end) == repr(want_end)

    def test_sampling_error_in_a_lane_propagates(self):
        def refusing(y, u, k):
            raise SamplingError("digit above cap 2**62; refusing to wrap")

        system = dataclasses.replace(GAUSS, branch_array=refusing)
        for n in (10, DEFAULT_BLOCK):
            with pytest.raises(SamplingError):
                generate_stream(system, seed=64, n=n)


_READS = st.one_of(
    st.sampled_from([0, 1, _AHEAD_MIN - 1, _AHEAD_MIN, DEFAULT_BLOCK, DEFAULT_BLOCK + 1]),
    st.integers(0, 2 * DEFAULT_BLOCK),
)


class TestUniformReader:
    """`_Uniforms`, the one reader of the replica chunk's and the stream's
    uniforms, on the helper-thread path and the one-CPU path."""

    @pytest.mark.parametrize("helper", [True, False], ids=["helper", "one-cpu"])
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        substream=st.integers(0, 3),
        reads=st.lists(_READS, max_size=6),
        slack=st.lists(st.sampled_from([0, 1, _AHEAD_MIN, DEFAULT_BLOCK]), min_size=7, max_size=7),
    )
    def test_reads_are_the_generators_numbers(self, helper, seed, substream, reads, slack):
        # a read as large as the one before it takes exactly the block drawn
        # ahead, a larger one spans it and a draw in place; with slack 0 the
        # reads use up ``most``
        rest = sum(reads)
        got = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(branch_systems, "_spare_cpu", lambda: helper)
            with _Uniforms(seed, substream, rest + slack[0]) as uniforms:
                for n, extra in zip(reads, slack[1:]):
                    rest -= n
                    part = uniforms.take(n, rest + extra)
                    assert part.shape == (n,)
                    got.append(part.copy())
                    part[:] = -1.0  # as the Gauss kernel uses its uniforms as scratch
        want = make_rng(seed, substream).random(sum(reads))
        assert np.concatenate([np.empty(0), *got]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("helper", [True, False], ids=["helper", "one-cpu"])
    def test_helper_thread_runs_only_on_two_cpus_and_is_joined(self, helper, monkeypatch):
        monkeypatch.setattr(branch_systems, "_spare_cpu", lambda: helper)
        before = threading.enumerate()
        with _Uniforms(1, 0, 4 * DEFAULT_BLOCK) as uniforms:
            uniforms.take(DEFAULT_BLOCK)
            during = threading.enumerate()
        assert len(during) == len(before) + helper
        assert threading.enumerate() == before

    @pytest.mark.parametrize(
        "most, n, drawn",
        [
            (3 * DEFAULT_BLOCK, DEFAULT_BLOCK, 2 * DEFAULT_BLOCK),  # one read ahead
            (DEFAULT_BLOCK + _AHEAD_MIN, DEFAULT_BLOCK, DEFAULT_BLOCK + _AHEAD_MIN),  # up to most
            (DEFAULT_BLOCK + _AHEAD_MIN - 1, DEFAULT_BLOCK, DEFAULT_BLOCK),  # too few left
            (3 * DEFAULT_BLOCK, _AHEAD_MIN - 1, _AHEAD_MIN - 1),  # reads too small
        ],
    )
    def test_draws_ahead_one_read_and_never_past_most(self, most, n, drawn, monkeypatch):
        monkeypatch.setattr(branch_systems, "_spare_cpu", lambda: True)
        with _Uniforms(5, 0, most) as uniforms:
            uniforms.take(n)
        # the generator carries on after the last number drawn
        assert uniforms._rng.random() == make_rng(5, 0).random(drawn + 1)[-1]

    @pytest.mark.parametrize("helper", [True, False], ids=["helper", "one-cpu"])
    def test_cpus_are_probed_once_and_only_for_a_read_ahead(self, helper, monkeypatch):
        probes = []
        monkeypatch.setattr(branch_systems, "_spare_cpu", lambda: probes.append(1) or helper)
        with _Uniforms(1, 0, 10 * DEFAULT_BLOCK) as uniforms:
            uniforms.take(_AHEAD_MIN - 1)
            assert probes == []
            uniforms.take(DEFAULT_BLOCK)
            uniforms.take(DEFAULT_BLOCK)
        assert probes == [1]


class TestDigitStream:
    @pytest.mark.parametrize(
        "digits",
        [np.array([1.5, 2.9]), [[1, 2], [3, 4]], 5, [1, math.nan], [True], ["1"], [2**64]],
        ids=["fractional", "2-D", "scalar", "nan", "bool", "str", "above-int64"],
    )
    def test_digits_are_refused_not_truncated(self, digits):
        # np.array([1.5, 2.9]) used to be stored as [1, 2], and a 2-D list as
        # four digits
        with pytest.raises(ValidationError, match="digits must be"):
            DigitStream(digits=digits, anchor_point=0.3)

    @pytest.mark.parametrize("anchor", [-0.1, 1.5, math.nan, math.inf, True, None, "0.3"])
    def test_anchor_point_outside_the_unit_interval_is_refused(self, anchor):
        with pytest.raises(ValidationError, match="anchor point"):
            DigitStream(digits=[1, 2], anchor_point=anchor)

    def test_int64_digits_pass_through_read_only(self):
        digits = np.array([1, 0, 7], dtype=np.int64)
        stream = DigitStream(digits=digits, anchor_point=1.0)
        assert stream.digits is digits
        assert not stream.digits.flags.writeable

    def test_integral_digits_are_stored_as_int64(self):
        for digits in ([1, 2], [1.0, 2.0], np.array([1, 2], dtype=np.uint32), []):
            stream = DigitStream(digits=digits, anchor_point=0.0)
            assert stream.digits.dtype == np.int64
            assert stream.digits.tolist() == [int(d) for d in digits]


def test_export_text_matches_per_line_format(tmp_path):
    digits = np.array([1, 0, 7, 2**62, 10**18, 123456789], dtype=np.int64)
    streams = [
        DigitStream(digits=digits, anchor_point=0.5),
        generate_stream(GAUSS, seed=24, n=5000),
    ]
    for i, stream in enumerate(streams):
        path = tmp_path / f"s{i}.txt"
        stream.export_text(path)
        assert path.read_bytes() == b"".join(f"{int(d)}\n".encode("ascii") for d in stream.digits)
