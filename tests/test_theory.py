"""Closed-form law tests; independent oracles are quadrature and termwise products."""

import math

import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from hittimes.errors import ValidationError
from hittimes.theory import (
    CFPrediction,
    LN2,
    cf_joint_asymptote,
    cf_rare_set_measure,
    consecutive_asymptote,
    gauss_digit_cell_measure,
    prime_threshold_measure,
    threshold_cell_measure,
)


class TestExponentialLaw:
    """The d = 1 hitting and return laws, read from `consecutive_asymptote`."""

    @staticmethod
    def hitting(theta, mu, k):
        return consecutive_asymptote(theta, mu, [k], hitting_start=True)

    @staticmethod
    def ret(theta, mu, k):
        return consecutive_asymptote(theta, mu, [k], hitting_start=False)

    def test_theta_domain(self):
        for bad in (0.0, -0.2, 1.5, math.inf, math.nan):
            for hitting_start in (True, False):
                with pytest.raises(ValidationError, match="theta"):
                    consecutive_asymptote(bad, 0.25, [1], hitting_start)
        assert self.hitting(1.0, 0.25, 1) == 0.25 * math.exp(-0.25)

    def test_hitting_values(self):
        # theta * mu * e^(-theta * mu * k), with mu * k = t exact
        assert self.hitting(1.0, 0.125, 8) == pytest.approx(0.125 * math.exp(-1), abs=1e-15)
        assert self.hitting(0.5, 0.125, 16) == pytest.approx(0.5 * 0.125 * math.exp(-1), abs=1e-15)

    def test_return_values(self):
        # theta^2 * mu * e^(-theta * mu * k)
        assert self.ret(1.0, 0.125, 8) == pytest.approx(0.125 * math.exp(-1), abs=1e-15)
        assert self.ret(0.5, 0.125, 16) == pytest.approx(0.25 * 0.125 * math.exp(-1), abs=1e-15)

    def test_return_masses_sum_to_theta(self):
        theta, mu = 0.5, 1e-3
        total = math.fsum(self.ret(theta, mu, k) for k in range(1, 100_001))
        x = theta * mu  # the geometric series theta^2 mu sum_k e^(-x k)
        assert total == pytest.approx(theta * x / math.expm1(x), rel=1e-12)
        # the missing mass 1 - theta is the atom of instant returns
        assert total == pytest.approx(theta, abs=theta * x)

    def test_gap_below_one_rejected(self):
        with pytest.raises(ValidationError):
            self.hitting(1.0, 0.25, 0)
        with pytest.raises(ValidationError):
            self.ret(1.0, 0.25, -1)
        with pytest.raises(ValidationError):
            consecutive_asymptote(1.0, 0.25, [2, 0], hitting_start=True)

    @given(st.floats(0.01, 1.0), st.floats(1e-4, 0.5), st.integers(1, 500))
    def test_return_is_theta_times_hitting(self, theta, mu, k):
        assert self.ret(theta, mu, k) == pytest.approx(theta * self.hitting(theta, mu, k), rel=1e-12)

    def test_small_time_limit(self):
        # as t = mu * k -> 0 the factors tend to theta and theta^2
        mu = 2.0**-40
        for theta in (0.1, 0.5, 0.9, 1.0):
            assert self.hitting(theta, mu, 1) / mu == pytest.approx(theta, rel=1e-12)
            assert self.ret(theta, mu, 1) / mu == pytest.approx(theta * theta, rel=1e-12)


class TestConsecutiveAsymptote:
    def test_single_gap_reduces_to_exponential(self):
        got = consecutive_asymptote(1.0, 0.25, [4], hitting_start=True)
        assert got == pytest.approx(0.25 * math.exp(-1), abs=1e-15)

    def test_two_gaps_product_form(self):
        got = consecutive_asymptote(1.0, 0.25, [4, 4], hitting_start=True)
        assert got == pytest.approx(0.25**2 * math.exp(-2), rel=1e-14)

    def test_conditioned_start_spec_value(self):
        got = consecutive_asymptote(0.5, 2.0**-10, [2048], hitting_start=False)
        assert got == pytest.approx(0.25 * math.exp(-1) * 2.0**-10, rel=1e-12)

    def test_empty_gaps_rejected(self):
        with pytest.raises(ValidationError):
            consecutive_asymptote(1.0, 0.1, [], True)

    @given(
        st.floats(0.05, 1.0),
        st.floats(1e-4, 0.5),
        st.lists(st.integers(1, 500), min_size=1, max_size=5),
        st.booleans(),
    )
    def test_product_of_single_gap_factors(self, theta, mu, gaps, hitting_start):
        """d gaps = product of d conditioned single-gap factors times a theta power."""
        joint = consecutive_asymptote(theta, mu, gaps, hitting_start)
        product = 1.0
        for g in gaps:
            product *= consecutive_asymptote(theta, mu, [g], hitting_start=False)
        d = len(gaps)
        power = theta ** (2 * d - 1) if hitting_start else theta ** (2 * d)
        expected = product / theta ** (2 * d) * power
        assert joint == pytest.approx(expected, rel=1e-9)


class TestCFPredictions:
    def test_reference_cell(self):
        pred = CFPrediction(threshold=50, gaps=(35,), marks=(60,))
        got = cf_joint_asymptote(pred)
        # independent termwise evaluation
        want = math.exp(-35.0 / (50.0 * LN2)) / (60.0**2 * LN2)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(1.460e-4, rel=2e-3)

    def test_two_cell_product(self):
        pred = CFPrediction(threshold=100, gaps=(70, 70), marks=(100, 100))
        factor = math.exp(-70.0 / (100.0 * LN2)) / (100.0**2 * LN2)
        assert cf_joint_asymptote(pred) == pytest.approx(factor**2, rel=1e-13)
        # frozen from the termwise oracle: factor = 5.2551e-5
        assert cf_joint_asymptote(pred) == pytest.approx(2.7617e-9, rel=2e-4)

    def test_gap_must_be_positive(self):
        with pytest.raises(ValidationError):
            CFPrediction(threshold=50, gaps=(0,), marks=(60,))

    def test_marks_below_threshold_rejected(self):
        with pytest.raises(ValidationError):
            CFPrediction(threshold=50, gaps=(10,), marks=(49,))

    def test_prime_variant_requires_prime_marks(self):
        with pytest.raises(ValidationError):
            CFPrediction(threshold=50, gaps=(10,), marks=(60,), prime_variant=True)
        pred = CFPrediction(threshold=50, gaps=(10,), marks=(61,), prime_variant=True)
        want = math.exp(-10.0 / (50.0 * math.log(50.0) * LN2)) / (61.0**2 * LN2)
        assert cf_joint_asymptote(pred) == pytest.approx(want, rel=1e-14)

    def test_rare_set_measure(self):
        assert cf_rare_set_measure(50) == pytest.approx(1.0 / (50 * LN2), rel=1e-15)
        assert cf_rare_set_measure(50) == pytest.approx(0.028854, rel=1e-4)
        got = cf_rare_set_measure(100, prime_variant=True)
        assert got == pytest.approx(1.0 / (100 * math.log(100) * LN2), rel=1e-15)
        assert got == pytest.approx(3.133e-3, rel=1e-3)
        with pytest.raises(ValidationError):
            cf_rare_set_measure(1)

    def test_exact_threshold_measure(self):
        assert threshold_cell_measure(1) == pytest.approx(1.0, abs=1e-15)
        # exact and asymptote agree to first order
        for l in (100, 1000, 10000):
            assert threshold_cell_measure(l) == pytest.approx(1.0 / (l * LN2), rel=2.0 / l)

    def test_prime_threshold_measure_matches_direct_sum(self):
        direct = sum(
            gauss_digit_cell_measure(p)
            for p in range(100, 200000)
            if _is_prime_slow(p)
        )
        got = prime_threshold_measure(100, sieve_bound=200000)
        # the tail estimate beyond the bound is ~4e-7
        assert got == pytest.approx(direct, abs=1e-6)


def _is_prime_slow(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestGaussCells:
    def test_first_cells_against_quadrature(self):
        h = lambda x: 1.0 / ((1.0 + x) * LN2)
        for k in (1, 2, 7):
            lo, hi = 1.0 / (k + 1), 1.0 / k
            want, _ = integrate.quad(h, lo, hi)
            assert gauss_digit_cell_measure(k) == pytest.approx(want, rel=1e-10)
        assert gauss_digit_cell_measure(1) == pytest.approx(math.log2(4 / 3), rel=1e-15)
        assert gauss_digit_cell_measure(2) == pytest.approx(math.log2(9 / 8), rel=1e-15)

    def test_partial_sums_exact_identity(self):
        for big_k in (10, 100, 1000):
            total = math.fsum(gauss_digit_cell_measure(k) for k in range(1, big_k + 1))
            want = 1.0 - math.log1p(1.0 / (big_k + 1)) / LN2
            assert abs(total - want) < 1e-12

    def test_partial_sums_approach_one(self):
        total = math.fsum(gauss_digit_cell_measure(k) for k in range(1, 200000))
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            gauss_digit_cell_measure(0)

