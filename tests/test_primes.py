"""Primality: a small-prime screen, then Miller-Rabin witnesses at every size."""

import pytest

from hittimes.errors import ValidationError
from hittimes.primes import is_prime, primes_up_to


def _slow_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_spec_examples():
    assert is_prime(2)
    assert is_prime(97)
    assert not is_prime(91)  # 7 * 13


def test_small_range_against_trial_division():
    for n in range(0, 5000):
        assert is_prime(n) == _slow_is_prime(n), n


def test_2_to_the_16_plus_minus_200_against_slow_is_prime():
    for n in range(2**16 - 200, 2**16 + 200):
        assert is_prime(n) == _slow_is_prime(n), n


def test_every_n_below_2_to_the_16_plus_1000_against_the_sieve():
    # the range `estimators._prime_mask` reads from its sieve table, and 1000 past it
    bound = 2**16 + 1000
    flags = [False] * bound
    for p in primes_up_to(bound - 1):
        flags[p] = True
    assert [is_prime(n) for n in range(bound)] == flags


def test_large_known_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**62 - 1)
    assert is_prime(18_446_744_073_709_551_557)  # largest prime below 2**64
    # strong pseudoprime to several bases, caught by the full witness set
    assert not is_prime(3_215_031_751)


def test_refused_from_2_to_the_64():
    # 1287836182261 * 2575672364521, the smallest strong pseudoprime to all
    # twelve witnesses, which the test would call prime
    for n in (3_317_044_064_679_887_385_961_981, 2**64, 2**64 + 13, float(2**64)):
        with pytest.raises(ValidationError, match="below 2\\*\\*64"):
            is_prime(n)
    assert is_prime(2**64 - 59)
    assert not is_prime(2**64 - 1)


def test_carmichael_numbers_rejected():
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 825_265):
        assert not is_prime(n), n


def test_negative_rejected():
    with pytest.raises(ValueError):
        is_prime(-7)


def test_fraction_refused_integral_float_accepted():
    # a fraction is refused, not truncated: 53.5 is not the prime 53
    for bad in (53.5, 2.5, float("nan"), True, "7"):
        with pytest.raises(ValidationError, match="nonnegative integer"):
            is_prime(bad)
    assert is_prime(53.0)
    assert not is_prime(91.0)


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []
    assert len(primes_up_to(10**6)) == 78498


def test_primes_up_to_refuses_fractions_and_accepts_integral_floats():
    for bad in (2.5, "10", float("inf"), True):
        with pytest.raises(ValidationError, match="integer bound"):
            primes_up_to(bad)
    assert primes_up_to(10.0) == primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(1.0) == primes_up_to(-3) == []
