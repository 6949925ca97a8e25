"""Deterministic primality for 64-bit integers.

A screen by the primes below 64, then deterministic Miller-Rabin witnesses
at every size. The witness set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
is proven sufficient for all n < 3.3e24, which covers the full 64-bit range;
larger n are refused. A number past the screen is at least 67, above every
witness, so the test is exact from there on.
"""

from __future__ import annotations

from .errors import ValidationError, _is_integral

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Exact primality test for integers 0 <= n < 2**64."""
    if not _is_integral(n) or n < 0:
        raise ValidationError(f"is_prime expects a nonnegative integer, got {n!r}")
    n = int(n)
    if n >= 2**64:
        # the witnesses are proven only below 3.3e24, and wrong at it:
        # 3317044064679887385961981 is a strong pseudoprime to all twelve
        raise ValidationError(f"is_prime is exact below 2**64 only, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound by Eratosthenes sieve."""
    if not _is_integral(bound):
        raise ValidationError(f"primes_up_to expects an integer bound, got {bound!r}")
    bound = int(bound)
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    i = 2
    while i * i <= bound:
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        i += 1
    return [i for i, flag in enumerate(sieve) if flag]
