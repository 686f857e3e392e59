"""Arbitrary-precision modular arithmetic and number-theoretic primitives.

Everything here works on plain Python ints, which are arbitrary precision,
so 2048-bit moduli and multi-thousand-bit exponents need no special handling.
All functions are pure; the only stateful object is the caller-supplied
``random.Random`` instance, which makes generation reproducible under a seed.

These routines are not constant-time and make no attempt to resist
side-channel observation.
"""

from __future__ import annotations

import random
from collections import Counter

from .errors import (
    GenerationFailed,
    InvalidModulus,
    NonInvertible,
)

# Small primes for cheap trial-division screening before Miller-Rabin.
def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = _sieve(2000)

# Error probability <= 4**-64 per call; documented as acceptable.
MILLER_RABIN_ROUNDS = 64


def mod_inv(a: int, modulus: int) -> int:
    """Multiplicative inverse of a mod modulus (built-in pow).

    Raises NonInvertible when gcd(a, modulus) != 1. The result is the
    canonical representative in [1, modulus).
    """
    if modulus < 2:
        raise InvalidModulus(f"modulus must be >= 2, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NonInvertible(f"{a} has no inverse modulo {modulus}") from None


def is_probable_prime(n: int, rounds: int = MILLER_RABIN_ROUNDS,
                      rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test with trial division pre-screening.

    Without an rng the witnesses come from a Random seeded with n, so the
    answer is reproducible and the module-level random stream is untouched.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if rng is None:
        rng = random.Random(n)
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def totient(p: int, q: int, r: int) -> int:
    """Euler totient of n = p*q*r for primes p, q and r (not checked here),
    correct for repeated prime factors.

    For pairwise distinct primes this is (p-1)(q-1)(r-1); for the default
    p = q = 2 profile it is phi(4r) = 2(r-1). Computed from the factor
    multiset so Euler's theorem holds in every case.
    """
    phi = 1
    for prime, exp in Counter((p, q, r)).items():
        phi *= prime ** (exp - 1) * (prime - 1)
    return phi


def gen_prime_with_two_primitive(bits: int, rng: random.Random,
                                 max_attempts: int = 500_000) -> int:
    """Generate a prime r of the given bit length with 2 a primitive root.

    Strategy: draw safe-prime candidates r = 2s+1 with s prime and accept
    when 2**s == r-1 (mod r), which for safe primes is exactly the
    primitive-root condition. Raises GenerationFailed when the attempt
    budget is exhausted.
    """
    if bits < 3:
        raise ValueError("bits must be >= 3")
    for _ in range(max_attempts):
        # Odd s with the top bit set so r = 2s+1 lands on the right length.
        s = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        r = 2 * s + 1
        if r.bit_length() != bits:
            continue
        if not _screen(s) or not _screen(r):
            continue
        if pow(2, s, r) != r - 1:
            continue
        if is_probable_prime(s, rng=rng) and is_probable_prime(r, rng=rng):
            return r
    raise GenerationFailed(f"no suitable {bits}-bit prime in {max_attempts} attempts")


def _screen(n: int) -> bool:
    """Cheap compositeness screen: trial division plus one Fermat base."""
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return pow(2, n - 1, n) == 1
