"""The safe-prime search as it stood before its cheaper rejection.

``gen_prime_with_two_primitive``, ``_screen`` and ``is_probable_prime``
below are the former ``onionkep.modmath`` code, copied unchanged: trial
division by a loop over the primes below 2000, a base-2 Fermat test on
both s and r, then 2**s == -1 (mod r), then Miller-Rabin. They are kept
only as the oracle for the differential tests in ``test_modmath.py``.
"""

from __future__ import annotations

import random

from onionkep.errors import GenerationFailed

_SMALL_PRIMES = [n for n in range(2, 2000) if all(n % d for d in range(2, n))]

MILLER_RABIN_ROUNDS = 64


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
