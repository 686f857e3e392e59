"""Arbitrary-precision modular arithmetic and number-theoretic primitives.

Everything here works on plain Python ints, which are arbitrary precision,
so 2048-bit moduli and multi-thousand-bit exponents need no special handling.
All functions are pure; the only stateful object is the caller-supplied
``random.Random`` instance, which makes generation reproducible under a seed.

The safe-prime search screens candidates with a wheel mod 4620 that drops
only what it would reject anyway before any draw (Wiener, ePrint 2003/186).

Below psi_13 = 3317044064679887385961981, the smallest strong pseudoprime
to the first 13 prime bases (Sorenson and Webster, Math. Comp. 2017), strong
tests to those bases prove primality. There ``is_probable_prime`` proves a
prime and then only draws the Miller-Rabin witnesses, without testing them:
a prime passes every round, so the answer and the rng state are those of
the full test. A composite takes the full rounds, as before.

These routines are not constant-time and make no attempt to resist
side-channel observation.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from .errors import GenerationFailed, InvalidValue


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


# Trial division by the primes below 2000, as two gcds: most composites
# have a factor below 100 and leave after the first, cheaper one.
_SMALL_PRIMES = frozenset(_sieve(2000))
_PRODUCT_BELOW_100 = math.prod(p for p in _SMALL_PRIMES if p < 100)
_PRODUCT_100_TO_2000 = math.prod(p for p in _SMALL_PRIMES if p > 100)

# 1 at s % _WHEEL where s == 1 (mod 4) and none of 3, 5, 7, 11 divides s or 2s+1.
_WHEEL = 4 * 3 * 5 * 7 * 11
_WHEEL_OPEN = bytes(t % 4 == 1 and math.gcd(t * (2 * t + 1), _WHEEL) == 1
                    for t in range(_WHEEL))


def _passes_trial_division(n: int) -> bool:
    """False when a prime below 2000 divides n and is not n itself."""
    return (math.gcd(n, _PRODUCT_BELOW_100) == 1
            and math.gcd(n, _PRODUCT_100_TO_2000) == 1) or n in _SMALL_PRIMES


# Error probability <= 4**-64 per call; documented as acceptable.
MILLER_RABIN_ROUNDS = 64

# Strong tests to these bases decide primality below psi_13, which passes
# all of them and is composite, so the bound is exclusive.
_PROOF_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PROVEN_BELOW = 3317044064679887385961981


def mod_inv(a: int, modulus: int) -> int:
    """Multiplicative inverse of a mod modulus (built-in pow).

    Raises InvalidValue when modulus < 2 or gcd(a, modulus) != 1. The
    result is the canonical representative in [1, modulus).
    """
    if modulus < 2:
        raise InvalidValue(f"modulus must be >= 2, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise InvalidValue(f"{a} has no inverse modulo {modulus}") from None


def is_probable_prime(n: int, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test with trial division pre-screening.

    Below ``_PROVEN_BELOW`` strong tests to ``_PROOF_BASES`` decide. A prime
    they prove still draws its witnesses from ``rng``, and a composite takes
    the random rounds, so ``rng`` ends where the full test leaves it. From
    the bound on, without an rng the witnesses come from a Random seeded
    with n, so the answer is reproducible and the module-level random
    stream is untouched.
    """
    if n < 2 or not _passes_trial_division(n):
        return False
    if n < 2000:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    if n < _PROVEN_BELOW:
        proven = all(_strong_test(n, a, d, s) for a in _PROOF_BASES)
        if rng is None:
            return proven
        if proven:
            for _ in range(MILLER_RABIN_ROUNDS):
                rng.randrange(2, n - 1)
            return True
    elif rng is None:
        rng = random.Random(n)
    return all(_strong_test(n, rng.randrange(2, n - 1), d, s)
               for _ in range(MILLER_RABIN_ROUNDS))


def _strong_test(n: int, a: int, d: int, s: int) -> bool:
    """True when n is a strong probable prime to base a, n - 1 = d * 2**s."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


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

    Each attempt draws one candidate r = 2s+1, s odd with its top bit set
    so that r has exactly ``bits`` bits. It is accepted when s and r pass
    trial division by the primes below 2000, 2**s == -1 (mod r), a base-2
    Fermat test on s, and then Miller-Rabin on s and on r with witnesses
    from ``rng``. For a safe prime, 2**s == -1 is exactly the condition
    that 2 is a primitive root. Raises GenerationFailed when the attempt
    budget is exhausted.

    Only Miller-Rabin draws from ``rng``, so the cheaper tests run first,
    and the shortcuts below are exact: a seed yields the same r, and
    leaves ``rng`` in the same state, with them or without them.

    - s == 3 (mod 4) is rejected before any test. Then r == 7 (mod 8), so
      the Jacobi symbol (2|r) is 1. 2**s == -1 with s = (r-1)/2 odd makes
      r a strong probable prime to base 2, and a strong base-2
      pseudoprime is an Euler-Jacobi pseudoprime to base 2 (Pomerance,
      Selfridge and Wagstaff, 1980), as a prime is by Euler's criterion.
      Either way 2**s == (2|r) == 1, never -1.
    - No Fermat test on r: 2**s == -1 squares to 2**(r-1) == 1.
    - From 6 bits on, s and r exceed 11, so trial division rejects s when 3,
      5, 7 or 11 divides s or r: one lookup at s % 4620 in the wheel
      ``_WHEEL_OPEN`` drops those and s == 3 (mod 4). Widths 3 to 5 keep only
      that skip, since s may be such a prime (4 bits give r = 11 from s = 5).
    - Below ``_PROVEN_BELOW`` (81 bits and a little more), ``is_probable_prime``
      proves s and r by its fixed bases and draws their witnesses untested.
      Miller-Rabin passes every round on a prime, so it would have drawn
      just these, and returned True.
    """
    if bits < 3:
        raise ValueError("bits must be >= 3")
    draw, width, fixed = rng.getrandbits, bits - 1, 1 << (bits - 2) | 1
    wheel, spokes = (_WHEEL_OPEN, _WHEEL) if bits >= 6 else (b"\0\1\0\0", 4)
    for _ in range(max_attempts):
        s = draw(width) | fixed
        if not wheel[s % spokes]:
            continue
        r = 2 * s + 1
        if not (_passes_trial_division(s) and _passes_trial_division(r)):
            continue
        if pow(2, s, r) != r - 1 or pow(2, s - 1, s) != 1:
            continue
        if is_probable_prime(s, rng=rng) and is_probable_prime(r, rng=rng):
            return r
    raise GenerationFailed(f"no suitable {bits}-bit prime in {max_attempts} attempts")
