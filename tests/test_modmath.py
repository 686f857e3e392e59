"""Number-theory layer, checked against brute-force oracles throughout."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onionkep.errors import (
    GenerationFailed,
    InvalidModulus,
    NonInvertible,
)
from onionkep.modmath import (
    gen_prime_with_two_primitive,
    is_probable_prime,
    mod_inv,
    totient,
)


def naive_pow(base, exp, modulus):
    """Oracle: repeated multiplication."""
    result = 1
    for _ in range(exp):
        result = result * base % modulus
    return result


def brute_inverse(a, modulus):
    """Oracle: scan every residue."""
    for t in range(1, modulus):
        if a * t % modulus == 1:
            return t
    return None


def brute_totient(n):
    """Oracle: count units."""
    return sum(1 for a in range(1, n) if math.gcd(a, n) == 1)


def brute_order(a, modulus):
    """Oracle: smallest positive exponent with a**e == 1."""
    value = a % modulus
    for e in range(1, modulus):
        if value == 1:
            return e
        value = value * a % modulus
    raise AssertionError("no order found; a not a unit")


class TestModPow:
    """Modular exponentiation is the built-in pow, pinned to the oracle."""

    def test_worked_example(self):
        assert pow(2, 18, 44) == naive_pow(2, 18, 44) == 36

    def test_zero_exponent(self):
        for x in (0, 1, 17, 43):
            assert pow(x, 0, 44) == 1

    def test_zero_base(self):
        assert pow(0, 5, 44) == 0

    def test_huge_exponent(self):
        # Exponents far beyond 2000 bits must stay fast and obey
        # 3**(2**2048 + 12345) == (3**(2**1024))**(2**1024) * 3**12345.
        m = 1 << 521
        half = pow(3, 1 << 1024, m)
        assert pow(3, (1 << 2048) + 12345, m) == pow(half, 1 << 1024, m) * pow(3, 12345, m) % m

    @given(st.integers(0, 10_000), st.integers(0, 300), st.integers(2, 5_000))
    @settings(max_examples=200)
    def test_matches_naive(self, base, exp, modulus):
        assert pow(base, exp, modulus) == naive_pow(base, exp, modulus)

    @given(st.integers(2, 10_000), st.integers(0, 1_000), st.integers(0, 1_000),
           st.integers(2, 10_000))
    @settings(max_examples=200)
    def test_exponent_additivity(self, a, x, y, n):
        assert pow(a, x + y, n) == pow(a, x, n) * pow(a, y, n) % n


class TestModInv:
    def test_worked_example(self):
        assert mod_inv(15, 44) == brute_inverse(15, 44) == 3

    def test_identity(self):
        assert mod_inv(1, 44) == 1

    def test_non_invertible(self):
        with pytest.raises(NonInvertible):
            mod_inv(4, 44)

    def test_invalid_modulus(self):
        with pytest.raises(InvalidModulus):
            mod_inv(2, 1)

    @given(st.integers(1, 5_000), st.integers(2, 5_000))
    @settings(max_examples=300)
    def test_inverse_property(self, a, n):
        if math.gcd(a, n) != 1:
            with pytest.raises(NonInvertible):
                mod_inv(a, n)
        else:
            inv = mod_inv(a, n)
            assert 1 <= inv < n
            assert a * inv % n == 1
            assert mod_inv(inv, n) == a % n


class TestTotient:
    def test_distinct_primes(self):
        assert totient(2, 3, 5) == 8 == brute_totient(30)

    def test_repeated_factor(self):
        assert totient(2, 2, 11) == 20 == brute_totient(44)

    def test_all_equal(self):
        assert totient(2, 2, 2) == 4 == brute_totient(8)

    @pytest.mark.parametrize("p,q,r", [(2, 2, 11), (3, 5, 7), (2, 3, 13), (5, 5, 11)])
    def test_matches_brute_count(self, p, q, r):
        assert totient(p, q, r) == brute_totient(p * q * r)

    def test_euler_theorem_both_profiles(self):
        rng = random.Random(42)
        for p, q, r in [(2, 2, 11), (3, 5, 11)]:
            n = p * q * r
            phi = totient(p, q, r)
            for _ in range(50):
                a = rng.randrange(1, n)
                if math.gcd(a, n) != 1:
                    continue
                assert pow(a, phi, n) == 1


class TestGenPrime:
    def test_four_bits_yields_eleven(self):
        assert gen_prime_with_two_primitive(4, random.Random(1)) == 11

    def test_never_yields_seven(self):
        for seed in range(20):
            r = gen_prime_with_two_primitive(4, random.Random(seed))
            assert r != 7

    def test_exhaustion(self):
        with pytest.raises(GenerationFailed):
            gen_prime_with_two_primitive(3, random.Random(0), max_attempts=50)

    @pytest.mark.parametrize("bits", [4, 8, 16, 32])
    def test_output_contract(self, bits):
        rng = random.Random(bits)
        r = gen_prime_with_two_primitive(bits, rng)
        assert r.bit_length() == bits
        s = (r - 1) // 2
        assert is_probable_prime(r, rng=rng) and is_probable_prime(s, rng=rng)
        assert pow(2, s, r) == r - 1  # for a safe prime: 2 is a primitive root

    def test_small_primes_full_order(self):
        # Every generated prime small enough to brute force has order r-1.
        for seed in range(5):
            r = gen_prime_with_two_primitive(8, random.Random(seed))
            assert brute_order(2, r) == r - 1


class TestProbablePrime:
    @pytest.mark.parametrize("n,expected", [
        (0, False), (1, False), (2, True), (3, True), (4, False),
        (2047, False), (8191, True), (7919, True), (7917, False),
    ])
    def test_known_values(self, n, expected):
        assert is_probable_prime(n) is expected

    def test_carmichael(self):
        assert is_probable_prime(561) is False
        assert is_probable_prime(41041) is False

    def test_default_witnesses_leave_global_random_alone(self):
        state = random.getstate()
        assert is_probable_prime(2**61 - 1) is True
        assert is_probable_prime((2**31 - 1) * (2**61 - 1)) is False
        assert random.getstate() == state
