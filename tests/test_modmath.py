"""Number-theory layer, checked against brute-force oracles throughout."""

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onionkep import gen_params, modmath
from onionkep.errors import GenerationFailed, InvalidValue
from onionkep.modmath import (
    _WHEEL_OPEN,
    gen_prime_with_two_primitive,
    is_probable_prime,
    mod_inv,
    totient,
)
import prime_oracle
from conftest import outcome


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
        with pytest.raises(InvalidValue, match="^4 has no inverse modulo 44$"):
            mod_inv(4, 44)

    def test_invalid_modulus(self):
        with pytest.raises(InvalidValue, match="^modulus must be >= 2, got 1$"):
            mod_inv(2, 1)

    @given(st.integers(1, 5_000), st.integers(2, 5_000))
    @settings(max_examples=300)
    def test_inverse_property(self, a, n):
        if math.gcd(a, n) != 1:
            with pytest.raises(InvalidValue, match=f"^{a} has no inverse modulo {n}$"):
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


class TestAgainstOracle:
    """The search draws the same candidates and accepts the same r as the
    former code in ``prime_oracle``, and leaves the rng in the same state."""

    @given(st.integers(3, 96), st.integers(0, 2**32),
           st.integers(1, 50) | st.integers(10_000, 20_000))
    @settings(max_examples=2 * settings.default.max_examples, deadline=None)  # 200, or 2000 under ``thorough``
    def test_same_prime_and_rng_state(self, bits, seed, max_attempts):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert outcome(gen_prime_with_two_primitive, bits, rng, max_attempts=max_attempts) \
            == outcome(prime_oracle.gen_prime_with_two_primitive, bits, oracle_rng,
                       max_attempts=max_attempts)
        assert rng.getstate() == oracle_rng.getstate()

    @pytest.mark.parametrize("bits", range(3, 13))
    def test_every_seed_of_a_narrow_width(self, bits):
        # Seeds 0-199 at each width. Widths 3 and 5 have no such prime, so
        # there every search ends in GenerationFailed after 3000 attempts.
        for seed in range(200):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            got = outcome(gen_prime_with_two_primitive, bits, rng, max_attempts=3000)
            want = outcome(prime_oracle.gen_prime_with_two_primitive, bits, oracle_rng,
                           max_attempts=3000)
            assert (seed, got) == (seed, want)
            assert rng.getstate() == oracle_rng.getstate(), seed

    @given(st.integers(-5, 10**6) | st.integers(0, 2**80), st.integers(0, 2**32))
    @settings(max_examples=300)
    def test_probable_prime_same_answer_and_rng_state(self, n, seed):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert is_probable_prime(n, rng=rng) is prime_oracle.is_probable_prime(n, rng=oracle_rng)
        assert rng.getstate() == oracle_rng.getstate()

    def test_trial_division_draws_no_witness(self):
        # Every prime below 2000 is itself accepted, and rejected as a factor
        # of a larger n, before a witness is drawn; 2003 is prime.
        rng = random.Random(0)
        state = rng.getstate()
        for p in prime_oracle._SMALL_PRIMES:
            assert is_probable_prime(p, rng=rng)
            assert not is_probable_prime(p * p, rng=rng)
            assert not is_probable_prime(p * 2003, rng=rng)
        assert rng.getstate() == state

    def test_wheel_is_its_definition(self):
        # The differential tests cannot see a wheel that admits s == 3
        # (mod 4): the search rejects such s later, before any draw.
        assert _WHEEL_OPEN == bytes(
            t % 4 == 1 and all(t % p and (2 * t + 1) % p for p in (3, 5, 7, 11))
            for t in range(4620))

    def test_base_2_pseudoprime_candidate(self):
        # s = 3391 * 23279 * 1868569: three factors of 2**113 - 1, each
        # 1 (mod 113), so 2**(s-1) == 1 (mod s) although s is composite.
        # It passes the wheel and trial division, r = 2s + 1 is prime and
        # 2**s == -1 (mod r), so s reaches the search's Fermat test, whose
        # base 2 lets it through to draw Miller-Rabin witnesses. Base 3
        # would reject it before any draw.
        s = 3391 * 23279 * 1868569
        r = 2 * s + 1
        assert pow(2, s - 1, s) == 1 and pow(3, s - 1, s) != 1
        assert _WHEEL_OPEN[s % 4620] and prime_oracle.is_probable_prime(r)
        assert pow(2, s, r) == r - 1

        class FirstDrawIsS(random.Random):
            first = s

            def getrandbits(self, k):
                if self.first is None:
                    return super().getrandbits(k)
                drawn, self.first = self.first, None
                return drawn

        # Every draw here takes two words of the stream, so a search that
        # skipped the witnesses would fall back in step a candidate later:
        # one attempt shows the state it leaves, the second the whole search.
        bits = r.bit_length()
        for max_attempts in (1, 10_000):
            rng, oracle_rng = FirstDrawIsS(3), FirstDrawIsS(3)
            assert outcome(gen_prime_with_two_primitive, bits, rng, max_attempts=max_attempts) \
                == outcome(prime_oracle.gen_prime_with_two_primitive, bits, oracle_rng,
                           max_attempts=max_attempts)
            assert rng.getstate() == oracle_rng.getstate()

    def test_three_mod_four_never_passes(self):
        # Why the search skips s == 3 (mod 4) before any test: then
        # r = 2s + 1 == 7 (mod 8) and 2**s == -1 (mod r) never holds.
        assert all(pow(2, s, 2 * s + 1) != 2 * s for s in range(3, 2_000_000, 4))


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


PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the smallest strong pseudoprime to the first k prime bases (OEIS
# A014233), with the largest k it is that for: psi_7 = psi_8, psi_9 = psi_11.
PSI = [(2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
       (3474749660383, 6), (341550071728321, 8), (3825123056546413051, 11),
       (318665857834031151167461, 12), (3317044064679887385961981, 13)]
PSI_13 = PSI[-1][0]
# Carmichael numbers with their prime factors: three with factors below 2000,
# which trial division rejects, then Chernick's
# (6k+1)(12k+1)(18k+1) for k = 370, 1000051 and 13000130.
CARMICHAEL = [(561, (3, 11, 17)), (1729, (7, 13, 19)), (41041, (7, 11, 13, 41)),
              (65700513721, (2221, 4441, 6661)),
              (1296198694153288947529, (6000307, 12000613, 18000919)),
              (2847397487139535402009081, (78000781, 156001561, 234002341))]
LARGEST_PRIMES_BELOW_PSI_13 = [3317044064679887385961813, 3317044064679887385961801,
                               3317044064679887385961783]


def strong_probable_prime(n, base):
    """Oracle: n - 1 = d * 2**s with d odd; base**d == 1, or some
    base**(d * 2**i) == -1 with i < s."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return (pow(base, d, n) == 1
            or any(pow(base, d << i, n) == n - 1 for i in range(s)))


class CountingRandom(random.Random):
    """Counts the Miller-Rabin witnesses drawn from it."""

    def __init__(self, seed):
        self.witnesses = 0
        super().__init__(seed)

    def randrange(self, *args):
        self.witnesses += 1
        return super().randrange(*args)


@pytest.fixture
def pow_calls(monkeypatch):
    """Every pow call modmath makes, by its arguments."""
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(modmath, "pow", counting_pow, raising=False)
    return calls


class TestProofBelowPsi13:
    """Below psi_13 the first 13 prime bases prove a prime, which then only
    draws its witnesses; everything else draws what the former test drew."""

    @pytest.mark.parametrize("n,k", PSI)
    def test_psi_passes_exactly_its_leading_bases(self, n, k):
        assert not prime_oracle.is_probable_prime(n)
        assert all(strong_probable_prime(n, a) for a in PRIME_BASES[:k])
        assert k == 13 or not strong_probable_prime(n, PRIME_BASES[k])

    @pytest.mark.parametrize("n,factors", CARMICHAEL)
    def test_carmichael_meets_korselt(self, n, factors):
        assert math.prod(factors) == n and len(set(factors)) == len(factors)
        assert all(prime_oracle.is_probable_prime(p) and (n - 1) % (p - 1) == 0
                   for p in factors)

    @pytest.mark.parametrize("n", [n for n, _ in PSI] + [n for n, _ in CARMICHAEL]
                             + [PSI_13 + 2] + LARGEST_PRIMES_BELOW_PSI_13)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_answer_and_rng_state(self, n, seed):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        expected = n in LARGEST_PRIMES_BELOW_PSI_13
        assert prime_oracle.is_probable_prime(n, rng=oracle_rng) is expected
        assert is_probable_prime(n, rng=rng) is expected
        assert rng.getstate() == oracle_rng.getstate()
        assert is_probable_prime(n) is expected

    @pytest.mark.parametrize("n", [2003, 2**61 - 1, 2**79 - 67,
                                   LARGEST_PRIMES_BELOW_PSI_13[0]])
    def test_proven_prime_draws_its_witnesses_untested(self, pow_calls, n):
        rng = CountingRandom(7)
        assert is_probable_prime(n, rng=rng)
        assert len(pow_calls) <= len(PRIME_BASES)
        assert rng.witnesses == modmath.MILLER_RABIN_ROUNDS

    def test_prime_at_the_bound_takes_the_random_rounds(self, pow_calls):
        # The first prime above psi_13 gets no proof: 13 tests to fixed
        # bases would not show psi_13 composite.
        n = next(n for n in range(PSI_13 + 2, PSI_13 + 2000, 2)
                 if prime_oracle.is_probable_prime(n))
        rng = CountingRandom(7)
        assert is_probable_prime(n, rng=rng)
        assert len(pow_calls) == rng.witnesses == modmath.MILLER_RABIN_ROUNDS

    def test_no_rng_below_the_bound_builds_no_random(self, monkeypatch):
        built = []

        def spy(seed):
            built.append(seed)
            return random.Random(seed)

        monkeypatch.setattr(modmath, "random", SimpleNamespace(Random=spy))
        for n in [2**61 - 1, LARGEST_PRIMES_BELOW_PSI_13[0]]:
            assert is_probable_prime(n) is True
        for n, _ in PSI[:-1] + CARMICHAEL:
            assert is_probable_prime(n) is False
        assert built == []
        assert is_probable_prime(PSI_13) is False
        assert built == [PSI_13]

    def test_proof_bases_are_the_first_13_primes(self):
        # The bound psi_13 holds for these bases alone (Sorenson and Webster).
        primes = [n for n in range(2, 100) if all(n % d for d in range(2, n))]
        assert modmath._PROOF_BASES == tuple(primes[:13])

    def test_search_proves_its_pair(self, pow_calls):
        # 166 pow calls before the proof: 64 Miller-Rabin rounds on s and r.
        assert gen_params(64, random.Random(4)).r == 12202940967589715219
        assert len(pow_calls) <= 64
