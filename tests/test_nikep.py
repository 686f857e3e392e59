"""Key exchange layer: handshake algebra, cipher, prefix attack, key files.

Expected values for the toy instance (p=q=2, r=11) were frozen from the
brute-force oracles in this file before the implementation was wired in.
"""

import math
import random
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onionkep import (
    decrypt_block,
    derive_session_key,
    encrypt_block,
    gen_keypair,
    gen_params,
    key_sizes,
    keypair_from_secrets,
    make_params,
    mix,
    params_digest,
    prefix_recover,
    reduce_key,
    strip,
)
from onionkep.errors import GenerationFailed, InvalidValue, MalformedKeyFile
from onionkep import nikep
from onionkep.modmath import mod_inv
from onionkep.nikep import (
    PrivateKey,
    PublicConstructor,
    SystemParams,
    _fixed_base_table,
    _table_pow,
    decode_private_file,
    decode_public_file,
    encode_private_file,
    encode_public_file,
)
from conftest import ScriptedRng, built_tables, outcome, tabulate
import session_key_oracle


def oracle_shared_key(params, a, b):
    """Direct computation of p**(2 x_a x_b) * q**(y_a y_b) mod n."""
    return (pow(params.p, 2 * a.private.x * b.private.x, params.n)
            * pow(params.q, a.private.y * b.private.y, params.n)) % params.n


class TestGenParams:
    def test_toy_instance(self):
        params = gen_params(4, random.Random(1))
        assert (params.p, params.q, params.r, params.n, params.phi) == (2, 2, 11, 44, 20)

    def test_structure(self, params_64):
        assert params_64.n == params_64.p * params_64.q * params_64.r
        assert params_64.phi == 2 * (params_64.r - 1)

    def test_rejects_composite(self):
        with pytest.raises(InvalidValue, match="^15 is not prime$"):
            make_params(2, 2, 15)

    def test_exhaustion_propagates(self):
        with pytest.raises(GenerationFailed):
            gen_params(3, random.Random(0), max_attempts=50)

    def test_global_random_untouched(self, params_64):
        # A 64-bit r reaches Miller-Rabin, whose default witnesses once
        # came from the module-level random stream.
        state = random.getstate()
        make_params(params_64.p, params_64.q, params_64.r)
        gen_params(64, random.Random(0xBEEF))
        assert random.getstate() == state


class TestGenKeypair:
    def test_worked_example_a(self, toy_params):
        pair = keypair_from_secrets(toy_params, 3, 13)
        assert pair.private.y == 18
        assert (pair.public.P, pair.public.Q) == (40, 28)

    def test_worked_example_b(self, toy_params):
        pair = keypair_from_secrets(toy_params, 5, 15)
        assert pair.private.y == 16
        assert (pair.public.P, pair.public.Q) == (4, 36)

    def test_defining_relation(self, toy_params):
        rng = random.Random(3)
        for _ in range(20):
            pair = gen_keypair(toy_params, rng)
            assert pair.private.x + pair.private.y == toy_params.phi + 1
            assert 2 <= pair.private.x <= toy_params.phi - 2
            assert math.gcd(pair.private.k, toy_params.n) == 1

    def test_prefix_safe_policy(self, toy_params):
        rng = random.Random(4)
        for _ in range(50):
            pair = gen_keypair(toy_params, rng, prefix_safe=True)
            assert pair.private.k > toy_params.r

    def test_small_k_opt_out(self, toy_params):
        rng = random.Random(5)
        seen_small = any(gen_keypair(toy_params, rng, prefix_safe=False).private.k
                         <= toy_params.r for _ in range(50))
        assert seen_small

    def test_exponent_shape(self, toy_params):
        # P must carry exponent 2x: recompute from the private key.
        rng = random.Random(6)
        pair = gen_keypair(toy_params, rng)
        expected = pow(2, 2 * pair.private.x, 44) * pair.private.k % 44
        assert pair.public.P == expected

    def test_scripted_rng_draws(self, toy_params):
        pair = gen_keypair(toy_params, ScriptedRng([3, 13]))
        assert (pair.public.P, pair.public.Q) == (40, 28)

    def test_rejects_k_sharing_a_factor_with_n(self, toy_params):
        with pytest.raises(InvalidValue, match="^k = 22 shares a factor with n$"):
            keypair_from_secrets(toy_params, 5, 22)


class TestHandshake:
    def test_mix_toy_values(self, toy_params, toy_alice, toy_bob):
        assert mix(toy_params, toy_bob.public, toy_alice.private) == 12
        assert mix(toy_params, toy_alice.public, toy_bob.private) == 28

    def test_mix_preserves_peer_k(self, toy_params, toy_alice, toy_bob):
        k_s = oracle_shared_key(toy_params, toy_alice, toy_bob)
        assert mix(toy_params, toy_bob.public, toy_alice.private) \
            == k_s * toy_bob.private.k % toy_params.n

    def test_strip_toy_values(self, toy_params):
        assert strip(toy_params, 12, 15) == 36
        assert strip(toy_params, 28, 13) == 36

    def test_strip_identity_k(self, toy_params):
        assert strip(toy_params, 28, 1) == 28

    def test_strip_rejects_bad_k(self, toy_params):
        with pytest.raises(InvalidValue, match="^4 has no inverse modulo 44$"):
            strip(toy_params, 12, 4)

    def test_agreement_toy(self, toy_params, toy_alice, toy_bob):
        a_side = strip(toy_params, mix(toy_params, toy_alice.public, toy_bob.private),
                       toy_alice.private.k)
        b_side = strip(toy_params, mix(toy_params, toy_bob.public, toy_alice.private),
                       toy_bob.private.k)
        assert a_side == b_side == 36
        assert oracle_shared_key(toy_params, toy_alice, toy_bob) == 36

    @pytest.mark.parametrize("r_bits", [4, 16, 64])
    def test_agreement_random(self, r_bits):
        rng = random.Random(r_bits)
        params = gen_params(r_bits, rng)
        for _ in range(25):
            a = gen_keypair(params, rng)
            b = gen_keypair(params, rng)
            shared = oracle_shared_key(params, a, b)
            assert strip(params, mix(params, b.public, a.private), b.private.k) == shared
            assert strip(params, mix(params, a.public, b.private), a.private.k) == shared


class TestReduce:
    def test_toy_value(self, toy_params):
        key = reduce_key(toy_params, 36)
        assert (key.raw, key.reduced, key.reduced_inv) == (36, 9, 5)

    def test_unit(self, toy_params):
        key = reduce_key(toy_params, 4)
        assert (key.reduced, key.reduced_inv) == (1, 1)

    def test_rejects_indivisible(self, toy_params):
        with pytest.raises(InvalidValue,
                           match="^raw session key 35 not divisible by 4$"):
            reduce_key(toy_params, 35)

    def test_rejects_zero_mod_r(self, toy_params):
        with pytest.raises(InvalidValue, match="^reduced session key is 0 mod r$"):
            reduce_key(toy_params, toy_params.n)

    def test_raw_always_non_invertible(self, params_64):
        rng = random.Random(9)
        for _ in range(10):
            a = gen_keypair(params_64, rng)
            b = gen_keypair(params_64, rng)
            key = derive_session_key(params_64, mix(params_64, b.public, a.private),
                                     b.private.k)
            with pytest.raises(InvalidValue,
                               match=f"^{key.raw} has no inverse modulo {params_64.n}$"):
                mod_inv(key.raw, params_64.n)
            assert key.reduced * key.reduced_inv % params_64.r == 1


class TestDeriveAgainstOracle:
    """derive_session_key against the former strip-then-reduce_key
    derivation (``session_key_oracle``): the same SessionKey, or the same
    exception type and message."""

    # (3, 5, 5) has r equal to q, where no inverse mod r applies.
    SHAPES = [(2, 2, 11), (2, 3, 11), (3, 5, 7), (3, 3, 7), (3, 5, 5)]

    @staticmethod
    def units(params):
        """A k invertible mod n, give or take multiples of n."""
        n = params.n
        unit = st.integers(1, n - 1).filter(lambda k: math.gcd(k, n) == 1)
        return st.tuples(unit, st.integers(-1, 2)).map(lambda t: t[0] + t[1] * n)

    @staticmethod
    def handshake_values(params):
        """A multiple of p*q that is not 0 mod r, as a handshake value is,
        give or take multiples of n."""
        pq, n = params.p * params.q, params.n
        return st.tuples(st.integers(1, params.r - 1), st.integers(-1, 2)) \
            .map(lambda t: t[0] * pq + t[1] * n)

    @classmethod
    def any_values(cls, params):
        """A handshake value, or 0, a multiple of r, a value off the
        multiples of p*q, a negative value, or one at or past n or 2**(8W)."""
        n, r, pq = params.n, params.r, params.p * params.q
        wide = 1 << 8 * params.residue_width
        return (cls.handshake_values(params)
                | st.integers(-3, 3 * pq).map(lambda m: m * r)
                | st.tuples(st.integers(0, n // pq), st.integers(1, pq - 1))
                    .map(lambda t: t[0] * pq + t[1])
                | st.integers(-n, -1) | st.integers(n, 3 * n) | st.integers(wide, 2 * wide))

    @classmethod
    def any_ks(cls, params):
        """A k invertible mod n, an even k, or a multiple of r."""
        return (cls.units(params)
                | st.integers(-params.n, params.n).map(lambda m: 2 * m)
                | st.integers(-3, 3 * params.p * params.q).map(lambda m: m * params.r))

    def check(self, params, v, k):
        assert outcome(derive_session_key, params, v, k) \
            == outcome(session_key_oracle.derive_session_key, params, v, k)

    @pytest.mark.parametrize("shape", [*SHAPES, "params_64"], ids=str)
    @given(data=st.data())
    @settings(max_examples=settings.default.max_examples, deadline=None)  # 100, or 1000 under ``thorough``
    def test_handshake_values(self, request, shape, data):
        params = request.getfixturevalue(shape) if shape == "params_64" else make_params(*shape)
        self.check(params, data.draw(self.handshake_values(params)), data.draw(self.units(params)))

    @pytest.mark.parametrize("shape", [*SHAPES, "params_64"], ids=str)
    @given(data=st.data())
    @settings(max_examples=2 * settings.default.max_examples, deadline=None)  # 200, or 2000 under ``thorough``
    def test_any_values(self, request, shape, data):
        params = request.getfixturevalue(shape) if shape == "params_64" else make_params(*shape)
        self.check(params, data.draw(self.any_values(params)), data.draw(self.any_ks(params)))

    @pytest.mark.parametrize("k", [4, 22])
    @pytest.mark.parametrize("v", [12, 28])
    def test_k_sharing_a_factor_with_n(self, toy_params, v, k):
        # v is a multiple of p*q = 4 and not 0 mod r = 11, so only k stops
        # the one-inverse derivation: it must fall back to strip's error.
        with pytest.raises(InvalidValue, match=f"^{k} has no inverse modulo 44$") as raised:
            derive_session_key(toy_params, v, k)
        assert outcome(strip, toy_params, v, k) == (InvalidValue, str(raised.value))

    def test_one_inverse_mod_r_per_handshake(self, params_256, monkeypatch):
        rng = random.Random(5)
        inverses = []

        def counting_pow(base, exp, mod=None):
            if exp == -1:
                inverses.append(mod)
            return pow(base, exp, mod)

        pairs = [(gen_keypair(params_256, rng), gen_keypair(params_256, rng)) for _ in range(5)]
        values = [(mix(params_256, b.public, a.private), b.private.k) for a, b in pairs]
        monkeypatch.setattr(nikep, "pow", counting_pow, raising=False)
        for v, k in values:
            assert derive_session_key(params_256, v, k) \
                == session_key_oracle.derive_session_key(params_256, v, k)
        # Only nikep's own pow is counted; the oracle inverts through mod_inv.
        assert inverses == [params_256.r] * len(values)


class TestBlockCipher:
    def test_encrypt_toy(self, toy_params):
        key = reduce_key(toy_params, 36)
        assert encrypt_block(7, key, toy_params) == 8
        assert encrypt_block(0, key, toy_params) == 0

    def test_decrypt_toy(self, toy_params):
        key = reduce_key(toy_params, 36)
        assert decrypt_block(8, key, toy_params) == 7
        assert decrypt_block(0, key, toy_params) == 0

    def test_identity_key(self, toy_params):
        key = reduce_key(toy_params, 4)  # reduced == 1
        for m in range(11):
            assert encrypt_block(m, key, toy_params) == m

    def test_exhaustive_round_trip(self, toy_params):
        key = reduce_key(toy_params, 36)
        for m in range(toy_params.r):
            assert decrypt_block(encrypt_block(m, key, toy_params), key, toy_params) == m

    def test_out_of_range(self, toy_params):
        key = reduce_key(toy_params, 36)
        with pytest.raises(InvalidValue, match=r"^plaintext block 11 not in \[0, r\)$"):
            encrypt_block(11, key, toy_params)
        with pytest.raises(InvalidValue, match=r"^ciphertext block 11 not in \[0, r\)$"):
            decrypt_block(11, key, toy_params)

    def test_homomorphism(self, toy_params):
        # (w*ka*kb)*ka^-1 == w*kb and (w*ka*kb)*kb^-1 == w*ka, mod r.
        rng = random.Random(10)
        r = toy_params.r
        for _ in range(100):
            ka, kb = rng.randrange(1, r), rng.randrange(1, r)
            w = rng.randrange(0, r)
            both = w * ka % r * kb % r
            assert both * mod_inv(ka, r) % r == w * kb % r
            assert both * mod_inv(kb, r) % r == w * ka % r


class TestPrefixAttack:
    def test_full_recovery(self, toy_params):
        assert prefix_recover(toy_params, 16, 24) == 7

    def test_mitigated_leaks_residue_only(self, toy_params):
        recovered = prefix_recover(toy_params, 16, 32)
        assert recovered == 2
        assert recovered != 13
        assert recovered == 13 % toy_params.r

    def test_malformed_capture(self, toy_params):
        with pytest.raises(InvalidValue, match="^captured values must be divisible by 4$"):
            prefix_recover(toy_params, 15, 24)

    def test_degenerate_capture(self, toy_params):
        with pytest.raises(InvalidValue, match="^prefix reduces to 0 mod r$"):
            prefix_recover(toy_params, 0, 24)

    def test_unsupported_shape(self):
        with pytest.raises(InvalidValue, match="^prefix attack as stated requires p = q = 2$"):
            prefix_recover(make_params(3, 5, 11), 4, 8)

    @pytest.mark.parametrize("p, q", [(2, 3), (3, 2)])
    def test_one_factor_of_2_is_not_enough(self, p, q):
        with pytest.raises(InvalidValue, match="^prefix attack as stated requires p = q = 2$"):
            prefix_recover(make_params(p, q, 11), 4, 8)


class TestKeySizes:
    def test_1024_bit_modulus(self):
        r = (1 << 1021) | 1
        params = SystemParams(p=2, q=2, r=r, n=4 * r, phi=0)
        assert params.n.bit_length() == 1024
        assert key_sizes(params)["public_bytes"] == 256

    def test_2048_bit_modulus(self):
        r = (1 << 2045) | 1
        params = SystemParams(p=2, q=2, r=r, n=4 * r, phi=0)
        assert params.n.bit_length() == 2048
        assert key_sizes(params)["public_bytes"] == 512

    def test_toy_width(self, toy_params):
        assert key_sizes(toy_params)["public_bytes"] == 2

def direct_keypair(params, x, k):
    """The two-pow keypair formula: (p**(2x) * k, q**y * k) mod n."""
    y = params.phi - x + 1
    return (pow(params.p, 2 * x, params.n) * k % params.n,
            pow(params.q, y, params.n) * k % params.n)


def direct_mix(params, P, Q, x, y):
    """The two-pow handshake value: P**x * Q**y mod n."""
    return pow(P, x, params.n) * pow(Q, y, params.n) % params.n


def crt_keypair(params, x, k):
    pub = keypair_from_secrets(params, x, k).public
    return pub.P, pub.Q


def crt_mix(params, P, Q, x, y):
    return mix(params, PublicConstructor(P=P, Q=Q), PrivateKey(x=x, y=y, k=1))


class TestCrtHandshake:
    """mix and keypair_from_secrets, evaluated mod r and mod p*q and joined
    by the CRT, against the two-pow formulas mod n."""

    SHAPES = [(2, 2, 11), (3, 5, 11), (2, 3, 5), (2, 2, 23), (2, 2, 2)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_exhaustive_keypairs(self, shape):
        params = make_params(*shape)
        units = [k for k in range(params.n) if math.gcd(k, params.n) == 1]
        for x in range(params.phi + 2):
            for k in units:
                assert crt_keypair(params, x, k) == direct_keypair(params, x, k)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_exhaustive_mix(self, shape):
        params = make_params(*shape)
        n, r, phi = params.n, params.r, params.phi
        rng = random.Random(n)
        for x in range(phi + 2):
            y = phi - x + 1
            # On the identity (y and y + r - 1), and one step off it.
            privs = [(x, y), (x, y + r - 1), (x, y + 1)]
            for Q in (0, 1, r, 2 * r % n, rng.randrange(n)):
                for P in range(n):
                    for x_, y_ in privs:
                        assert crt_mix(params, P, Q, x_, y_) \
                            == direct_mix(params, P, Q, x_, y_)

    @staticmethod
    def residues(params):
        """Any residue mod n, a multiple of r, or a small value."""
        n, r = params.n, params.r
        return (st.integers(0, n - 1)
                | st.integers(0, params.p * params.q - 1).map(lambda m: m * r)
                | st.integers(0, 4))

    @staticmethod
    def exponents(params):
        phi = params.phi
        return (st.integers(2, phi - 2) | st.sampled_from([0, 1, phi, phi + 1])
                | st.integers(phi + 2, 2 * phi) | st.integers(-3, -1))

    @pytest.mark.parametrize("params_name", ["params_64", "params_256"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_keypairs(self, request, params_name, data):
        params = request.getfixturevalue(params_name)
        x = data.draw(self.exponents(params))
        k = data.draw(st.integers(1, params.n - 1).filter(
            lambda k: math.gcd(k, params.n) == 1))
        assert outcome(crt_keypair, params, x, k) == outcome(direct_keypair, params, x, k)

    @pytest.mark.parametrize("params_name", ["params_64", "params_256"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_mix(self, request, params_name, data):
        params = request.getfixturevalue(params_name)
        P = data.draw(self.residues(params))
        Q = data.draw(self.residues(params))
        x = data.draw(self.exponents(params))
        r = params.r
        # A keypair's y, the same shifted by multiples of r - 1, or a
        # hand-made y with x + y - 1 off the multiples of r - 1.
        y = params.phi - x + 1 + data.draw(
            st.integers(-2, 2).map(lambda j: j * (r - 1))
            | st.integers(1, r - 2)
            | st.integers(-params.n, params.n))
        assert outcome(crt_mix, params, P, Q, x, y) == outcome(direct_mix, params, P, Q, x, y)

    def test_keypair_handshake_agrees(self, params_256):
        rng = random.Random(7)
        for _ in range(20):
            a = gen_keypair(params_256, rng)
            b = gen_keypair(params_256, rng)
            assert (a.public.P, a.public.Q) \
                == direct_keypair(params_256, a.private.x, a.private.k)
            for own, peer in ((a, b), (b, a)):
                assert mix(params_256, peer.public, own.private) == direct_mix(
                    params_256, peer.public.P, peer.public.Q, own.private.x, own.private.y)


class TestTabulatedMix:
    """TestCrtHandshake's mix tests run again after the peer constructor has
    been tabulated, so that mix reads its fixed-base table wherever one
    exists: the same integer, or the same exception type and message, as
    the two-pow formula."""

    @pytest.mark.parametrize("shape", TestCrtHandshake.SHAPES, ids=str)
    def test_exhaustive_mix(self, shape):
        params = make_params(*shape)
        n, r, phi = params.n, params.r, params.phi
        rng = random.Random(n)
        pubs = [PublicConstructor(P=P, Q=Q)
                for Q in (0, 1, r, 2 * r % n, rng.randrange(n)) for P in range(n)]
        for pub in pubs:
            tabulate(params, pub)
        # A table for each constructor with P, Q != 0 (mod r), unless r is p or q.
        assert built_tables(params).keys() == (
            set() if r in shape[:2] else {pub for pub in pubs if pub.P % r and pub.Q % r})
        for x in range(-2, phi + 2):
            y = phi - x + 1
            for pub in pubs:
                for x_, y_ in [(x, y), (x, y + r - 1), (x, y + 1)]:
                    assert outcome(crt_mix, params, pub.P, pub.Q, x_, y_) \
                        == outcome(direct_mix, params, pub.P, pub.Q, x_, y_)

    @pytest.mark.parametrize("params_name", ["params_64", "params_256"])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_mix(self, request, params_name, data):
        # A copy, so that the shared fixture keeps no tables.
        params = replace(request.getfixturevalue(params_name))
        P = data.draw(TestCrtHandshake.residues(params))
        Q = data.draw(TestCrtHandshake.residues(params))
        x = data.draw(TestCrtHandshake.exponents(params))
        r = params.r
        y = params.phi - x + 1 + data.draw(
            st.integers(-2, 2).map(lambda j: j * (r - 1))
            | st.integers(1, r - 2)
            | st.integers(-params.n, params.n))
        pub = PublicConstructor(P=P, Q=Q)
        tabulate(params, pub)
        assert (pub in built_tables(params)) == bool(P % r and Q % r)
        assert outcome(crt_mix, params, P, Q, x, y) == outcome(direct_mix, params, P, Q, x, y)

    def test_mix_reads_the_table(self, params_64):
        params = replace(params_64)
        rng = random.Random(3)
        peer, own = gen_keypair(params, rng), gen_keypair(params, rng)
        tabulate(params, peer.public)
        assert mix(params, peer.public, own.private) == mix(params_64, peer.public, own.private)
        # The table of base 1 turns the part mod r into Q alone.
        params._mix_tables[peer.public] = _fixed_base_table(1, params.r)
        assert mix(params, peer.public, own.private) % params.r == peer.public.Q % params.r


class TestMixTableBound:
    """SystemParams keeps at most MIX_TABLES_MAX resolved constructors and
    drops the one resolved least recently; mix reads the same integers."""

    def test_thousand_constructors(self, params_64, monkeypatch):
        monkeypatch.setattr(nikep, "MIX_TABLES_MAX", 64)
        params, plain = replace(params_64), replace(params_64)
        rng = random.Random(21)
        own = gen_keypair(params, rng).private
        pubs = [PublicConstructor(P=rng.randrange(1, params.n), Q=rng.randrange(1, params.n))
                for _ in range(1000)]
        for pub in pubs:
            tabulate(params, pub)
            assert len(params._mix_tables) <= 64
        assert list(params._mix_tables) == pubs[-64:]
        assert built_tables(params).keys() == {p for p in pubs[-64:] if p.P % params.r
                                               and p.Q % params.r}
        for pub in pubs[::7] + pubs[-64:]:
            assert mix(params, pub, own) == mix(plain, pub, own)

    def test_resolving_again_keeps_an_entry(self, params_64, monkeypatch):
        monkeypatch.setattr(nikep, "MIX_TABLES_MAX", 3)
        params = replace(params_64)
        rng = random.Random(22)
        a, b, c, d = (gen_keypair(params, rng).public for _ in range(4))
        for pub in (a, b, c):
            tabulate(params, pub)
        rows = params._mix_tables[a]
        params.note_resolved(a)
        params.note_resolved(d)
        assert list(params._mix_tables) == [c, a, d]
        assert params._mix_tables[a] is rows and params._mix_tables[d] is None

    def test_threads_keep_the_bound(self, params_64, monkeypatch):
        monkeypatch.setattr(nikep, "MIX_TABLES_MAX", 16)
        params, plain = replace(params_64), replace(params_64)
        rng = random.Random(23)
        own = gen_keypair(params, rng).private
        pubs = [PublicConstructor(P=rng.randrange(1, params.n), Q=rng.randrange(1, params.n))
                for _ in range(400)]
        expected = {pub: mix(plain, pub, own) for pub in pubs}
        errors = []

        def resolve(chunk):
            try:
                for pub in chunk:
                    tabulate(params, pub)
                    if mix(params, pub, own) != expected[pub]:
                        errors.append(pub)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=resolve, args=(pubs[i::6],)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(params._mix_tables) == 16

    def test_cap_holds_the_exhaustive_tests(self):
        # TestTabulatedMix tabulates up to 5 * n constructors of one shape.
        assert nikep.MIX_TABLES_MAX >= max(5 * make_params(*shape).n
                                           for shape in TestCrtHandshake.SHAPES)


class TestKeyFiles:
    def test_public_round_trip(self, toy_params, toy_alice):
        blob = encode_public_file(toy_params, toy_alice.public)
        params, pub = decode_public_file(blob)
        assert params == toy_params
        assert pub == toy_alice.public

    def test_private_round_trip(self, toy_params, toy_alice):
        blob = encode_private_file(toy_params, toy_alice)
        params, pair = decode_private_file(blob)
        assert params == toy_params
        assert pair == toy_alice

    def test_exact_record_layout(self, toy_params, toy_alice):
        # tag || 4-byte BE length || minimal BE value, fixed tag order.
        blob = encode_public_file(toy_params, toy_alice.public)
        assert blob == bytes.fromhex(
            "01" "00000001" "02"      # p = 2
            "02" "00000001" "02"      # q = 2
            "03" "00000001" "0b"      # r = 11
            "07" "00000001" "28"      # P = 40
            "08" "00000001" "1c")     # Q = 28

    def test_missing_record(self, toy_params, toy_alice):
        blob = encode_public_file(toy_params, toy_alice.public)[:-6]
        with pytest.raises(MalformedKeyFile):
            decode_public_file(blob)

    def test_inconsistent_private_file(self, toy_params, toy_alice, toy_bob):
        # Bob's constructor stapled to Alice's secrets must be rejected.
        blob = (encode_public_file(toy_params, toy_bob.public)
                + encode_private_file(toy_params, toy_alice)[-12:])
        with pytest.raises(MalformedKeyFile):
            decode_private_file(blob)

    def test_params_digest_distinguishes(self, toy_params):
        other = make_params(2, 2, 23)
        assert params_digest(toy_params) != params_digest(other)
        assert len(params_digest(toy_params)) == 32


class TestFixedBaseTable:
    """_table_pow, read from a _fixed_base_table, against pow: the table of
    p that keypairs read, and the table of any base that mix reads."""

    @pytest.mark.parametrize("params_name", ["params_64", "params_256"])
    def test_edge_exponents(self, request, params_name):
        params = request.getfixturevalue(params_name)
        r, phi = params.r, params.phi
        for x in (0, 1, r - 2, r - 1, r, phi, phi + 1, -1, -phi, 2**600):
            assert _table_pow(params._p_table, x, r) == pow(params.p, x, r)

    # The table is only read when r is neither p nor q, as p**x mod r then
    # depends on x mod r - 1 alone.
    @pytest.mark.parametrize("shape", [s for s in TestCrtHandshake.SHAPES if s[2] not in s[:2]],
                             ids=str)
    def test_every_exponent_on_toy_shapes(self, shape):
        params = make_params(*shape)
        for x in range(-2 * params.phi - 2, 2 * params.phi + 3):
            assert _table_pow(params._p_table, x, params.r) == pow(params.p, x, params.r)

    @pytest.mark.parametrize("params_name", ["params_64", "params_256"])
    def test_any_base_edge_exponents(self, request, params_name):
        params = request.getfixturevalue(params_name)
        r, phi = params.r, params.phi
        pub = gen_keypair(params, random.Random(5)).public
        rng = random.Random(r)
        for base in (1, r - 1, 2, pub.P * pow(pub.Q, -1, r) % r, rng.randrange(1, r)):
            rows = _fixed_base_table(base, r)
            for x in (0, 1, r - 2, r - 1, r, phi, phi + 1, -1, -phi, 2**600,
                      rng.randrange(-phi, phi)):
                assert _table_pow(rows, x, r) == pow(base, x, r)

    @pytest.mark.parametrize("r", [3, 5, 11, 23, 67])
    def test_every_base_and_exponent_mod_small_primes(self, r):
        for base in range(1, r):
            rows = _fixed_base_table(base, r)
            for x in range(-2 * r, 2 * r + 1):
                assert _table_pow(rows, x, r) == pow(base, x, r)
