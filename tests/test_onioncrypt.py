"""Wire formats, chunked stream cipher, onion layering and key digest."""

import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from onionkep import (
    Cell,
    CellCommand,
    RelayFrame,
    RelaySubcommand,
    SessionKey,
    chunk_decrypt,
    chunk_encrypt,
    decode_cell,
    decode_relay_frame,
    encode_cell,
    encode_relay_frame,
    gen_keypair,
    key_digest,
    make_params,
    mix,
    derive_session_key,
    onion_wrap,
    reduce_key,
)
from onionkep.errors import (
    EncodingOverflow,
    MalformedPayload,
    TruncatedCell,
    TruncatedFrame,
    UnknownCommand,
    UnknownSubcommand,
)
from onionkep.onioncrypt import (
    build_create_payload,
    build_extend_data,
    int_encode,
    parse_create_payload,
    parse_extend_data,
)

from chunk_oracle import chunk_decrypt as oracle_decrypt
from chunk_oracle import chunk_encrypt as oracle_encrypt


def random_session_key(params, rng):
    a = gen_keypair(params, rng)
    b = gen_keypair(params, rng)
    return derive_session_key(params, mix(params, b.public, a.private), b.private.k)


def key_with_reduced(params, reduced):
    return SessionKey(raw=0, reduced=reduced, reduced_inv=pow(reduced, -1, params.r))


def outcome(fn, *args):
    """The return value of ``fn(*args)``, or the type and message it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestIntCodec:
    def test_single_byte(self):
        assert int_encode(36, 1) == b"\x24"

    def test_zero_padding(self):
        assert int_encode(0, 4) == b"\x00\x00\x00\x00"

    def test_overflow(self):
        with pytest.raises(EncodingOverflow):
            int_encode(256, 1)

    @given(st.integers(0, 2**64 - 1), st.integers(8, 16))
    @settings(max_examples=100)
    def test_round_trip(self, v, width):
        assert int.from_bytes(int_encode(v, width), "big") == v


class TestChunkCipher:
    def test_single_block(self, toy_params):
        # r=11: 3-bit blocks, plaintext bits 111 -> m=7 -> c = 7*9 mod 11 = 8.
        key = reduce_key(toy_params, 36)
        cipher = chunk_encrypt(b"\xe0", key, toy_params)
        header, blocks = cipher[:8], cipher[8:]
        assert header == (8).to_bytes(8, "big")
        assert blocks[0] == 8  # first 3 bits of 0xe0 are 111

    def test_empty_plaintext(self, toy_params):
        key = reduce_key(toy_params, 36)
        assert chunk_encrypt(b"", key, toy_params) == (0).to_bytes(8, "big")
        assert chunk_decrypt((0).to_bytes(8, "big"), key, toy_params) == b""

    def test_round_trip_1kb(self, toy_params):
        key = reduce_key(toy_params, 36)
        rng = random.Random(11)
        for _ in range(5):
            plain = rng.randbytes(rng.randrange(0, 1024))
            assert chunk_decrypt(chunk_encrypt(plain, key, toy_params),
                                 key, toy_params) == plain

    def test_round_trip_large_r(self, params_64):
        rng = random.Random(12)
        key = random_session_key(params_64, rng)
        plain = rng.randbytes(1024)
        assert chunk_decrypt(chunk_encrypt(plain, key, params_64),
                             key, params_64) == plain

    def test_output_length_deterministic(self, params_64):
        rng = random.Random(13)
        key1 = random_session_key(params_64, rng)
        key2 = random_session_key(params_64, rng)
        plain = rng.randbytes(333)
        assert len(chunk_encrypt(plain, key1, params_64)) \
            == len(chunk_encrypt(plain, key2, params_64))

    def test_misaligned_body(self, toy_params):
        key = reduce_key(toy_params, 36)
        cipher = chunk_encrypt(b"\xe0", key, toy_params)
        with pytest.raises(MalformedPayload):
            chunk_decrypt(cipher + b"\x01", key, toy_params)

    def test_block_at_or_above_r(self, toy_params):
        key = reduce_key(toy_params, 36)
        cipher = bytearray(chunk_encrypt(b"\xe0", key, toy_params))
        cipher[8] = 11  # == r
        with pytest.raises(MalformedPayload):
            chunk_decrypt(bytes(cipher), key, toy_params)

    def test_truncated_header(self, toy_params):
        key = reduce_key(toy_params, 36)
        with pytest.raises(MalformedPayload):
            chunk_decrypt(b"\x00\x01", key, toy_params)

    @given(st.binary(max_size=512))
    @settings(max_examples=50,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_property(self, toy_params, plain):
        key = reduce_key(toy_params, 36)
        assert chunk_decrypt(chunk_encrypt(plain, key, toy_params),
                             key, toy_params) == plain


class TestChunkCipherAgainstOracle:
    """The linear-time cipher against the former quadratic one
    (``tests/chunk_oracle.py``): same bytes, same errors."""

    TOY_PRIMES = (3, 5, 11, 13, 59, 227, 1019)

    def draw_params_and_key(self, data, params_64):
        r = data.draw(st.sampled_from(self.TOY_PRIMES + (params_64.r,)))
        params = params_64 if r == params_64.r else make_params(2, 2, r)
        return params, key_with_reduced(params, data.draw(st.integers(1, r - 1)))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_encrypt_matches_oracle(self, params_64, data):
        params, key = self.draw_params_and_key(data, params_64)
        bits = params.r.bit_length() - 1
        plain = data.draw(st.binary(max_size=3 * bits + 1))
        cipher = chunk_encrypt(plain, key, params)
        assert cipher == oracle_encrypt(plain, key, params)
        assert chunk_decrypt(cipher, key, params) == plain

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_crafted_ciphertext_matches_oracle(self, params_64, data):
        params, key = self.draw_params_and_key(data, params_64)
        r = params.r
        bits = r.bit_length() - 1
        width = (r.bit_length() + 7) // 8
        nblocks = data.draw(st.integers(0, 3 * 8 + 1))
        if nblocks and data.draw(st.integers(0, 4)):
            # A header that matches the block count, any bit length in range.
            nbits = data.draw(st.integers((nblocks - 1) * bits + 1, nblocks * bits))
        else:
            nbits = data.draw(st.integers(0, 2**64 - 1) | st.integers(0, 4 * 8 * bits))
        blocks = data.draw(st.lists(st.integers(0, r - 1),
                                    min_size=nblocks, max_size=nblocks))
        if nblocks and data.draw(st.booleans()):
            at = data.draw(st.integers(0, nblocks - 1))
            blocks[at] = data.draw(st.integers(r, 256**width - 1))
        cipher = nbits.to_bytes(8, "big") + b"".join(b.to_bytes(width, "big") for b in blocks)
        assert outcome(chunk_decrypt, cipher, key, params) \
            == outcome(oracle_decrypt, cipher, key, params)


class TestChunkGroupBoundaries:
    """Every ``bits`` plaintext bytes are one group of 8 blocks."""

    @pytest.mark.parametrize("params_name", ["toy_params", "params_64"])
    @pytest.mark.parametrize("groups, extra", [
        (0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 0), (8, 3)])
    def test_round_trip_and_length(self, request, params_name, groups, extra):
        params = request.getfixturevalue(params_name)
        bits = params.r.bit_length() - 1
        width = (params.r.bit_length() + 7) // 8
        length = groups * bits + extra
        rng = random.Random(length)
        key = key_with_reduced(params, rng.randrange(1, params.r))
        plain = rng.randbytes(length)
        cipher = chunk_encrypt(plain, key, params)
        assert len(cipher) == 8 + -(-8 * length // bits) * width
        assert chunk_decrypt(cipher, key, params) == plain

    @pytest.mark.parametrize("params_name", ["toy_params", "params_64"])
    def test_block_error_in_second_group(self, request, params_name):
        params = request.getfixturevalue(params_name)
        bits = params.r.bit_length() - 1
        width = (params.r.bit_length() + 7) // 8
        key = key_with_reduced(params, 2)
        cipher = bytearray(chunk_encrypt(bytes(range(2 * bits)), key, params))
        cipher[8 + 9 * width : 8 + 10 * width] = params.r.to_bytes(width, "big")
        with pytest.raises(MalformedPayload, match=r"^block 9 >= r$"):
            chunk_decrypt(bytes(cipher), key, params)


class TestOnionLayering:
    def test_toy_block_composition(self, toy_params):
        # Inner key 9: 7*9 = 8 mod 11; outer key 5: 8*5 = 40 = 7 mod 11.
        inner = reduce_key(toy_params, 36)   # reduced 9
        outer = reduce_key(toy_params, 20)   # reduced 5
        assert inner.reduced == 9 and outer.reduced == 5
        wrapped = onion_wrap(b"\xe0", [inner, outer], toy_params)
        inner_layer = chunk_decrypt(wrapped, outer, toy_params)
        assert chunk_decrypt(inner_layer, inner, toy_params) == b"\xe0"

    def test_empty_key_list_is_identity(self, toy_params):
        assert onion_wrap(b"payload", [], toy_params) == b"payload"

    def test_peel_recovers_layer_by_layer(self, params_64):
        rng = random.Random(14)
        keys = [random_session_key(params_64, rng) for _ in range(5)]
        plain = rng.randbytes(2048)
        data = onion_wrap(plain, keys, params_64)
        for key in reversed(keys):
            data = chunk_decrypt(data, key, params_64)
        assert data == plain

    @pytest.mark.parametrize("layers", [1, 2, 3, 4, 5])
    def test_random_payloads_up_to_4kb(self, params_64, layers):
        rng = random.Random(layers)
        keys = [random_session_key(params_64, rng) for _ in range(layers)]
        plain = rng.randbytes(rng.randrange(0, 4096))
        data = onion_wrap(plain, keys, params_64)
        for key in reversed(keys):
            data = chunk_decrypt(data, key, params_64)
        assert data == plain

    def test_block_level_commutativity(self, toy_params):
        # The multiplicative cipher commutes: at the residue level the
        # peel order cannot matter. The protocol still peels in circuit
        # order; this documents the algebraic property.
        k1 = reduce_key(toy_params, 36)
        k2 = reduce_key(toy_params, 20)
        for m in range(toy_params.r):
            once = m * k1.reduced % 11 * k2.reduced % 11
            assert once * k1.reduced_inv % 11 * k2.reduced_inv % 11 == m
            assert once * k2.reduced_inv % 11 * k1.reduced_inv % 11 == m


class TestKeyDigest:
    def test_against_sha256_oracle(self, toy_params):
        key = reduce_key(toy_params, 36)
        assert key_digest(key) == hashlib.sha256(bytes.fromhex("0000000124")).digest()

    def test_deterministic(self, toy_params):
        key = reduce_key(toy_params, 36)
        assert key_digest(key) == key_digest(reduce_key(toy_params, 36))
        assert len(key_digest(key)) == 32

    def test_distinct_keys_distinct_digests(self, toy_params):
        assert key_digest(reduce_key(toy_params, 36)) \
            != key_digest(reduce_key(toy_params, 20))


class TestCellCodec:
    def test_worked_layout(self):
        cell = Cell(1, CellCommand.CREATE, b"")
        assert encode_cell(cell) == bytes.fromhex("00000001010000")

    def test_unknown_command(self):
        data = bytes.fromhex("00000001090000")
        with pytest.raises(UnknownCommand):
            decode_cell(data)

    def test_truncated(self):
        with pytest.raises(TruncatedCell):
            decode_cell(bytes.fromhex("000000010100ff"))

    def test_trailing_garbage(self):
        with pytest.raises(TruncatedCell):
            decode_cell(bytes.fromhex("00000001010000") + b"x")

    def test_payload_cap(self):
        with pytest.raises(EncodingOverflow):
            encode_cell(Cell(1, CellCommand.RELAY, b"\x00" * 65536))

    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(CellCommand)),
           st.binary(max_size=256))
    @settings(max_examples=200)
    def test_round_trip(self, circ_id, command, payload):
        cell = Cell(circ_id, command, payload)
        assert decode_cell(encode_cell(cell)) == cell


class TestRelayFrameCodec:
    def test_unknown_subcommand(self):
        with pytest.raises(UnknownSubcommand):
            decode_relay_frame(bytes.fromhex("ff00010000"))

    def test_truncated(self):
        with pytest.raises(TruncatedFrame):
            decode_relay_frame(bytes.fromhex("0100010005ab"))

    @given(st.sampled_from(list(RelaySubcommand)), st.integers(0, 65535),
           st.binary(max_size=256))
    @settings(max_examples=200)
    def test_round_trip(self, sub, stream_id, data):
        frame = RelayFrame(sub, stream_id, data)
        assert decode_relay_frame(encode_relay_frame(frame)) == frame


class TestStructuredPayloads:
    def test_create_payload_round_trip(self):
        data = build_create_payload(12, 40, 28, 1)
        assert data == bytes([12, 40, 28])
        assert parse_create_payload(data, 1) == (12, 40, 28)

    def test_extend_data_round_trip(self):
        data = build_extend_data("C", 12, 40, 28, 1)
        assert parse_extend_data(data, 1) == ("C", 12, 40, 28)

    def test_extend_data_bad_length(self):
        with pytest.raises(TruncatedFrame):
            parse_extend_data(build_extend_data("C", 12, 40, 28, 1)[:-1], 1)
