"""Wire formats, chunked stream cipher, onion layering and key digest."""

import hashlib
import random
import time

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
from onionkep import onioncrypt
from onionkep.errors import EncodingOverflow, MalformedCell, MalformedPayload
from onionkep.modmath import is_probable_prime
from onionkep.onioncrypt import (
    GROUP_BLOCKS,
    MAX_CIRC_ID,
    PACKED_MAX_BITS,
    PACKED_MIN_BLOCKS,
    PLAN_MODULI,
    _layout,
    _Plan,
    build_create_payload,
    build_created_payload,
    build_extend_data,
    int_encode,
    parse_create_payload,
    parse_created_payload,
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


def prime_above(n):
    n += 1 + n % 2
    while not is_probable_prime(n):
        n += 2
    return n


def prime_below(n):
    n -= 1 + n % 2
    while not is_probable_prime(n):
        n -= 2
    return n


# Primes of 16, 64 and 128 bits and the packed path's widest modulus take
# the packed path; one bit wider, and at 256 bits, the per-block loop.
WIDE_PRIMES = tuple(prime_above(1 << b - 1) for b in (16, 64, 128, PACKED_MAX_BITS,
                                                       PACKED_MAX_BITS + 1, 256))


def widths(r):
    """(bits, width) of the chunk cipher under modulus r."""
    return r.bit_length() - 1, (r.bit_length() + 7) // 8


def crafted(nbits, blocks, width):
    return nbits.to_bytes(8, "big") + b"".join(b.to_bytes(width, "big") for b in blocks)


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

    def test_body_of_partial_blocks(self):
        # Blocks of r = 65537 are 3 bytes wide, so a body can end mid-block.
        params = make_params(2, 2, 65537)
        key = reduce_key(params, 36)
        cipher = chunk_encrypt(b"\xe0", key, params)
        with pytest.raises(MalformedPayload, match="ciphertext not block-aligned"):
            chunk_decrypt(cipher + b"\x01", key, params)

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
    """The packed and per-block cipher against the former quadratic one
    (``tests/chunk_oracle.py``): same bytes, same errors."""

    TOY_PRIMES = (3, 5, 11, 13, 59, 227, 1019)

    def draw_params_and_key(self, data, params_64):
        r = data.draw(st.sampled_from(self.TOY_PRIMES + WIDE_PRIMES + (params_64.r,)))
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
        bits, width = widths(r)
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
        cipher = crafted(nbits, blocks, width)
        assert outcome(chunk_decrypt, cipher, key, params) \
            == outcome(oracle_decrypt, cipher, key, params)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_several_bad_blocks_match_oracle(self, params_64, data):
        # Blocks that are >= r, that decrypt out of range, or both, in any
        # order: the first in stream order is reported, >= r before range.
        params, key = self.draw_params_and_key(data, params_64)
        r = params.r
        bits, width = widths(r)
        nblocks = data.draw(st.integers(1, 2 * PACKED_MIN_BLOCKS + 1))
        nbits = data.draw(st.integers((nblocks - 1) * bits + 1, nblocks * bits))
        plain = data.draw(st.lists(st.integers(0, (1 << bits) - 1),
                                   min_size=nblocks, max_size=nblocks))
        blocks = [m * key.reduced % r for m in plain]
        out_of_range = st.integers(1 << bits, r - 1).map(lambda m: m * key.reduced % r)
        # Blocks >= r that would decrypt out of range once reduced mod r.
        both = [c for c in (m * key.reduced % r + r for m in range(1 << bits, r)[:64])
                if c < 256**width]
        kinds = {">= r": st.integers(r, 256**width - 1),
                 "decrypts out of range": out_of_range,
                 "both": st.sampled_from(both) if both else st.integers(r, 256**width - 1)}
        bad = data.draw(st.dictionaries(st.integers(0, nblocks - 1), st.sampled_from(list(kinds)),
                                        min_size=1, max_size=4))
        for at, kind in bad.items():
            blocks[at] = data.draw(kinds[kind])
        cipher = crafted(nbits, blocks, width)
        first = min(bad)
        reason = "decrypts out of range" if bad[first] == "decrypts out of range" else ">= r"
        expected = (MalformedPayload, f"block {first} {reason}")
        assert outcome(chunk_decrypt, cipher, key, params) == expected
        assert outcome(oracle_decrypt, cipher, key, params) == expected


class TestLongMessagesAgainstOracle:
    """Messages of up to about 2.5 GROUP_BLOCKS blocks against the oracle,
    so that random messages cross group and unit boundaries: same bytes,
    same errors, with bad blocks beside a group boundary and headers that
    declare a partial byte. The example count comes from the profile."""

    TOY_PRIMES = TestChunkCipherAgainstOracle.TOY_PRIMES
    draw_params_and_key = TestChunkCipherAgainstOracle.draw_params_and_key

    def draw_count(self, data, params_64):
        """Params, a key, a block count and a Random for the block values."""
        params, key = self.draw_params_and_key(data, params_64)
        near = [g * GROUP_BLOCKS + d for g in (1, 2) for d in range(-9, 10)]
        nblocks = data.draw(st.integers(1, 5 * GROUP_BLOCKS // 2) | st.sampled_from(near))
        return params, key, nblocks, random.Random(data.draw(st.integers(0, 2**32)))

    @given(data=st.data())
    @settings(deadline=None)
    def test_encrypt_and_round_trip_match_oracle(self, params_64, data):
        params, key, nblocks, rng = self.draw_count(data, params_64)
        length = -(-nblocks * widths(params.r)[0] // 8) + data.draw(st.integers(-1, 1))
        fill = data.draw(st.sampled_from([None, 0x00, 0xFF]))
        plain = rng.randbytes(length) if fill is None else bytes([fill]) * length
        cipher = chunk_encrypt(plain, key, params)
        assert cipher == oracle_encrypt(plain, key, params)
        assert chunk_decrypt(cipher, key, params) == plain

    @given(data=st.data())
    @settings(deadline=None)
    def test_crafted_ciphertext_matches_oracle(self, params_64, data):
        params, key, nblocks, rng = self.draw_count(data, params_64)
        r = params.r
        bits, width = widths(r)
        # Any header that matches the block count: most declare a partial byte.
        nbits = data.draw(st.integers((nblocks - 1) * bits + 1, nblocks * bits))
        blocks = [rng.randrange(1 << bits) * key.reduced % r for _ in range(nblocks)]
        boundaries = [g * GROUP_BLOCKS for g in (1, 2) if g * GROUP_BLOCKS < nblocks]
        bad = st.integers(r, 256**width - 1) \
            | st.integers(1 << bits, r - 1).map(lambda m: m * key.reduced % r)
        for _ in range(data.draw(st.integers(0, 2))):
            if boundaries and data.draw(st.booleans()):
                at = min(data.draw(st.sampled_from(boundaries)) + data.draw(st.integers(-2, 1)),
                         nblocks - 1)
            else:
                at = data.draw(st.integers(0, nblocks - 1))
            blocks[at] = data.draw(bad)
        cipher = crafted(nbits, blocks, width)
        assert outcome(chunk_decrypt, cipher, key, params) \
            == outcome(oracle_decrypt, cipher, key, params)


class TestDenseLayoutAgainstOracle:
    """Packed messages under moduli whose gap 8 * width - bits, the free
    bits above each block in its field and the bytes after each unit,
    takes every value from 1 to 8, at 2, 9 and 24 bytes a block, against
    the oracle: same bytes, same errors, at lengths around the group
    boundaries. Bad blocks sit in both halves, at even and odd indices,
    and in padded units. The example count comes from the profile."""

    # The smallest and the largest prime of each bit length 8 * width - gap + 1.
    PRIMES = tuple(p for width in (2, 9, 24) for gap in range(1, 9)
                   for p in (prime_above(1 << 8 * width - gap),
                             prime_below(1 << 8 * width - gap + 1)))

    def draw_count(self, data):
        """Params, a key, a block count and a Random for the block values."""
        r = data.draw(st.sampled_from(self.PRIMES))
        params = make_params(2, 2, r)
        key = key_with_reduced(params, data.draw(st.integers(1, r - 1)))
        near = [g * GROUP_BLOCKS + d for g in (1, 2) for d in range(-9, 10)]
        nblocks = data.draw(st.sampled_from(near) | st.integers(PACKED_MIN_BLOCKS, 8 * PACKED_MIN_BLOCKS)
                            | st.integers(PACKED_MIN_BLOCKS, 5 * GROUP_BLOCKS // 2))
        return params, key, nblocks, random.Random(data.draw(st.integers(0, 2**32)))

    def test_gaps_cover_one_to_eight(self):
        gaps = {8 * width - bits for bits, width in map(widths, self.PRIMES)}
        assert gaps == set(range(1, 9))
        assert max(self.PRIMES).bit_length() <= PACKED_MAX_BITS

    @given(data=st.data())
    @settings(deadline=None)
    def test_encrypt_and_round_trip_match_oracle(self, data):
        params, key, nblocks, rng = self.draw_count(data)
        length = -(-nblocks * widths(params.r)[0] // 8) + data.draw(st.integers(-1, 1))
        fill = data.draw(st.sampled_from([None, 0x00, 0xFF]))
        plain = rng.randbytes(length) if fill is None else bytes([fill]) * length
        cipher = chunk_encrypt(plain, key, params)
        assert cipher == oracle_encrypt(plain, key, params)
        assert chunk_decrypt(cipher, key, params) == plain

    @given(data=st.data())
    @settings(deadline=None)
    def test_crafted_ciphertext_matches_oracle(self, data):
        params, key, nblocks, rng = self.draw_count(data)
        r = params.r
        bits, width = widths(r)
        nbits = data.draw(st.integers((nblocks - 1) * bits + 1, nblocks * bits))
        blocks = [rng.randrange(1 << bits) * key.reduced % r for _ in range(nblocks)]
        # The last unit holds nblocks % 8 blocks and zero blocks of padding.
        padded = range(nblocks - nblocks % 8, nblocks) or range(nblocks - 8, nblocks)
        boundaries = [g * GROUP_BLOCKS + d for g in (1, 2) for d in (-2, -1, 0, 1)
                      if g * GROUP_BLOCKS + d < nblocks]
        at = st.sampled_from(padded) | st.integers(0, nblocks - 1)
        if boundaries:
            at |= st.sampled_from(boundaries)
        # >= r, decrypts out of range, or both where r + c fits in width bytes.
        out_of_range = st.integers(1 << bits, r - 1).map(lambda m: m * key.reduced % r)
        kinds = st.integers(r, 256**width - 1) | out_of_range \
            | out_of_range.map(lambda c: c + r if c + r < 256**width else c)
        for first in data.draw(st.lists(at, max_size=3)):
            # At times its neighbour too, which lies in the other half.
            for i in {first, *data.draw(st.sampled_from([(), (first - 1,), (first + 1,)]))}:
                if 0 <= i < nblocks:
                    blocks[i] = data.draw(kinds)
        cipher = crafted(nbits, blocks, width)
        assert outcome(chunk_decrypt, cipher, key, params) \
            == outcome(oracle_decrypt, cipher, key, params)


class TestBarrettCorrection:
    """Every key and every plaintext block value through the packed path,
    against m * k mod r, at r = 227 and r = 1019. There a Barrett remainder
    can lie in [2**L, 2r), so a correction that kept bit L of a slot
    would give a wrong block."""

    @pytest.mark.parametrize("r", [227, 1019])
    def test_every_key_and_block_value(self, r):
        params = make_params(2, 2, r)
        bits, width = widths(r)
        count = 1 << bits  # one block of each value: 128 or 512 blocks
        plain = sum(m << (count - 1 - m) * bits for m in range(count)).to_bytes(count * bits // 8, "big")
        for k in range(1, r):
            key = key_with_reduced(params, k)
            cipher = chunk_encrypt(plain, key, params)
            body = cipher[8:]
            assert [int.from_bytes(body[i : i + width], "big") for i in range(0, len(body), width)] \
                == [m * k % r for m in range(count)]
            assert chunk_decrypt(cipher, key, params) == plain


class TestPackedPath:
    """Block counts and block values at the edges of the packed layout:
    the dispatch, the power-of-two plans and the group cap."""

    # 8u - 1 blocks leave one zero block in their last 8-block unit and
    # 8u + 1 blocks seven; GROUP_BLOCKS + 1 to + 7 put 1 to 7 blocks in a
    # second group.
    COUNTS = (PACKED_MIN_BLOCKS - 1, PACKED_MIN_BLOCKS, 17, 23, 25, 31, 32, 33, 127, 128, 129,
              255, 256, 257, 513, GROUP_BLOCKS - 1, GROUP_BLOCKS,
              *range(GROUP_BLOCKS + 1, GROUP_BLOCKS + 8), 2 * GROUP_BLOCKS + 1)

    @pytest.mark.parametrize("r", [227, 1019] + list(WIDE_PRIMES[:4]),
                             ids=lambda r: f"{r.bit_length()}b")
    @pytest.mark.parametrize("count", COUNTS)
    def test_block_counts_match_oracle(self, r, count):
        params = make_params(2, 2, r)
        bits, width = widths(r)
        rng = random.Random(count)
        key = key_with_reduced(params, rng.randrange(1, r))
        seen = set()
        for length in range((count - 1) * bits // 8, count * bits // 8 + 2):
            plain = rng.randbytes(length)
            cipher = chunk_encrypt(plain, key, params)
            assert cipher == oracle_encrypt(plain, key, params)
            assert chunk_decrypt(cipher, key, params) == plain
            seen.add(len(cipher[8:]) // width)
        assert count in seen or bits < 8  # whole bytes skip some counts then
        blocks = [rng.randrange(r) for _ in range(count)]
        nbits = rng.randrange((count - 1) * bits + 1, count * bits + 1)
        for at in (None, 0, count // 2, count - 1):
            if at is not None:
                blocks[at] = rng.randrange(r, 256**width)
            cipher = crafted(nbits, blocks, width)
            assert outcome(chunk_decrypt, cipher, key, params) \
                == outcome(oracle_decrypt, cipher, key, params)

    @pytest.mark.parametrize("r", TestChunkCipherAgainstOracle.TOY_PRIMES + WIDE_PRIMES,
                             ids=lambda r: f"{r.bit_length()}b")
    def test_block_values(self, r):
        # Each plaintext block in a message of that block alone, and each
        # ciphertext block up to 256**width - 1 alone and between valid
        # blocks, under the smallest, largest and a middle key. Up to 10-bit
        # blocks every m and each c below 2r or in the top 256 (at one byte,
        # every c); wider, the extremes.
        params = make_params(2, 2, r)
        bits, width = widths(r)
        top = 256**width
        if bits <= 10:
            plains = range(1 << bits)
            ciphers = sorted({*range(min(2 * r, top)), *range(top - 256, top)})
        else:
            plains = (0, 1, (1 << bits) - 1)
            ciphers = (0, r - 1, r, (1 << bits) - 1, 1 << bits, top - 1)
        count = 2 * PACKED_MIN_BLOCKS
        for k in {1, r - 1, r // 2}:
            key = key_with_reduced(params, k)
            for m in plains:
                plain = sum(m << i * bits for i in range(count)).to_bytes(count * bits // 8, "big")
                cipher = chunk_encrypt(plain, key, params)
                assert cipher == oracle_encrypt(plain, key, params)
                assert chunk_decrypt(cipher, key, params) == plain
            for c in ciphers:
                for blocks in ([c] * count, [r - 1] * 3 + [c] + [0] * (count - 4)):
                    cipher = crafted(count * bits, blocks, width)
                    assert outcome(chunk_decrypt, cipher, key, params) \
                        == outcome(oracle_decrypt, cipher, key, params)

    @pytest.mark.parametrize("L, nblocks, packed", [
        (192, 16, True), (192, 15, False), (193, 16, False), (193, 1024, False)])
    def test_dispatch_boundaries(self, L, nblocks, packed):
        # Only the packed path builds a layout, in either direction. The
        # boundaries are PACKED_MAX_BITS and PACKED_MIN_BLOCKS as measured
        # (ROADMAP item 0b), written out so that a changed threshold fails.
        r = prime_above(1 << L - 1)
        params = make_params(2, 2, r)
        key = key_with_reduced(params, r // 3)
        plain = (bytes(range(256)) * nblocks)[: nblocks * widths(r)[0] // 8]
        _layout.cache_clear()
        cipher = chunk_encrypt(plain, key, params)
        assert len(cipher[8:]) // widths(r)[1] == nblocks
        assert (_layout.cache_info().misses == 1) == packed
        _layout.cache_clear()
        assert chunk_decrypt(cipher, key, params) == plain
        assert (_layout.cache_info().misses == 1) == packed

    @pytest.mark.parametrize("r", WIDE_PRIMES[:4], ids=lambda r: f"{r.bit_length()}b")
    def test_bad_block_in_padded_unit(self, r):
        # The last 8-block unit of 8u + 1 blocks holds one block and seven
        # zero blocks of padding; a bad last block is named by its index.
        params = make_params(2, 2, r)
        bits, width = widths(r)
        key = key_with_reduced(params, r // 3)
        for count in (PACKED_MIN_BLOCKS + 1, GROUP_BLOCKS + 1, 2 * GROUP_BLOCKS + 1):
            blocks = [m * key.reduced % r for m in range(count)]
            for c, reason in ((r, ">= r"), ((1 << bits) * key.reduced % r, "decrypts out of range")):
                blocks[-1] = c
                cipher = crafted(count * bits, blocks, width)
                expected = (MalformedPayload, f"block {count - 1} {reason}")
                assert outcome(chunk_decrypt, cipher, key, params) == expected
                assert outcome(oracle_decrypt, cipher, key, params) == expected


class TestEveryUnitCount:
    """Every unit count of a packed group, 1 to GROUP_BLOCKS / 8, as the
    last group of a message: 8u and 8u - 7 blocks, alone and behind one
    full group. The ciphertext matches the oracle's and decrypts back, and
    a bad last block of either kind is named by its index. A short group's
    adds run over constants cut to its units, so each count takes its own
    cut."""

    @pytest.mark.parametrize("r", [1019, WIDE_PRIMES[1], WIDE_PRIMES[3]],
                             ids=lambda r: f"{r.bit_length()}b")
    def test_every_unit_count_matches_oracle(self, r):
        params = make_params(2, 2, r)
        bits, width = widths(r)
        rng = random.Random(r)
        key = key_with_reduced(params, rng.randrange(1, r))
        full = rng.randbytes(GROUP_BLOCKS * bits // 8)
        # A full group is whole bits-byte pieces of the bit stream, so the
        # blocks behind it are those of the tail alone: one oracle call
        # each keeps the quadratic oracle off the 2-group messages.
        full_body = oracle_encrypt(full, key, params)[8:]
        for units in range(1, GROUP_BLOCKS // 8 + 1):
            for length in (units * bits, (units - 1) * bits + 1):  # 8u and 8u - 7 blocks
                tail = rng.randbytes(length)
                tail_body = oracle_encrypt(tail, key, params)[8:]
                assert len(tail_body) // width == 8 * units - 7 * (length % bits == 1)
                for head, head_body in ((b"", b""), (full, full_body)):
                    plain = head + tail
                    cipher = chunk_encrypt(plain, key, params)
                    assert cipher == (8 * len(plain)).to_bytes(8, "big") + head_body + tail_body
                    assert chunk_decrypt(cipher, key, params) == plain
                    last = len(cipher[8:]) // width - 1
                    for c, reason in ((r, ">= r"),
                                      ((1 << bits) * key.reduced % r, "decrypts out of range")):
                        bad = cipher[:-width] + c.to_bytes(width, "big")
                        assert outcome(chunk_decrypt, bad, key, params) \
                            == (MalformedPayload, f"block {last} {reason}")


class TestPlanStore:
    """The packed layout is bounded: one plan per modulus, of a bounded
    size, for at most PLAN_MODULI moduli."""

    @pytest.mark.parametrize("bits", [64, PACKED_MAX_BITS])
    def test_plan_bytes_stay_bounded(self, bits):
        # A plan holds 2 pass masks and 9 per-slot constants, each width
        # bytes a block over GROUP_BLOCKS blocks: under 11 * width *
        # GROUP_BLOCKS bytes a modulus, 88 KiB at 64 bits and 264 KiB at 192.
        r = prime_above(1 << bits - 1)
        plan = _layout(r)
        ints = [*(m for m, _ in plan.passes), *plan[1:]]
        assert sum((v.bit_length() + 7) // 8 for v in ints) < 11 * widths(r)[1] * GROUP_BLOCKS

    def test_plans_stay_bounded(self, params_64):
        bits16 = make_params(2, 2, WIDE_PRIMES[0])
        # Every 61st length up to 20 000, and each length at a power-of-two
        # block count.
        lengths = set(range(0, 20_001, 61))
        for params in (bits16, params_64):
            bits = params.r.bit_length() - 1
            lengths |= {n * bits // 8 + d for n in (1 << j for j in range(12)) for d in (-1, 0, 1)}
        for params in (bits16, params_64):
            key = key_with_reduced(params, params.r // 3)
            for length in sorted(lengths):
                plain = bytes(range(256)) * (length // 256) + bytes(length % 256)
                assert chunk_decrypt(chunk_encrypt(plain, key, params), key, params) == plain
            assert isinstance(_layout(params.r), _Plan)  # one plan per modulus
            assert _layout.cache_info().currsize <= PLAN_MODULI

    def test_new_modulus_evicts(self):
        # The plans of PLAN_MODULI = 4 moduli are kept, written out so that
        # a larger store fails: at most 4 * 264 KiB at 192 bits.
        _layout.cache_clear()
        moduli = [prime_above(1 << b) for b in range(20, 25)]
        for r in moduli:
            params = make_params(2, 2, r)
            plain = bytes(4 * PACKED_MIN_BLOCKS * widths(r)[0] // 8)
            chunk_encrypt(plain, key_with_reduced(params, 2), params)
        info = _layout.cache_info()
        assert (info.currsize, info.misses) == (4, 5)
        _layout(moduli[-1])
        assert _layout.cache_info().misses == 5
        _layout(moduli[0])
        assert _layout.cache_info().misses == 6


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

    def test_block_loop_cost_is_linear(self):
        # Above PACKED_MAX_BITS every length takes the block loop. A message
        # 8 times longer may cost at most 12 times as much, best of 3 in
        # this thread's CPU time; an int grown by every block costs more.
        r = WIDE_PRIMES[-1]
        params = make_params(2, 2, r)
        key = key_with_reduced(params, r // 3)

        def cost(nblocks):
            plain = (bytes(range(1, 256)) * nblocks)[: nblocks * widths(r)[0] // 8]
            cipher = chunk_encrypt(plain, key, params)
            best = float("inf")
            for _ in range(3):
                start = time.thread_time()
                chunk_decrypt(cipher, key, params)
                best = min(best, time.thread_time() - start)
            return best

        assert cost(16_384) < 12 * cost(2_048)

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

    @pytest.mark.parametrize("raw_hex", ["80", "ff00", "0123456789abcdef01"])
    def test_raw_key_in_minimal_bytes(self, raw_hex):
        key = SessionKey(raw=int(raw_hex, 16), reduced=1, reduced_inv=1)
        raw = bytes.fromhex(raw_hex)
        assert key_digest(key) == hashlib.sha256(len(raw).to_bytes(4, "big") + raw).digest()

    def test_deterministic(self, toy_params):
        key = reduce_key(toy_params, 36)
        assert key_digest(key) == key_digest(reduce_key(toy_params, 36))
        assert len(key_digest(key)) == 32

    def test_distinct_keys_distinct_digests(self, toy_params):
        assert key_digest(reduce_key(toy_params, 36)) \
            != key_digest(reduce_key(toy_params, 20))


class TestCellCodec:
    def test_wire_values(self):
        assert {c.name: c.value for c in CellCommand} \
            == {"CREATE": 1, "CREATED": 2, "RELAY": 3, "DESTROY": 4}
        assert {c.name: c.value for c in RelaySubcommand} \
            == {"EXTEND": 1, "EXTENDED": 2, "DATA": 3, "END": 5}

    def test_module_names_are_the_members(self):
        for member in CellCommand:
            assert getattr(onioncrypt, member.name) is member
        for member in RelaySubcommand:
            assert getattr(onioncrypt, member.name) is member

    def test_every_command_byte(self):
        # Each assigned byte decodes to its member and every other byte is
        # refused by value, so a wrong entry of the byte table fails here.
        members = {1: CellCommand.CREATE, 2: CellCommand.CREATED, 3: CellCommand.RELAY,
                   4: CellCommand.DESTROY}
        for byte in range(256):
            data = bytes([0, 0, 0, 1, byte, 0, 0])
            if byte in members:
                assert decode_cell(data).command is members[byte]
            else:
                with pytest.raises(MalformedCell, match=f"^command byte {byte:#04x}$"):
                    decode_cell(data)

    def test_worked_layout(self):
        cell = Cell(1, CellCommand.CREATE, b"")
        assert encode_cell(cell) == bytes.fromhex("00000001010000")

    def test_unknown_command(self):
        data = bytes.fromhex("00000001090000")
        with pytest.raises(MalformedCell, match="command byte 0x09"):
            decode_cell(data)

    def test_truncated(self):
        with pytest.raises(MalformedCell, match="declared 255 payload bytes, got 0"):
            decode_cell(bytes.fromhex("000000010100ff"))

    def test_shorter_than_header(self):
        with pytest.raises(MalformedCell, match="cell of 2 bytes is shorter than the header"):
            decode_cell(b"\x00\x01")

    def test_trailing_garbage(self):
        with pytest.raises(MalformedCell, match="declared 0 payload bytes, got 1"):
            decode_cell(bytes.fromhex("00000001010000") + b"x")

    def test_payload_cap(self):
        with pytest.raises(EncodingOverflow):
            encode_cell(Cell(1, CellCommand.RELAY, b"\x00" * 65536))

    @pytest.mark.parametrize("circ_id", [-1, MAX_CIRC_ID + 1])
    def test_circ_id_out_of_range(self, circ_id):
        with pytest.raises(EncodingOverflow, match=f"circuit id {circ_id} does not fit"):
            encode_cell(Cell(circ_id, CellCommand.DESTROY))

    @pytest.mark.parametrize("circ_id, header", [(0, "00000000"), (MAX_CIRC_ID, "ffffffff")])
    def test_circ_id_bounds_round_trip(self, circ_id, header):
        cell = Cell(circ_id, CellCommand.DESTROY)
        assert encode_cell(cell) == bytes.fromhex(header + "040000")
        assert decode_cell(encode_cell(cell)) == cell

    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(CellCommand)),
           st.binary(max_size=256))
    @settings(max_examples=200)
    def test_round_trip(self, circ_id, command, payload):
        cell = Cell(circ_id, command, payload)
        assert decode_cell(encode_cell(cell)) == cell


class TestRelayFrameCodec:
    def test_unknown_subcommand(self):
        with pytest.raises(MalformedCell, match="subcommand byte 0xff"):
            decode_relay_frame(bytes.fromhex("ff00010000"))

    def test_every_subcommand_byte(self):
        members = {1: RelaySubcommand.EXTEND, 2: RelaySubcommand.EXTENDED,
                   3: RelaySubcommand.DATA, 5: RelaySubcommand.END}
        for byte in range(256):
            data = bytes([byte, 0, 1, 0, 0])
            if byte in members:
                assert decode_relay_frame(data).subcommand is members[byte]
            else:
                with pytest.raises(MalformedCell, match=f"^subcommand byte {byte:#04x}$"):
                    decode_relay_frame(data)

    def test_truncated(self):
        with pytest.raises(MalformedCell, match="declared 5 data bytes, got 1"):
            decode_relay_frame(bytes.fromhex("0100010005ab"))

    def test_data_cap(self):
        with pytest.raises(EncodingOverflow, match="data of 65536 bytes exceeds cap"):
            encode_relay_frame(RelayFrame(RelaySubcommand.DATA, 1, b"\x00" * 65536))

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

    def test_created_payload_round_trip(self):
        digest = bytes(range(32))
        data = build_created_payload(300, digest, 2)
        assert data == b"\x01\x2c" + digest
        assert parse_created_payload(data, 2) == (300, digest)

    def test_extend_data_round_trip(self):
        create = build_create_payload(12, 40, 28, 1)
        assert parse_extend_data(build_extend_data("C", create), 1) == ("C", create)

    def test_extend_name_longer_than_255_bytes(self):
        with pytest.raises(EncodingOverflow, match="node name longer than 255 bytes"):
            build_extend_data("x" * 256, build_create_payload(12, 40, 28, 1))

    def test_extend_data_bad_length(self):
        with pytest.raises(MalformedCell, match="EXTEND data does not match declared layout"):
            parse_extend_data(build_extend_data("C", bytes([12, 40])), 1)

    @pytest.mark.parametrize("data, reason", [
        (b"", "empty EXTEND data"), (b"\x00", "EXTEND data does not match declared layout")])
    def test_extend_data_shorter_than_its_layout(self, data, reason):
        with pytest.raises(MalformedCell, match=f"^{reason}$"):
            parse_extend_data(data, 1)

    def test_extend_data_name_not_utf8(self):
        with pytest.raises(MalformedCell, match="EXTEND node name is not UTF-8"):
            parse_extend_data(bytes([1, 0xFF, 12, 40, 28]), 1)


def exactly(size):
    return st.binary(min_size=size, max_size=size)


def framed(id_before, id_after):
    """Bytes of a cell's or relay frame's layout: any id bytes around a
    command byte of at most 7, a two-byte length and the body it counts,
    and at times one byte too many."""
    return st.builds(lambda before, code, after, body, extra:
                     before + bytes([code]) + after + len(body).to_bytes(2, "big") + body + extra,
                     exactly(id_before), st.integers(0, 7), exactly(id_after),
                     st.binary(max_size=64), st.binary(max_size=1))


# Each cell-format decoder followed by the encoder that must give back
# whatever bytes the decoder accepts, and the bytes of its layout by width.
CELL_FORMATS = {
    "cell": (lambda data, width: encode_cell(decode_cell(data)),
             lambda width: framed(4, 0)),
    "relay-frame": (lambda data, width: encode_relay_frame(decode_relay_frame(data)),
                    lambda width: framed(0, 2)),
    "create": (lambda data, width: build_create_payload(*parse_create_payload(data, width),
                                                        width),
               lambda width: exactly(3 * width)),
    "created": (lambda data, width: build_created_payload(*parse_created_payload(data, width),
                                                          width),
                lambda width: exactly(width + 32)),
    "extend": (lambda data, width: build_extend_data(*parse_extend_data(data, width)),
               lambda width: st.builds(lambda name, create: bytes([len(name)]) + name + create,
                                       st.binary(max_size=255), exactly(3 * width))),
}


class TestMalformedCellBytes:
    @pytest.mark.parametrize("reencode, layout", CELL_FORMATS.values(), ids=CELL_FORMATS)
    @given(st.data())
    def test_decoders_raise_only_malformed_cell(self, reencode, layout, data):
        width = data.draw(st.integers(1, 64), "width")
        wire = data.draw(st.binary(max_size=300) | layout(width), "wire")
        try:
            assert reencode(wire, width) == wire
        except MalformedCell:
            pass
