"""The chunked cipher as it stood before the linear-time rewrite.

``chunk_encrypt`` and ``chunk_decrypt`` below are the former
``onionkep.onioncrypt`` code, copied unchanged (quadratic in payload size:
one payload-sized int is shifted once per block). They are kept only as
the oracle for the differential tests in ``test_onioncrypt.py``.
"""

from __future__ import annotations

from onionkep.errors import MalformedPayload
from onionkep.nikep import SessionKey, SystemParams, decrypt_block, encrypt_block


def _block_bits(params: SystemParams) -> int:
    bits = params.r.bit_length() - 1
    if bits < 1:
        raise MalformedPayload("r too small for chunked encryption")
    return bits


def chunk_encrypt(plain: bytes, key: SessionKey, params: SystemParams) -> bytes:
    """Encrypt a byte string block-by-block under the reduced session key."""
    bits = _block_bits(params)
    width = (params.r.bit_length() + 7) // 8
    nbits = 8 * len(plain)
    nblocks = -(-nbits // bits)
    value = int.from_bytes(plain, "big") << (nblocks * bits - nbits)
    mask = (1 << bits) - 1
    out = [nbits.to_bytes(8, "big")]
    for i in range(nblocks):
        m = (value >> ((nblocks - 1 - i) * bits)) & mask
        out.append(encrypt_block(m, key, params).to_bytes(width, "big"))
    return b"".join(out)


def chunk_decrypt(cipher: bytes, key: SessionKey, params: SystemParams) -> bytes:
    """Inverse of chunk_encrypt; truncates to the declared bit length."""
    bits = _block_bits(params)
    width = (params.r.bit_length() + 7) // 8
    if len(cipher) < 8:
        raise MalformedPayload("missing bit-length header")
    nbits = int.from_bytes(cipher[:8], "big")
    body = cipher[8:]
    if len(body) % width != 0:
        raise MalformedPayload("ciphertext not block-aligned")
    nblocks = len(body) // width
    if -(-nbits // bits) != nblocks:
        raise MalformedPayload("block count does not match declared length")
    value = 0
    for i in range(nblocks):
        c = int.from_bytes(body[i * width : (i + 1) * width], "big")
        if c >= params.r:
            raise MalformedPayload(f"block {i} >= r")
        m = decrypt_block(c, key, params)
        if m >> bits:
            raise MalformedPayload(f"block {i} decrypts out of range")
        value = (value << bits) | m
    value >>= nblocks * bits - nbits
    return value.to_bytes((nbits + 7) // 8, "big")
