"""Wire formats and the chunked multiplicative stream cipher.

Cells are the fixed-format circuit wire unit:

    circ_id (4 BE) || command (1) || payload_len (2 BE) || payload

Relay frames travel inside (possibly layered) cell payloads:

    subcommand (1) || stream_id (2 BE) || data_len (2 BE) || data

The chunked stream lifts the single-residue cipher to byte strings: an
8-byte big-endian bit-length header, then the plaintext bitstream split
into (bitlen(r) - 1)-bit blocks (so every block is < r without rejection),
each block encrypted multiplicatively and emitted at ceil(bitlen(r)/8)
bytes. Onion layering is repeated application of the chunked cipher,
innermost key first.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import IntEnum

from .errors import (
    EncodingOverflow,
    MalformedPayload,
    TruncatedCell,
    TruncatedFrame,
    UnknownCommand,
    UnknownSubcommand,
)
from .nikep import SessionKey, SystemParams, decrypt_block, encrypt_block

MAX_PAYLOAD = 65535


class CellCommand(IntEnum):
    CREATE = 0x01
    CREATED = 0x02
    RELAY = 0x03
    DESTROY = 0x04


class RelaySubcommand(IntEnum):
    EXTEND = 0x01
    EXTENDED = 0x02
    DATA = 0x03
    CONNECTED = 0x04
    END = 0x05


@dataclass(frozen=True)
class Cell:
    circ_id: int
    command: CellCommand
    payload: bytes = b""


@dataclass(frozen=True)
class RelayFrame:
    subcommand: RelaySubcommand
    stream_id: int
    data: bytes = b""


def int_encode(v: int, width: int) -> bytes:
    """Fixed-width big-endian encoding of a non-negative integer."""
    if v < 0 or v >= 1 << (8 * width):
        raise EncodingOverflow(f"{v} does not fit in {width} bytes")
    return v.to_bytes(width, "big")


# -- chunked stream cipher ---------------------------------------------------

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


def onion_wrap(plain: bytes, keys: list[SessionKey], params: SystemParams) -> bytes:
    """Apply one cipher layer per key, innermost (exit-node) key first."""
    data = plain
    for key in keys:
        data = chunk_encrypt(data, key, params)
    return data


def key_digest(key: SessionKey) -> bytes:
    """32-byte SHA-256 digest of the raw shared key, for key confirmation.

    The input is length-prefixed (4 BE bytes of byte count, then the
    minimal big-endian encoding of raw) so the mapping is injective.
    """
    raw = key.raw.to_bytes((key.raw.bit_length() + 7) // 8, "big")
    return hashlib.sha256(len(raw).to_bytes(4, "big") + raw).digest()


# -- cell codec --------------------------------------------------------------

def encode_cell(cell: Cell) -> bytes:
    if len(cell.payload) > MAX_PAYLOAD:
        raise EncodingOverflow(f"payload of {len(cell.payload)} bytes exceeds cap")
    return struct.pack(">IBH", cell.circ_id, cell.command, len(cell.payload)) + cell.payload


def decode_cell(data: bytes) -> Cell:
    if len(data) < 7:
        raise TruncatedCell(f"cell of {len(data)} bytes is shorter than the header")
    circ_id, command, length = struct.unpack(">IBH", data[:7])
    try:
        command = CellCommand(command)
    except ValueError:
        raise UnknownCommand(f"command byte {command:#04x}") from None
    if len(data) != 7 + length:
        raise TruncatedCell(f"declared {length} payload bytes, got {len(data) - 7}")
    return Cell(circ_id=circ_id, command=command, payload=data[7:])


# -- relay frame codec -------------------------------------------------------

def encode_relay_frame(frame: RelayFrame) -> bytes:
    return struct.pack(">BHH", frame.subcommand, frame.stream_id, len(frame.data)) + frame.data


def decode_relay_frame(data: bytes) -> RelayFrame:
    if len(data) < 5:
        raise TruncatedFrame(f"frame of {len(data)} bytes is shorter than the header")
    sub, stream_id, length = struct.unpack(">BHH", data[:5])
    try:
        sub = RelaySubcommand(sub)
    except ValueError:
        raise UnknownSubcommand(f"subcommand byte {sub:#04x}") from None
    if len(data) != 5 + length:
        raise TruncatedFrame(f"declared {length} data bytes, got {len(data) - 5}")
    return RelayFrame(subcommand=sub, stream_id=stream_id, data=data[5:])


# -- structured payload helpers ---------------------------------------------
#
# CREATE payload: V(W) || P(W) || Q(W) with W = ceil(bitlen(n)/8).
# CREATED payload and EXTENDED data: V'(W) || digest(32).
# EXTEND data: name_len(1) || name || V(W) || P(W) || Q(W).

def build_create_payload(v: int, P: int, Q: int, width: int) -> bytes:
    return int_encode(v, width) + int_encode(P, width) + int_encode(Q, width)


def parse_create_payload(data: bytes, width: int) -> tuple[int, int, int]:
    if len(data) != 3 * width:
        raise TruncatedCell(f"CREATE payload must be {3 * width} bytes, got {len(data)}")
    return (int.from_bytes(data[:width], "big"),
            int.from_bytes(data[width : 2 * width], "big"),
            int.from_bytes(data[2 * width :], "big"))


def build_created_payload(v: int, digest: bytes, width: int) -> bytes:
    if len(digest) != 32:
        raise ValueError("digest must be 32 bytes")
    return int_encode(v, width) + digest


def parse_created_payload(data: bytes, width: int) -> tuple[int, bytes]:
    if len(data) != width + 32:
        raise TruncatedCell(f"CREATED payload must be {width + 32} bytes, got {len(data)}")
    return int.from_bytes(data[:width], "big"), data[width:]


def build_extend_data(name: str, v: int, P: int, Q: int, width: int) -> bytes:
    name_b = name.encode()
    if len(name_b) > 255:
        raise EncodingOverflow("node name longer than 255 bytes")
    return bytes([len(name_b)]) + name_b + build_create_payload(v, P, Q, width)


def parse_extend_data(data: bytes, width: int) -> tuple[str, int, int, int]:
    if len(data) < 1:
        raise TruncatedFrame("empty EXTEND data")
    name_len = data[0]
    if len(data) != 1 + name_len + 3 * width:
        raise TruncatedFrame("EXTEND data does not match declared layout")
    name = data[1 : 1 + name_len].decode()
    v, P, Q = parse_create_payload(data[1 + name_len :], width)
    return name, v, P, Q
