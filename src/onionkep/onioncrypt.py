"""Wire formats and the chunked multiplicative stream cipher.

Cells are the fixed-format circuit wire unit:

    circ_id (4 BE) || command (1) || payload_len (2 BE) || payload

Relay frames travel inside (possibly layered) cell payloads:

    subcommand (1) || stream_id (2 BE) || data_len (2 BE) || data

Each format fails one way. The decoders of cells, relay frames and the
CREATE, CREATED and EXTEND payloads raise MalformedCell, the chunked
stream raises MalformedPayload, and the encoders raise EncodingOverflow.

The chunked stream lifts the single-residue cipher to byte strings: an
8-byte big-endian bit-length header, then the plaintext bitstream split
into bits = bitlen(r) - 1 bit blocks (so every block is < r without
rejection), each block m emitted as m * k mod r in width =
ceil(bitlen(r)/8) bytes. Onion layering is repeated application of the
chunked cipher, innermost key first.

Both directions work on packed ints, GROUP_BLOCKS blocks at a time
(Kronecker substitution; Harvey, J. Symbolic Comput. 2009):

- Slot layout. Block i of a group sits in slot N - 1 - i, bits
  [S*(N-1-i), S*(N-i)) of one int, with S = 16 * width: twice a block's
  bytes, so a slot holds m * k < r**2. N is the block count rounded up
  to whole units of 8 blocks with zero blocks. A unit is ``bits`` bytes
  of the bit stream and 16 * width bytes of slots, so units move as bytes,
  as width-byte blocks do; three mask-and-shift passes per group move
  the blocks within each unit.
- Barrett bound. With L = bitlen(r) and mu = k * 2**L // r, the quotient
  q = m * mu >> L is floor(m * k / r) or one less for m < 2**L (Barrett,
  CRYPTO '86), so m * k - q * r < 2r, and adding 2**L - r to every slot
  flags in its bit L the slots that take one more r. Each of these is one
  multiply or add over the whole group; no slot carries into the next.
- Error order. Decrypt flags c >= r by adding 2**(8 * width) - r to every
  slot, and m >= 2**bits by bit ``bits`` of the decrypted slot. The
  highest flagged slot is the first bad block in stream order, and in it
  ">= r" is reported before "decrypts out of range", as a block-by-block
  loop would.
- Width and length dispatch. The masks of each power-of-two group size
  up to GROUP_BLOCKS = 1024 blocks are built once per modulus, by
  doubling, for at most PLAN_MODULI moduli. One predicate, ``_packed``,
  sends moduli wider than PACKED_MAX_BITS (the packed path is the slower
  there, as at 256 bits) and messages of fewer than PACKED_MIN_BLOCKS
  blocks, such as EXTEND frames, to the block loop in both directions,
  in bits-byte groups of exactly 8 blocks. Every path gives the same
  bytes and errors.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import NamedTuple

from .errors import EncodingOverflow, MalformedCell, MalformedPayload
from .nikep import SessionKey, SystemParams

MAX_PAYLOAD = 65535
# EXTEND carries a node name behind a one-byte length; a directory
# descriptor's name is held to the same limit.
MAX_NAME_BYTES = 255


class CellCommand(IntEnum):
    CREATE = 0x01
    CREATED = 0x02
    RELAY = 0x03
    DESTROY = 0x04


class RelaySubcommand(IntEnum):
    EXTEND = 0x01
    EXTENDED = 0x02
    DATA = 0x03
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

# Moduli of at most this many bits take the packed path; wider ones keep
# the per-block loop, which is the faster of the two there.
PACKED_MAX_BITS = 192
# Messages of fewer blocks keep the loop too, whose fixed cost is lower.
PACKED_MIN_BLOCKS = 16
# Blocks per packed group, and the largest plan: longer messages are
# taken in groups of this many blocks. A multiple of 8, so that a full
# group is whole bytes of the bit stream. The passes per group do not grow
# with it; the plans do, to 28 * width * GROUP_BLOCKS bytes a modulus.
GROUP_BLOCKS = 1024
# Moduli whose plans are kept; the least recently used one is dropped.
PLAN_MODULI = 4


def _packed(r: int, nblocks: int) -> bool:
    """Whether a message of ``nblocks`` blocks under modulus r takes the packed path."""
    return r.bit_length() <= PACKED_MAX_BITS and nblocks >= PACKED_MIN_BLOCKS


class _Plan(NamedTuple):
    """The constants of a packed group of up to 2**j blocks; slot i holds
    bits i*S .. (i+1)*S - 1 of a packed int."""

    passes: tuple[tuple[int, int], ...]  # (mask, shift) per in-unit pass
    ones: int  # 1 in every slot
    low: int  # the low S - L bits of every slot
    add_r: int  # 2**L - r in every slot
    add_w: int  # 2**(8*width) - r in every slot


class _Layout(NamedTuple):
    width: int
    fmt: str  # memoryview format of the largest unit dividing width
    units: int  # such units per block
    plans: tuple[_Plan, ...]  # plans[j] takes up to 2**j blocks


@lru_cache(maxsize=PLAN_MODULI)
def _layout(r: int) -> _Layout:
    """The packed layout of modulus r, with one plan per power-of-two block
    count up to GROUP_BLOCKS, each built from the one before by doubling.
    A plan of up to 8 blocks spreads them with one pass per halving; a
    larger one repeats the 8-block plan once per 8-block unit."""
    L = r.bit_length()
    bits, width = L - 1, (L + 7) // 8
    S = 16 * width
    plan = _Plan((), 1, (1 << (S - L)) - 1, (1 << L) - r, (1 << 8 * width) - r)
    plans = [plan]
    for j in range(GROUP_BLOCKS.bit_length() - 1):
        half, at = 1 << j, S << j
        passes = tuple((m | m << at, s) for m, s in plan.passes)
        if half < 8:  # moves of whole units are left to the bytes
            passes = (((1 << half * bits) - 1, half * (S - bits)),) + passes
        plan = _Plan(passes, *(v | v << at for v in plan[1:]))
        plans.append(plan)
    unit = min(width & -width, 8)
    fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}[unit]
    return _Layout(width, fmt, width // unit, tuple(plans))


def _mul_mod(x: int, k: int, r: int, plan: _Plan) -> int:
    """Every slot v < 2**L of x taken to v*k mod r, with mu = k*2**L // r:
    q = v*mu >> L is floor(v*k/r) or one less (Barrett, 1986), so v*k - q*r
    is below 2r, and a flag in bit L of each slot + 2**L - r marks the ones
    that take one more r. A slot v < 2**(8*width), as decrypt may pass,
    gets a value of no use, but no slot carries into the next: q*r never
    exceeds v*k, and v*k < 2**(8*width) * r <= 2**S."""
    L = r.bit_length()
    mu = (k << L) // r
    x = x * k - ((x * mu >> L) & plan.low) * r
    return x - ((x + plan.add_r >> L) & plan.ones) * r


def _low_halves(x: int, n: int, lay: _Layout) -> bytes:
    """The low ``width`` bytes of each of the n slots of x, top slot first."""
    words = memoryview(x.to_bytes(n * 2 * lay.width, "big")).cast(lay.fmt)
    out = bytearray(n * lay.width)
    view = memoryview(out).cast(lay.fmt)
    u = lay.units
    for j in range(u):
        view[j::u] = words[u + j :: 2 * u]
    return bytes(out)


def _to_slots(blocks: bytes, n: int, lay: _Layout) -> int:
    """Inverse of _low_halves: n ``width``-byte blocks, one per slot."""
    out = bytearray(n * 2 * lay.width)
    view = memoryview(out).cast(lay.fmt)
    words = memoryview(blocks).cast(lay.fmt)
    u = lay.units
    for j in range(u):
        view[u + j :: 2 * u] = words[j::u]
    return int.from_bytes(out, "big")


def chunk_encrypt(plain: bytes, key: SessionKey, params: SystemParams) -> bytes:
    """Encrypt a byte string block-by-block under the reduced session key."""
    r, k = params.r, key.reduced
    bits = r.bit_length() - 1
    if _packed(r, -(-8 * len(plain) // bits)):
        return _packed_encrypt(plain, k, r, bits)
    width = (r.bit_length() + 7) // 8
    mask = (1 << bits) - 1
    out = [(8 * len(plain)).to_bytes(8, "big")]
    # Each `bits`-byte group is exactly 8 blocks; only the last may be short.
    for start in range(0, len(plain), bits):
        group = plain[start : start + bits]
        nbits = 8 * len(group)
        nblocks = -(-nbits // bits)
        value = int.from_bytes(group, "big") << (nblocks * bits - nbits)
        for shift in range((nblocks - 1) * bits, -1, -bits):
            out.append((((value >> shift) & mask) * k % r).to_bytes(width, "big"))
    return b"".join(out)


def chunk_decrypt(cipher: bytes, key: SessionKey, params: SystemParams) -> bytes:
    """Inverse of chunk_encrypt; truncates to the declared bit length."""
    r, k_inv = params.r, key.reduced_inv
    bits = r.bit_length() - 1
    width = (r.bit_length() + 7) // 8
    if len(cipher) < 8:
        raise MalformedPayload("missing bit-length header")
    nbits = int.from_bytes(cipher[:8], "big")
    body = cipher[8:]
    if len(body) % width != 0:
        raise MalformedPayload("ciphertext not block-aligned")
    nblocks = len(body) // width
    if -(-nbits // bits) != nblocks:
        raise MalformedPayload("block count does not match declared length")
    if _packed(r, nblocks):
        return _packed_decrypt(body, nbits, k_inv, r, bits)
    groups = []
    value = 0
    for i in range(nblocks):
        c = int.from_bytes(body[i * width : (i + 1) * width], "big")
        if c >= r:
            raise MalformedPayload(f"block {i} >= r")
        m = c * k_inv % r
        if m >> bits:
            raise MalformedPayload(f"block {i} decrypts out of range")
        value = (value << bits) | m
        if i % 8 == 7:  # 8 blocks make one `bits`-byte group
            groups.append(value.to_bytes(bits, "big"))
            value = 0
    value |= int.from_bytes(b"".join(groups), "big") << (nblocks % 8 * bits)
    value >>= nblocks * bits - nbits
    return value.to_bytes((nbits + 7) // 8, "big")


def _packed_encrypt(plain: bytes, k: int, r: int, bits: int) -> bytes:
    """chunk_encrypt GROUP_BLOCKS blocks at a time."""
    lay = _layout(r)
    width = lay.width
    gap, unit = bytes(16 * width - bits), f"{bits}s"
    out = [(8 * len(plain)).to_bytes(8, "big")]
    step = GROUP_BLOCKS * bits // 8
    for start in range(0, len(plain), step):
        group = plain[start : start + step]
        n = -(-8 * len(group) // bits)
        slots = -(-n // 8) * 8  # zero blocks fill the last unit
        plan = lay.plans[(slots - 1).bit_length()]
        group += bytes(slots * bits // 8 - len(group))
        # Each unit, right-aligned in the bytes of its 8 slots.
        x = int.from_bytes(gap + gap.join([u for u, in struct.iter_unpack(unit, group)]), "big")
        for mask, shift in plan.passes:
            low = x & mask
            x = low | (x ^ low) << shift
        out.append(_low_halves(_mul_mod(x, k, r, plan), slots, lay)[: n * width])
    return b"".join(out)


def _packed_decrypt(body: bytes, nbits: int, k_inv: int, r: int, bits: int) -> bytes:
    """chunk_decrypt GROUP_BLOCKS blocks at a time, for a checked header
    and body."""
    lay = _layout(r)
    width = lay.width
    S = 16 * width
    region = f"{16 * width - bits}x{bits}s"
    nblocks = len(body) // width
    units = []
    for start in range(0, nblocks, GROUP_BLOCKS):
        n = min(GROUP_BLOCKS, nblocks - start)
        slots = -(-n // 8) * 8  # zero blocks fill the last unit
        plan = lay.plans[(slots - 1).bit_length()]
        blocks = body[start * width : (start + n) * width] + bytes((slots - n) * width)
        c = _to_slots(blocks, slots, lay)
        high = (c + plan.add_w >> 8 * width) & plan.ones  # c >= r
        m = _mul_mod(c, k_inv, r, plan)
        bad = high | (m >> bits & plan.ones)  # m >= 2**bits
        if bad:
            slot = (bad.bit_length() - 1) // S
            i = start + slots - 1 - slot
            if high >> slot * S & 1:
                raise MalformedPayload(f"block {i} >= r")
            raise MalformedPayload(f"block {i} decrypts out of range")
        for mask, shift in reversed(plan.passes):
            low = m & mask
            m = low | (m ^ low) >> shift
        # Each unit is the last `bits` bytes of its 8 slots.
        units += [u for u, in struct.iter_unpack(region, m.to_bytes(slots * 2 * width, "big"))]
    data = b"".join(units)[: (nbits + 7) // 8]
    if nbits % 8:  # only a crafted header declares a partial byte
        data = (int.from_bytes(data, "big") >> -nbits % 8).to_bytes(len(data), "big")
    return data


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
        raise MalformedCell(f"cell of {len(data)} bytes is shorter than the header")
    circ_id, command, length = struct.unpack(">IBH", data[:7])
    try:
        command = CellCommand(command)
    except ValueError:
        raise MalformedCell(f"command byte {command:#04x}") from None
    if len(data) != 7 + length:
        raise MalformedCell(f"declared {length} payload bytes, got {len(data) - 7}")
    return Cell(circ_id=circ_id, command=command, payload=data[7:])


# -- relay frame codec -------------------------------------------------------

def encode_relay_frame(frame: RelayFrame) -> bytes:
    if len(frame.data) > MAX_PAYLOAD:
        raise EncodingOverflow(f"data of {len(frame.data)} bytes exceeds cap")
    return struct.pack(">BHH", frame.subcommand, frame.stream_id, len(frame.data)) + frame.data


def decode_relay_frame(data: bytes) -> RelayFrame:
    if len(data) < 5:
        raise MalformedCell(f"frame of {len(data)} bytes is shorter than the header")
    sub, stream_id, length = struct.unpack(">BHH", data[:5])
    try:
        sub = RelaySubcommand(sub)
    except ValueError:
        raise MalformedCell(f"subcommand byte {sub:#04x}") from None
    if len(data) != 5 + length:
        raise MalformedCell(f"declared {length} data bytes, got {len(data) - 5}")
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
        raise MalformedCell(f"CREATE payload must be {3 * width} bytes, got {len(data)}")
    return (int.from_bytes(data[:width], "big"),
            int.from_bytes(data[width : 2 * width], "big"),
            int.from_bytes(data[2 * width :], "big"))


def build_created_payload(v: int, digest: bytes, width: int) -> bytes:
    return int_encode(v, width) + digest


def parse_created_payload(data: bytes, width: int) -> tuple[int, bytes]:
    if len(data) != width + 32:
        raise MalformedCell(f"CREATED payload must be {width + 32} bytes, got {len(data)}")
    return int.from_bytes(data[:width], "big"), data[width:]


def build_extend_data(name: str, create: bytes) -> bytes:
    """EXTEND data: the next hop's name and its CREATE payload bytes."""
    name_b = name.encode()
    if len(name_b) > MAX_NAME_BYTES:
        raise EncodingOverflow(f"node name longer than {MAX_NAME_BYTES} bytes")
    return bytes([len(name_b)]) + name_b + create


def parse_extend_data(data: bytes, width: int) -> tuple[str, bytes]:
    """The next hop's name and the CREATE payload bytes to send it."""
    if len(data) < 1:
        raise MalformedCell("empty EXTEND data")
    name_len = data[0]
    if len(data) != 1 + name_len + 3 * width:
        raise MalformedCell("EXTEND data does not match declared layout")
    try:
        name = data[1 : 1 + name_len].decode()
    except UnicodeDecodeError:
        raise MalformedCell("EXTEND node name is not UTF-8") from None
    return name, data[1 + name_len :]
