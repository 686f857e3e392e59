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

- Dense layout. Block i of a group sits in field N - 1 - i, bits
  [W*(N-1-i), W*(N-i)) of one int, with W = 8 * width: the ciphertext's own
  wire layout. N is the block count rounded up to whole units of 8 blocks
  with zero blocks. A unit is ``bits`` bytes of the bit stream and
  8 * width bytes of fields, so units move as bytes, as width-byte blocks
  do; two mask-and-shift passes per group move the blocks within each unit
  and leave them in pairs. One mask and one shift split a group into two
  ints, its even blocks and its odd blocks, each block in a slot of
  S = 16 * width bits: the block and a free width-byte field above it, so
  a slot holds m * k < r**2. One shift and an OR join the halves back.
- Barrett bound. With L = bitlen(r) and mu = k * 2**L // r, the quotient
  q = m * mu >> L is floor(m * k / r) or one less for m < 2**L (Barrett,
  CRYPTO '86), so m * k - q * r < 2r: three multiplies per half. Adding
  2**L - r to every slot flags in its bit L the slots that take one more
  r; those slots take that sum, and since a remainder may lie in
  [2**L, 2r), every slot then keeps only its low L bits. Each of these is
  one multiply, add or mask over a half; no slot carries into the next.
- Flags. Decrypt flags c >= r in bit 8 * width of every slot
  + 2**(8 * width) - r, and m >= 2**bits in bit ``bits`` of the decrypted
  slot. A flagged stream, like a header that declares a partial byte, goes
  to the block loop, the one rule that names its first bad block.
- Width and length dispatch. One plan per modulus, for a full group of
  GROUP_BLOCKS = 1024 blocks, is built once by doubling, for at most
  PLAN_MODULI moduli. A shorter group runs at its own size: its int holds
  its units alone, and CPython sizes an &'s result to the shorter operand,
  so only the two constants it adds, 2**L - r and 2**(8*width) - r, are
  shifted down to its units. One predicate, ``_packed``, sends moduli
  wider than PACKED_MAX_BITS (the packed path is the slower there, as at
  256 bits) and messages of fewer than PACKED_MIN_BLOCKS blocks, such as
  EXTEND frames, to the block loop in both directions, in bits-byte groups
  of exactly 8 blocks. Every path gives the same bytes and errors.
"""

from __future__ import annotations

import hashlib
import struct
from enum import IntEnum
from functools import lru_cache
from typing import NamedTuple

from .errors import EncodingOverflow, MalformedCell, MalformedPayload
from .nikep import SessionKey, SystemParams

MAX_PAYLOAD = 65535
MAX_CIRC_ID = 2**32 - 1  # the cell header's four bytes; a relay's ids wrap after it
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


# The members again as module names, for the circuit path: on CPython 3.11
# reading a member off its Enum class is a descriptor call. The decoders
# map a wire byte to its member through one dict per enum.
CREATE, CREATED, RELAY, DESTROY = CellCommand
EXTEND, EXTENDED, DATA, END = RelaySubcommand
_COMMANDS = {c.value: c for c in CellCommand}
_SUBCOMMANDS = {s.value: s for s in RelaySubcommand}


class Cell(NamedTuple):
    circ_id: int
    command: CellCommand
    payload: bytes = b""


class RelayFrame(NamedTuple):
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
# with it; the plan does, to 11 * width * GROUP_BLOCKS bytes a modulus.
GROUP_BLOCKS = 1024
# Moduli whose plans are kept; the least recently used one is dropped.
PLAN_MODULI = 4


def _packed(r: int, nblocks: int) -> bool:
    """Whether a message of ``nblocks`` blocks under modulus r takes the packed path."""
    return r.bit_length() <= PACKED_MAX_BITS and nblocks >= PACKED_MIN_BLOCKS


class _Plan(NamedTuple):
    """The constants of a full packed group, GROUP_BLOCKS / 8 units of 8 blocks.
    The passes act on the dense int, one block per 8*width-bit field; the
    rest act on each half, one block per 16*width-bit slot."""

    passes: tuple[tuple[int, int], ...]  # (mask, shift) per in-unit pass
    pair: int  # the low ``bits`` bits of every slot
    split: int  # the low 8*width bits of every slot
    low: int  # the low 16*width - L bits of every slot
    add_r: int  # 2**L - r in every slot
    flag_r: int  # bit L of every slot
    low_l: int  # the low L bits of every slot
    add_w: int  # 2**(8*width) - r in every slot
    flag_w: int  # bit 8*width of every slot
    flag_m: int  # bit ``bits`` of every slot


@lru_cache(maxsize=PLAN_MODULI)
def _layout(r: int) -> _Plan:
    """The plan of modulus r, built from one unit's by doubling. A unit's
    two passes leave its blocks in pairs, one pair per slot; the even
    block of a pair is its low ``bits`` bits."""
    L = r.bit_length()
    bits, width = L - 1, (L + 7) // 8
    W = 8 * width
    ones = sum(1 << i * 2 * W for i in range(4))  # 1 in each slot of a unit
    plan = _Plan((((1 << 4 * bits) - 1, 4 * (W - bits)),
                  (((1 << 2 * bits) - 1) * (1 | 1 << 4 * W), 2 * (W - bits))),
                 *(v * ones for v in ((1 << bits) - 1, (1 << W) - 1, (1 << 2 * W - L) - 1,
                                      (1 << L) - r, 1 << L, (1 << L) - 1, (1 << W) - r,
                                      1 << W, 1 << bits)))
    for j in range((GROUP_BLOCKS // 8).bit_length() - 1):
        at = 8 * W << j
        plan = _Plan(tuple((m | m << at, s) for m, s in plan.passes),
                     *(v | v << at for v in plan[1:]))
    return plan


def _mul_mod(x: int, k: int, mu: int, r: int, plan: _Plan, add_r: int) -> int:
    """Every slot v < 2**L of x taken to v*k mod r, with mu = k*2**L // r:
    q = v*mu >> L is floor(v*k/r) or one less (Barrett, 1986), so v*k - q*r
    is below 2r, and bit L of each slot + 2**L - r flags the ones that take
    one more r. A remainder may lie in [2**L, 2r), so the flagged slots
    take that sum and every slot keeps only its low L bits. A slot
    v < 2**(8*width), as decrypt may pass, gets a value of no use, but no
    slot carries into the next: q*r never exceeds v*k, and
    v*k < 2**(8*width) * r <= 2**(16*width). add_r is plan.add_r cut to x."""
    L = r.bit_length()
    x = x * k - ((x * mu >> L) & plan.low) * r
    flag = (x + add_r) & plan.flag_r
    return (x + (add_r & flag - (flag >> L))) & plan.low_l


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
    if not nbits % 8 and _packed(r, nblocks):
        data = _packed_decrypt(body, nbits, k_inv, r, bits)
        if data is not None:
            return data
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
    plan, width = _layout(r), (bits + 8) // 8
    W, mu = 8 * width, (k << bits + 1) // r
    unit, gapped = f"{bits}s", f"{W - bits}x{bits}s"
    out = [(8 * len(plain)).to_bytes(8, "big")]
    step = GROUP_BLOCKS * bits // 8
    for start in range(0, len(plain), step):
        group = plain[start : start + step]
        n = -(-8 * len(group) // bits)
        units = -(-n // 8)  # zero blocks fill the last unit
        cut = (GROUP_BLOCKS - 8 * units) * W  # a short group's own slots (module docstring)
        add_r = plan.add_r >> cut if cut else plan.add_r  # a shift by 0 copies the int
        group += bytes(units * bits - len(group))
        # Each unit, right-aligned in the bytes of its 8 fields.
        x = int.from_bytes(struct.pack(gapped * units, *struct.unpack(unit * units, group)), "big")
        for mask, shift in plan.passes:
            low = x & mask
            x = low | (x ^ low) << shift
        even = _mul_mod(x & plan.pair, k, mu, r, plan, add_r)
        odd = _mul_mod(x >> bits & plan.pair, k, mu, r, plan, add_r)
        out.append((even | odd << W).to_bytes(8 * units * width, "big")[: n * width])
    return b"".join(out)


def _packed_decrypt(body: bytes, nbits: int, k_inv: int, r: int, bits: int) -> bytes | None:
    """chunk_decrypt GROUP_BLOCKS blocks at a time, for a checked header of
    whole bytes and its body; None once a block is flagged (module docstring)."""
    plan, width = _layout(r), (bits + 8) // 8
    W, mu = 8 * width, (k_inv << bits + 1) // r
    region = f"{W - bits}x{bits}s"
    nblocks = len(body) // width
    pieces = []
    for start in range(0, nblocks, GROUP_BLOCKS):
        n = min(GROUP_BLOCKS, nblocks - start)
        units = -(-n // 8)  # zero blocks fill the last unit
        cut = (GROUP_BLOCKS - 8 * units) * W  # as in _packed_encrypt
        add_r, add_w = (plan.add_r >> cut, plan.add_w >> cut) if cut else (plan.add_r, plan.add_w)
        c = int.from_bytes(body[start * width : (start + n) * width], "big") << (8 * units - n) * W
        c_even, c_odd = c & plan.split, c >> W & plan.split
        even = _mul_mod(c_even, k_inv, mu, r, plan, add_r)
        odd = _mul_mod(c_odd, k_inv, mu, r, plan, add_r)
        if (c_even + add_w | c_odd + add_w) & plan.flag_w or (even | odd) & plan.flag_m:
            return None
        m = even | odd << bits
        for mask, shift in reversed(plan.passes):
            low = m & mask
            m = low | (m ^ low) >> shift
        # Each unit is the last `bits` bytes of its 8 fields.
        pieces += struct.unpack(region * units, m.to_bytes(8 * units * width, "big"))
    return b"".join(pieces)[: nbits // 8]


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
    if not 0 <= cell.circ_id <= MAX_CIRC_ID:
        raise EncodingOverflow(f"circuit id {cell.circ_id} does not fit in 4 bytes")
    return struct.pack(">IBH", cell.circ_id, cell.command, len(cell.payload)) + cell.payload


def decode_cell(data: bytes) -> Cell:
    if len(data) < 7:
        raise MalformedCell(f"cell of {len(data)} bytes is shorter than the header")
    circ_id, byte, length = struct.unpack(">IBH", data[:7])
    command = _COMMANDS.get(byte)
    if command is None:
        raise MalformedCell(f"command byte {byte:#04x}")
    if len(data) != 7 + length:
        raise MalformedCell(f"declared {length} payload bytes, got {len(data) - 7}")
    return Cell(circ_id, command, data[7:])


# -- relay frame codec -------------------------------------------------------

def encode_relay_frame(frame: RelayFrame) -> bytes:
    if len(frame.data) > MAX_PAYLOAD:
        raise EncodingOverflow(f"data of {len(frame.data)} bytes exceeds cap")
    return struct.pack(">BHH", frame.subcommand, frame.stream_id, len(frame.data)) + frame.data


def decode_relay_frame(data: bytes) -> RelayFrame:
    if len(data) < 5:
        raise MalformedCell(f"frame of {len(data)} bytes is shorter than the header")
    byte, stream_id, length = struct.unpack(">BHH", data[:5])
    sub = _SUBCOMMANDS.get(byte)
    if sub is None:
        raise MalformedCell(f"subcommand byte {byte:#04x}")
    if len(data) != 5 + length:
        raise MalformedCell(f"declared {length} data bytes, got {len(data) - 5}")
    return RelayFrame(sub, stream_id, data[5:])


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
