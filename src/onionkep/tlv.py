"""TLV record grammar shared by key files, directory snapshots and the
directory wire protocol.

Record layout, bit-exact: tag (1 byte) || length (4 bytes big-endian) ||
value. Integer values are minimal big-endian (no leading zero bytes;
zero encodes as the empty string).
"""

from __future__ import annotations

from typing import Iterator

from .errors import MalformedKeyFile

# Key file tags.
TAG_P = 0x01
TAG_Q = 0x02
TAG_R = 0x03
TAG_X = 0x05
TAG_K = 0x06
TAG_PUB_P = 0x07
TAG_PUB_Q = 0x08

# Directory protocol / snapshot tags.
TAG_DIR_REGISTER = 0x10
TAG_DIR_LOOKUP = 0x11
TAG_NAME = 0x20
TAG_ADDRESS = 0x21
TAG_PARAMS_DIGEST = 0x22
TAG_STATUS = 0x7F


def encode_record(tag: int, value: bytes) -> bytes:
    return bytes([tag]) + len(value).to_bytes(4, "big") + value


def encode_int_record(tag: int, v: int) -> bytes:
    return encode_record(tag, v.to_bytes((v.bit_length() + 7) // 8, "big"))


def split_first(data: bytes | memoryview) -> tuple[int, bytes, bytes | memoryview]:
    """The leading record of ``data`` as (tag, value, rest of ``data``);
    raises MalformedKeyFile if ``data`` does not start with a whole record."""
    if len(data) < 5:
        raise MalformedKeyFile("truncated record header")
    tag = data[0]
    end = 5 + int.from_bytes(data[1:5], "big")
    if end > len(data):
        raise MalformedKeyFile(f"truncated value for tag {tag:#04x}")
    return tag, bytes(data[5:end]), data[end:]


def iter_records(data: bytes) -> Iterator[tuple[int, bytes]]:
    """Yield (tag, value) pairs; raises MalformedKeyFile on truncation."""
    rest = memoryview(data)
    while rest:
        tag, value, rest = split_first(rest)
        yield tag, value


def decode_text(value: bytes) -> str:
    """A text value, which must be UTF-8; raises MalformedKeyFile if not."""
    try:
        return value.decode()
    except UnicodeDecodeError:
        raise MalformedKeyFile("text value is not UTF-8") from None
