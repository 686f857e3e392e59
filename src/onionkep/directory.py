"""Directory service: the sole source of relay long-term public keys.

Clients resolve node names here and never accept a constructor supplied by
a relay, which is what makes the published keys the trust anchor of the
handshake. State is optionally kept in a TLV snapshot file so demos can
restart without a database: each registration that changes a descriptor
appends that descriptor's records in one write, and loading replays the file
through ``register``, so a later record of a name wins. Once superseded
records would outnumber the live ones, the file is rewritten whole through a
temporary file and ``os.replace`` instead, so it holds at most two records
per name and n registrations cost O(n) writes in all. A write that fails
with ``OSError`` leaves the registry as it was and has the next registration
rewrite the file; a tail torn by a killed process fails the load with
``MalformedKeyFile``.

The wire protocol is here too: ``Directory.answer`` turns a REGISTER or
LOOKUP request into a STATUS record and the descriptor asked for, and
``read_answer`` turns an answer into that descriptor's bytes or the status's
error. Every decoder here fails with a subclass of ``OnionKepError``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import tlv
from .errors import DuplicateName, MalformedKeyFile, NotFound, OnionKepError, ParamsMismatch
from .nikep import PublicConstructor
from .onioncrypt import MAX_NAME_BYTES

_STATUS_OK = 0
_STATUS_ERRORS = {1: NotFound, 2: DuplicateName, 3: ParamsMismatch}  # any other error: 255


@dataclass(frozen=True)
class NodeDescriptor:
    name: str
    address: str
    public: PublicConstructor
    params_digest: bytes


def encode_descriptor(desc: NodeDescriptor) -> bytes:
    if len(desc.name.encode()) > MAX_NAME_BYTES:
        raise ValueError(f"node name longer than {MAX_NAME_BYTES} bytes")
    return (tlv.encode_record(tlv.TAG_NAME, desc.name.encode())
            + tlv.encode_record(tlv.TAG_ADDRESS, desc.address.encode())
            + tlv.encode_int_record(tlv.TAG_PUB_P, desc.public.P)
            + tlv.encode_int_record(tlv.TAG_PUB_Q, desc.public.Q)
            + tlv.encode_record(tlv.TAG_PARAMS_DIGEST, desc.params_digest))


def decode_descriptors(data: bytes) -> list[NodeDescriptor]:
    """Parse concatenated descriptor records; each starts with a name tag."""
    out: list[NodeDescriptor] = []
    fields: dict[int, bytes] = {}
    for tag, value in tlv.iter_records(data):
        if tag == tlv.TAG_NAME and fields:
            out.append(_descriptor_from_fields(fields))
            fields = {}
        fields[tag] = value
    if fields:
        out.append(_descriptor_from_fields(fields))
    return out


def decode_descriptor(data: bytes) -> NodeDescriptor:
    """Parse exactly one descriptor."""
    descs = decode_descriptors(data)
    if len(descs) != 1:
        raise MalformedKeyFile(f"expected one descriptor, got {len(descs)}")
    return descs[0]


def _descriptor_from_fields(fields: dict[int, bytes]) -> NodeDescriptor:
    required = {tlv.TAG_NAME, tlv.TAG_ADDRESS, tlv.TAG_PUB_P, tlv.TAG_PUB_Q,
                tlv.TAG_PARAMS_DIGEST}
    if required - fields.keys():
        raise MalformedKeyFile("descriptor record is missing fields")
    if len(fields[tlv.TAG_NAME]) > MAX_NAME_BYTES:
        raise MalformedKeyFile(f"node name longer than {MAX_NAME_BYTES} bytes")
    return NodeDescriptor(
        name=tlv.decode_text(fields[tlv.TAG_NAME]),
        address=tlv.decode_text(fields[tlv.TAG_ADDRESS]),
        public=PublicConstructor(P=int.from_bytes(fields[tlv.TAG_PUB_P], "big"),
                                 Q=int.from_bytes(fields[tlv.TAG_PUB_Q], "big")),
        params_digest=fields[tlv.TAG_PARAMS_DIGEST],
    )


class Directory:
    """Name -> descriptor registry bound to one parameter set."""

    def __init__(self, params_digest: bytes, snapshot_path: str | None = None):
        self.params_digest = params_digest
        self.snapshot_path = None  # set once loaded: replay must not append to the file
        self._descriptors: dict[str, NodeDescriptor] = {}
        self._records: int | None = 0  # in the file, superseded ones too; None: rewrite it
        if snapshot_path and os.path.exists(snapshot_path):
            with open(snapshot_path, "rb") as fh:
                records = decode_descriptors(fh.read())
            for desc in records:
                self.register(desc)
            self._records = len(records)
        self.snapshot_path = snapshot_path

    def register(self, desc: NodeDescriptor) -> None:
        """Add or update a descriptor and save it, unless it is already
        registered as is; on OSError the registry is left as it was."""
        if desc.params_digest != self.params_digest:
            raise ParamsMismatch(f"descriptor for {desc.name} uses foreign parameters")
        existing = self._descriptors.get(desc.name)
        if existing is not None and existing.public != desc.public:
            raise DuplicateName(f"{desc.name} already registered with a different key")
        if existing == desc:
            return
        self._descriptors[desc.name] = desc
        if not self.snapshot_path:
            return
        try:
            self._save(desc)
        except OSError:
            self._records = None  # the file may end in a torn record
            if existing is None:
                del self._descriptors[desc.name]
            else:
                self._descriptors[desc.name] = existing
            raise

    def lookup(self, name: str) -> NodeDescriptor:
        try:
            return self._descriptors[name]
        except KeyError:
            raise NotFound(f"no descriptor for {name!r}") from None

    def list(self) -> list[NodeDescriptor]:
        return [self._descriptors[name] for name in sorted(self._descriptors)]

    def answer(self, request: bytes) -> bytes:
        """A STATUS record answering the leading request record of ``request``,
        then on success the descriptor a LOOKUP asked for; never raises OnionKepError."""
        try:
            tag, value, _ = tlv.split_first(request)
            if tag == tlv.TAG_DIR_REGISTER:
                self.register(decode_descriptor(value))
                payload = b""
            elif tag == tlv.TAG_DIR_LOOKUP:
                payload = encode_descriptor(self.lookup(tlv.decode_text(value)))
            else:
                raise NotFound(f"unknown request tag {tag:#04x}")
        except OnionKepError as exc:
            status = next((code for code, error in _STATUS_ERRORS.items()
                           if isinstance(exc, error)), 255)
            return tlv.encode_record(tlv.TAG_STATUS, bytes([status]))
        return tlv.encode_record(tlv.TAG_STATUS, bytes([_STATUS_OK])) + payload

    def _save(self, desc: NodeDescriptor) -> None:
        """Append desc's records in one write, or rewrite the whole file when
        superseded records would outnumber live ones, or it may be torn."""
        if self._records is not None and self._records < 2 * len(self._descriptors):
            with open(self.snapshot_path, "ab") as fh:
                fh.write(encode_descriptor(desc))
            self._records += 1
            return
        tmp = self.snapshot_path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(b"".join(encode_descriptor(d) for d in self.list()))
        os.replace(tmp, self.snapshot_path)
        self._records = len(self._descriptors)


def read_answer(answer: bytes) -> bytes:
    """The descriptor bytes after the STATUS record of a successful
    ``answer``; raises the error of a failure status."""
    tag, value, payload = tlv.split_first(answer)
    if tag != tlv.TAG_STATUS or len(value) != 1:
        raise MalformedKeyFile("malformed directory answer")
    if value[0] != _STATUS_OK:
        error = _STATUS_ERRORS.get(value[0], OnionKepError)
        raise error(f"directory returned status {value[0]}")
    return payload
