import contextlib
import errno
import queue
import random
import socket
import threading
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import settings

from onionkep import Cell, CellCommand, gen_params, keypair_from_secrets, make_params, tlv
from onionkep.onioncrypt import (
    RelayFrame,
    RelaySubcommand,
    build_create_payload,
    encode_relay_frame,
    onion_wrap,
)
from onionkep.protocol import _apply
from onionkep.transport import recv_frame, send_frame

# Ten times the examples of Hypothesis's default profile, for tests that
# take their count from the loaded profile, such as the simulator's link
# model: pytest --hypothesis-profile=thorough tests/test_simnet.py -k LinkModel
# and the malformed-input and relay-delta tests of the machines
# (tests/test_protocol.py), of the cell-format decoders and of long
# chunk-cipher messages and its dense layout at every gap width against
# their oracle (tests/test_onioncrypt.py), of
# the session-key derivation against its oracle (tests/test_nikep.py), of
# the safe-prime search against its oracle (tests/test_modmath.py) and of
# malformed directory requests and answers (tests/test_directory.py).
settings.register_profile("thorough", max_examples=10 * settings.get_profile("default").max_examples)

# Directory answers that no well-formed request may get back, by name.
MALFORMED_ANSWERS = {
    "empty-frame": b"",
    "empty-status": tlv.encode_record(tlv.TAG_STATUS, b""),
    "ok-without-descriptor": tlv.encode_record(tlv.TAG_STATUS, b"\x00"),
    "non-utf8-name": (tlv.encode_record(tlv.TAG_STATUS, b"\x00")
                      + tlv.encode_record(tlv.TAG_NAME, b"\xff")
                      + tlv.encode_record(tlv.TAG_ADDRESS, b"127.0.0.1:1")
                      + tlv.encode_int_record(tlv.TAG_PUB_P, 5)
                      + tlv.encode_int_record(tlv.TAG_PUB_Q, 7)
                      + tlv.encode_record(tlv.TAG_PARAMS_DIGEST, bytes(32))),
}


class ScriptedRng:
    """Feeds predetermined draws to code expecting a random.Random."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, start, stop=None):
        value = self.values.pop(0)
        if stop is None:
            start, stop = 0, start
        assert start <= value < stop, f"scripted draw {value} outside [{start}, {stop})"
        return value


def raw_extend_cell(state, name: bytes) -> Cell:
    """A RELAY cell for ``state``'s circuit carrying an EXTEND whose name is
    the raw bytes ``name`` in a correctly sized layout, layered under every
    confirmed hop's key as ``client_extend`` layers it."""
    data = bytes([len(name)]) + name + build_create_payload(
        1, 1, 1, state.params.residue_width)
    frame = encode_relay_frame(RelayFrame(RelaySubcommand.EXTEND, 0, data))
    keys = [hop.session for hop in state.hops if hop.confirmed]
    return Cell(state.circ_id, CellCommand.RELAY, onion_wrap(frame, keys[::-1], state.params))


def check_hop_keys(state) -> None:
    """A client hop keeps only what the handshake still reads: every hop
    but the last is confirmed, and a confirmed hop no longer holds its k."""
    assert all(hop.confirmed for hop in state.hops[:-1])
    assert all(hop.own_k is None for hop in state.hops if hop.confirmed)


@contextlib.contextmanager
def fake_directory(answer):
    """A directory on 127.0.0.1 that answers each request frame with the
    frame ``answer(request)``; yields its address."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve(conn):
        with conn, contextlib.suppress(OSError):
            while (request := recv_frame(conn)) is not None:
                send_frame(conn, answer(request))

    def accept():
        with contextlib.suppress(OSError):
            while True:
                threading.Thread(target=serve, args=(listener.accept()[0],),
                                 daemon=True).start()

    threading.Thread(target=accept, daemon=True).start()
    try:
        yield "%s:%d" % listener.getsockname()[:2]
    finally:
        with contextlib.suppress(OSError):
            listener.shutdown(socket.SHUT_RDWR)
        listener.close()


def on_loop(server, fn):
    """``fn()`` run on the loop thread of a TCP server, the one thread that
    changes its maps, after every call posted to it before; its result."""
    box = queue.SimpleQueue()
    assert server._call(lambda: box.put(fn()))
    return box.get(timeout=5)


def session_keys(relay) -> list[int]:
    """The raw session keys of ``relay``'s circuits, in entry order, read on
    the loop thread of a TCP relay."""
    def keys():
        return [entry.session.raw for entry in relay.state.entries.values()]

    return on_loop(relay, keys) if hasattr(relay, "_call") else keys()


def serialize(transcript) -> bytes:
    """A simulator transcript as one ``step direction hex`` line per cell."""
    return b"".join(f"{e.step} {e.direction} {e.data.hex()}\n".encode()
                    for e in transcript.entries)


def on_link(transcript, a: str, b: str) -> list:
    """The transcript entries that crossed the link between ``a`` and ``b``."""
    directions = {f"{a}->{b}", f"{b}->{a}"}
    return [e for e in transcript.entries if e.direction in directions]


def node_apply(state, delta):
    """``state`` with the relay ``delta`` applied, on copies of its maps and of
    each link's ids: the pure fold that the relay host's in-place updates are
    checked against."""
    by_link = {link: dict(ids) for link, ids in state.by_link.items()}
    return _apply(replace(state, entries=dict(state.entries), by_link=by_link), delta)


def link_index(entries) -> dict:
    """The ``by_link`` index that ``entries`` imply: both ends of each circuit,
    link -> circ_id -> entry key, with no link that carries none. It fails
    if two ends share one (link, circ_id), which the relay must keep apart."""
    index: dict = {}
    for key, entry in entries.items():
        for link, circ_id in (key, (entry.next_link, entry.next_circ_id)):
            if link is not None:
                assert circ_id not in index.get(link, {}), (link, circ_id)
                index.setdefault(link, {})[circ_id] = key
    return index


def outcome(fn, *args, **kwargs):
    """The return value of ``fn``, or the type and message it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def tabulate(params, pub) -> None:
    """Resolve ``pub`` twice under ``params``, as a client's second build
    does, so that ``mix`` reads a fixed-base table for it."""
    params.note_resolved(pub)
    params.note_resolved(pub)


def built_tables(params) -> dict:
    """The fixed-base tables ``params`` holds for ``mix``, by constructor."""
    return {pub: rows for pub, rows in params._mix_tables.items() if rows is not None}


class LoggedFile:
    """A file the directory opened for writing; logs or tears its writes."""

    def __init__(self, fh, log):
        self.fh, self.log = fh, log

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if self.log.tear_next:
            self.log.tear_next = False
            self.fh.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.log.lengths.append(len(data))
        return self.fh.write(data)


@pytest.fixture
def writes(monkeypatch):
    """The lengths of the directory's writes; set tear_next to have the
    next write stop halfway and raise ENOSPC."""
    log = SimpleNamespace(lengths=[], tear_next=False)
    real_open = open

    def logged_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return fh if "r" in mode else LoggedFile(fh, log)

    monkeypatch.setattr("onionkep.directory.open", logged_open, raising=False)
    return log


@pytest.fixture
def toy_params():
    # p = q = 2, r = 11: n = 44, phi = 20. All worked examples live here.
    return make_params(2, 2, 11)


@pytest.fixture
def toy_alice(toy_params):
    return keypair_from_secrets(toy_params, 3, 13)


@pytest.fixture
def toy_bob(toy_params):
    return keypair_from_secrets(toy_params, 5, 15)


@pytest.fixture(scope="session")
def params_64():
    return gen_params(64, random.Random(0xBEEF))


@pytest.fixture(scope="session")
def params_256():
    return gen_params(256, random.Random(0xCAFE))
