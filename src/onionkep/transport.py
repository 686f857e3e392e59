"""Stream transport: length-framed cells over TCP, plus socket-backed
directory service and relay servers.

Frame layout: 4-byte big-endian length || payload, capped at FRAME_MAX.
Both servers share one accept loop, which serves each connection on its
own daemon thread; a serving thread ends quietly on any socket error. The
directory handles requests sequentially per connection and concurrently
across connections.

A relay feeds cells to its state machine behind one lock, which also
guards its link table and is held to open a link. Cells are written
outside it, under the link's own write lock: frames on one link never
interleave, and a write that blocks on a full socket never holds the relay
lock, so two relays writing to each other cannot deadlock on it.

The relay server is ``protocol.Relay`` and the circuit client is
``protocol.Client``, the hosts of the simulator too; this module only
moves their cells over sockets.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import socket
import threading
from typing import Callable

from . import protocol, tlv
from .directory import Directory, NodeDescriptor, decode_descriptors, encode_descriptor
from .errors import (
    DuplicateName,
    FrameTooLarge,
    NotFound,
    NotReady,
    OnionKepError,
    ParamsMismatch,
)
from .nikep import KeyPair, SystemParams, params_digest
from .onioncrypt import Cell, decode_cell, encode_cell
from .protocol import CircuitState, Phase, TamperFn

FRAME_MAX = 70_000

_STATUS_OK = 0
_STATUS_ERRORS = {1: NotFound, 2: DuplicateName, 3: ParamsMismatch}


def send_frame(sock: socket.socket, data: bytes) -> None:
    if len(data) > FRAME_MAX:
        raise FrameTooLarge(f"frame of {len(data)} bytes exceeds {FRAME_MAX}")
    sock.sendall(len(data).to_bytes(4, "big") + data)


def recv_frame(sock: socket.socket) -> bytes | None:
    """Read one frame; returns None on clean EOF."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length > FRAME_MAX:
        raise FrameTooLarge(f"peer announced a {length}-byte frame")
    body = _recv_exact(sock, length)
    if body is None:
        raise ConnectionError("connection closed mid-frame")
    return body


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    buf = b""
    while len(buf) < count:
        chunk = sock.recv(count - len(buf))
        if not chunk:
            if buf:
                raise ConnectionError("connection closed mid-read")
            return None
        buf += chunk
    return buf


def parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    return host, int(port)


# -- serving ----------------------------------------------------------------

def _spawn(target: Callable, *args) -> None:
    threading.Thread(target=target, args=args, daemon=True).start()


def _accept_loop(listener: socket.socket,
                 serve: Callable[[str, socket.socket], None]) -> None:
    """Serve each accepted connection on its own daemon thread as link
    conn<N>, until ``listener`` is closed."""
    for seq in itertools.count(1):
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        _spawn(serve, f"conn{seq}", conn)


def _close(sock: socket.socket) -> None:
    """Close ``sock`` and wake a thread blocked on it, as close() alone does not."""
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    sock.close()


# -- directory over TCP ------------------------------------------------------

class DirectoryServer:
    """Serves register/lookup/list requests over the TLV record grammar."""

    def __init__(self, directory: Directory, host: str = "127.0.0.1", port: int = 0):
        self.directory = directory
        self._listener = socket.create_server((host, port))
        self.address = "%s:%d" % self._listener.getsockname()[:2]
        self._lock = threading.Lock()

    def start(self) -> "DirectoryServer":
        _spawn(_accept_loop, self._listener, self._serve)
        return self

    def stop(self) -> None:
        _close(self._listener)

    def _serve(self, link: str, conn: socket.socket) -> None:
        with conn, contextlib.suppress(OSError, OnionKepError):
            while (request := recv_frame(conn)) is not None:
                send_frame(conn, self._respond(request))

    def _respond(self, request: bytes) -> bytes:
        try:
            tag, value = next(iter(tlv.iter_records(request)))
            with self._lock:
                if tag == tlv.TAG_DIR_REGISTER:
                    self.directory.register(decode_descriptors(value)[0])
                    payload = b""
                elif tag == tlv.TAG_DIR_LOOKUP:
                    payload = encode_descriptor(self.directory.lookup(value.decode()))
                elif tag == tlv.TAG_DIR_LIST:
                    payload = b"".join(encode_descriptor(d) for d in self.directory.list())
                else:
                    raise NotFound(f"unknown request tag {tag:#04x}")
        except (OnionKepError, StopIteration, UnicodeDecodeError) as exc:
            status = next((code for code, error in _STATUS_ERRORS.items()
                           if isinstance(exc, error)), 255)
            return tlv.encode_record(tlv.TAG_STATUS, bytes([status]))
        return tlv.encode_record(tlv.TAG_STATUS, bytes([_STATUS_OK])) + payload


class DirectoryClient:
    def __init__(self, address: str):
        self.address = address

    def register(self, desc: NodeDescriptor) -> None:
        self._request(tlv.encode_record(tlv.TAG_DIR_REGISTER, encode_descriptor(desc)))

    def lookup(self, name: str) -> NodeDescriptor:
        payload = self._request(tlv.encode_record(tlv.TAG_DIR_LOOKUP, name.encode()))
        return decode_descriptors(payload)[0]

    def list(self) -> list[NodeDescriptor]:
        payload = self._request(tlv.encode_record(tlv.TAG_DIR_LIST, b""))
        return decode_descriptors(payload) if payload else []

    def _request(self, request: bytes) -> bytes:
        with socket.create_connection(parse_address(self.address), timeout=10) as sock:
            send_frame(sock, request)
            response = recv_frame(sock)
        if response is None:
            raise ConnectionError("directory closed the connection")
        tag, value = next(iter(tlv.iter_records(response)))
        if tag != tlv.TAG_STATUS:
            raise OnionKepError("malformed directory response")
        status = value[0]
        if status != _STATUS_OK:
            exc = _STATUS_ERRORS.get(status, OnionKepError)
            raise exc(f"directory returned status {status}")
        header_len = 5 + len(value)
        return response[header_len:]


# -- relay server ------------------------------------------------------------

class NodeServer(protocol.Relay):
    """One relay process: registers itself, then serves circuit traffic.

    Inbound connections become links named conn<N>; outbound links to other
    relays are named by node name and resolved through the directory, one
    connection per name. Each link has a reader thread that feeds its cells
    to the relay and sends the answers. ``_lock`` guards the relay state and
    the link table, and is held to open a link (lookup, connect, store,
    start its reader), so concurrent sends toward one relay open one
    connection. Cells are written outside it, under the link's write lock.
    A link dies only for its own socket (EOF, a read, decode or write
    error, a failed open) and forgets every circuit riding on it here only:
    no DESTROY goes to the circuit's other neighbour, so relays further
    along keep it.
    """

    def __init__(self, name: str, params: SystemParams, keypair: KeyPair,
                 dir_client: DirectoryClient, host: str = "127.0.0.1", port: int = 0):
        super().__init__(name, params, keypair, echo_data=True)
        self.dir_client = dir_client
        self._listener = socket.create_server((host, port))
        self.address = "%s:%d" % self._listener.getsockname()[:2]
        self._links: dict[str, tuple[socket.socket, threading.Lock]] = {}
        self._lock = threading.Lock()

    def start(self) -> "NodeServer":
        self.dir_client.register(NodeDescriptor(
            name=self.name, address=self.address,
            public=self.state.keypair.public,
            params_digest=params_digest(self.state.params)))
        _spawn(_accept_loop, self._listener, self._serve)
        return self

    def stop(self) -> None:
        _close(self._listener)
        with self._lock:
            for sock, _ in self._links.values():
                _close(sock)

    def _serve(self, link: str, sock: socket.socket) -> None:
        with self._lock:
            self._links[link] = (sock, threading.Lock())
        self._reader(link, sock)

    def _reader(self, link: str, sock: socket.socket) -> None:
        with contextlib.suppress(OSError, OnionKepError):
            while (frame := recv_frame(sock)) is not None:
                cell = decode_cell(frame)
                with self._lock:
                    sends = self.handle(link, cell)
                for send in sends:
                    self._send(send.link, send.cell)
        self._drop_link(link, sock)

    def _send(self, link: str, cell: Cell) -> None:
        with self._lock:
            if link not in self._links:
                try:
                    desc = self.dir_client.lookup(link)
                    sock = socket.create_connection(parse_address(desc.address), timeout=10)
                except (OSError, OnionKepError):
                    self.drop_link(link)
                    return
                self._links[link] = (sock, threading.Lock())
                _spawn(self._reader, link, sock)
            sock, write_lock = self._links[link]
        try:
            with write_lock:
                send_frame(sock, encode_cell(cell))
        except (OSError, OnionKepError):
            self._drop_link(link, sock)

    def _drop_link(self, link: str, sock: socket.socket) -> None:
        """Close ``sock``; forget ``link`` and its circuits if ``sock`` is still its socket."""
        with self._lock:
            if link in self._links and self._links[link][0] is sock:
                del self._links[link]
                self.drop_link(link)
        _close(sock)


# -- circuit client over TCP -------------------------------------------------

class StreamCircuitClient(protocol.Client):
    """The client host, with its cells carried over the entry node's socket."""

    def __init__(self, params: SystemParams, dir_client: DirectoryClient,
                 rng: random.Random):
        # "A" is this host's name in tamper calls, as on the simulator.
        super().__init__("A", params, dir_client, rng)
        self._sock: socket.socket | None = None

    def build(self, path: list[str], circ_id: int = 1, timeout: float = 30.0,
              tamper: TamperFn | None = None) -> CircuitState:
        """Build along ``path``; ``tamper(src, dst, cell)``, as on SimNet,
        may rewrite or (returning None) drop each received cell."""
        sends = [self.start_build(circ_id, path)]
        entry = self.path[0].name
        self.close()
        self._sock = socket.create_connection(parse_address(self.path[0].address),
                                              timeout=timeout)
        while True:
            self._send(sends)
            if self.state.phase in (Phase.READY, Phase.FAILED):
                return self.state
            cell = self._recv()
            if tamper is not None:
                cell = tamper(entry, self.name, cell)
            sends = [] if cell is None else self.handle(entry, cell)

    def send_data(self, stream_id: int, data: bytes) -> bytes:
        """Send one DATA frame and wait for the echoed backward response;
        raises NotReady with the failure as soon as the circuit fails."""
        self._send([protocol.client_send_data(self.state, stream_id, data)])
        while not self.received:
            self._send(self.handle(self.path[0].name, self._recv()))
            if self.state.phase == Phase.FAILED:
                raise NotReady(self.state.failure)
        return self.received.pop(0)[1]

    def _send(self, sends: list[protocol.SendCell]) -> None:
        for send in sends:
            send_frame(self._sock, encode_cell(send.cell))

    def _recv(self) -> Cell:
        frame = recv_frame(self._sock)
        if frame is None:
            raise ConnectionError("entry node closed the connection")
        return decode_cell(frame)

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
