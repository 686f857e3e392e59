"""Stream transport: length-framed cells over TCP, plus socket-backed
directory service and relay servers. It only moves frames; what a cell or
a directory message means, and what its malformed bytes raise, is decided
by ``onioncrypt``, ``protocol`` and ``directory``.

Frame layout: 4-byte big-endian length || payload, capped at FRAME_MAX.
Both servers share one accept loop, which serves each connection on its
own daemon thread; a serving thread ends quietly on any socket error. The
directory server answers each request frame with ``Directory.answer``,
sequentially per connection and concurrently across connections.

A relay feeds cells to its state machine behind one lock, which also
guards its link table and is held to open a link. Cells are written
outside it, under the link's own write lock: frames on one link never
interleave, and a write that blocks on a full socket never holds the relay
lock, so two relays writing to each other cannot deadlock on it. The relay
server is ``protocol.Relay`` and the circuit client ``protocol.Client``,
the hosts of the simulator too.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import socket
import threading
from typing import Callable

from . import protocol, tlv
from .directory import (Directory, NodeDescriptor, decode_descriptor, decode_descriptors,
                        encode_descriptor, read_answer)
from .errors import FrameTooLarge, NotReady, OnionKepError
from .nikep import KeyPair, SystemParams, params_digest
from .onioncrypt import Cell, CellCommand, decode_cell, encode_cell
from .protocol import CircuitState, Phase, TamperFn

FRAME_MAX = 70_000


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
    buf = bytearray()  # grows in place: linear in count however the bytes arrive
    while len(buf) < count:
        chunk = sock.recv(count - len(buf))
        if not chunk:
            if buf:
                raise ConnectionError("connection closed mid-read")
            return None
        buf += chunk
    return bytes(buf)


def parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    return host, int(port)


# -- serving ----------------------------------------------------------------

def _spawn(target: Callable, *args) -> None:
    threading.Thread(target=target, args=args, daemon=True).start()


def _accept_loop(listener: socket.socket,
                 serve: Callable[[int, socket.socket], None]) -> None:
    """Serve each accepted connection on its own daemon thread with its
    accept number N = 1, 2, ..., until ``listener`` is closed."""
    for seq in itertools.count(1):
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        _spawn(serve, seq, conn)


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

    def _serve(self, seq: int, conn: socket.socket) -> None:
        with conn, contextlib.suppress(OSError, OnionKepError):
            while (request := recv_frame(conn)) is not None:
                with self._lock:
                    answer = self.directory.answer(request)
                send_frame(conn, answer)


class DirectoryClient:
    def __init__(self, address: str):
        self.address = address

    def register(self, desc: NodeDescriptor) -> None:
        self._request(tlv.TAG_DIR_REGISTER, encode_descriptor(desc))

    def lookup(self, name: str) -> NodeDescriptor:
        return decode_descriptor(self._request(tlv.TAG_DIR_LOOKUP, name.encode()))

    def list(self) -> list[NodeDescriptor]:
        return decode_descriptors(self._request(tlv.TAG_DIR_LIST, b""))

    def _request(self, tag: int, value: bytes) -> bytes:
        with socket.create_connection(parse_address(self.address), timeout=10) as sock:
            send_frame(sock, tlv.encode_record(tag, value))
            answer = recv_frame(sock)
        if answer is None:
            raise ConnectionError("directory closed the connection")
        return read_answer(answer)


# -- relay server ------------------------------------------------------------

class NodeServer(protocol.Relay):
    """One relay process: registers itself, then serves circuit traffic.

    Inbound connections become links keyed by their accept number, an int,
    so that no EXTEND name, a str, can reach one and a lost one is never
    reopened; outbound links to other relays are named by node name and
    resolved through the directory, one connection per name, and are
    blocking sockets once connected, like the inbound ones. Each link has
    a reader thread that feeds its cells to the relay and sends the
    answers. ``_lock`` guards the relay state, whose maps change in place
    (other threads read them under it or only through ``len()``), and
    the link table, and is held to open a link (lookup, connect, store,
    start its reader), so concurrent sends toward one relay open one
    connection. Cells are written outside it, under the link's write lock.
    A failed open (lookup, address or connect) feeds the relay DESTROY from
    that link, which fails the circuit back toward its client. A link dies
    only for its own socket (EOF, a read, decode or write error) and forgets
    every circuit riding on it here only: no DESTROY goes to the circuit's
    other neighbour, so relays further along keep it.
    """

    def __init__(self, name: str, params: SystemParams, keypair: KeyPair,
                 dir_client: DirectoryClient, host: str = "127.0.0.1", port: int = 0):
        super().__init__(name, params, keypair)
        self.dir_client = dir_client
        self._listener = socket.create_server((host, port))
        self.address = "%s:%d" % self._listener.getsockname()[:2]
        self._links: dict[int | str, tuple[socket.socket, threading.Lock]] = {}
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

    def _serve(self, link: int, sock: socket.socket) -> None:
        with self._lock:
            self._links[link] = (sock, threading.Lock())
        self._reader(link, sock)

    def _reader(self, link: int | str, sock: socket.socket) -> None:
        with contextlib.suppress(OSError, OnionKepError):
            while (frame := recv_frame(sock)) is not None:
                cell = decode_cell(frame)
                with self._lock:
                    sends = self.handle(link, cell)
                for send in sends:
                    self._send(send.link, send.cell)
        self._drop_link(link, sock)

    def _send(self, link: int | str, cell: Cell) -> None:
        refused: list[protocol.SendCell] = []
        with self._lock:
            if link not in self._links and isinstance(link, str):  # a lost inbound link stays lost
                try:
                    desc = self.dir_client.lookup(link)
                    sock = socket.create_connection(parse_address(desc.address), timeout=10)
                    sock.setblocking(True)
                except (OSError, ValueError, OnionKepError):  # as if the next hop refused
                    refused = self.handle(link, Cell(cell.circ_id, CellCommand.DESTROY))
                else:
                    self._links[link] = (sock, threading.Lock())
                    _spawn(self._reader, link, sock)
            sock, write_lock = self._links.get(link, (None, None))
        for send in refused:
            self._send(send.link, send.cell)
        if sock is None:
            return
        try:
            with write_lock:
                send_frame(sock, encode_cell(cell))
        except (OSError, OnionKepError):
            self._drop_link(link, sock)

    def _drop_link(self, link: int | str, sock: socket.socket) -> None:
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
