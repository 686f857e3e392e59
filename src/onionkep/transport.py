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
guards its link table; a link is opened with no lock held, while the cells
for it queue. Cells are written outside it, under the link's own write
lock: frames on one link never interleave, and a write that blocks on a
full socket never holds the relay lock, so two relays writing to each
other cannot deadlock on it. The relay server is ``protocol.Relay`` and
the circuit client ``protocol.Client``, the hosts of the simulator too.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import socket
import threading
from typing import Callable

from . import protocol, tlv
from .directory import Directory, NodeDescriptor, decode_descriptor, encode_descriptor, read_answer
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
    """Serves register and lookup requests over the TLV record grammar."""

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
    """Remembers each descriptor it found; ``connect`` refetches one whose address fails."""

    def __init__(self, address: str):
        self.address = address
        self._resolved: dict[str, NodeDescriptor] = {}

    def register(self, desc: NodeDescriptor) -> None:
        self._request(tlv.TAG_DIR_REGISTER, encode_descriptor(desc))

    def lookup(self, name: str) -> NodeDescriptor:
        desc = self._resolved.get(name) or decode_descriptor(
            self._request(tlv.TAG_DIR_LOOKUP, name.encode()))
        return self._resolved.setdefault(name, desc)  # threads racing store equal values

    def connect(self, name: str, timeout: float) -> socket.socket:
        """A connection to relay ``name``, looked up again if its remembered address fails."""
        desc = self._resolved.get(name)
        if desc is not None:
            with contextlib.suppress(OSError, ValueError):
                return socket.create_connection(parse_address(desc.address), timeout=timeout)
            self._resolved.pop(name, None)
        return socket.create_connection(parse_address(self.lookup(name).address), timeout=timeout)

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
    (other threads read them under it or only through ``len()``), the
    link table and the names being opened. The first send toward a name
    marks it as opening and connects with no lock held; later sends queue
    their cells, which the opening thread writes in order. So concurrent
    sends toward one relay open one connection, and no other link waits
    for a connect. Cells are written outside it, under the link's write lock.
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
        self._opening: dict[str, list[Cell]] = {}  # the cells queued for links being opened
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
        with self._lock:
            if link in self._opening:  # the thread opening it writes the cell
                self._opening[link].append(cell)
                return
            sock, write_lock = self._links.get(link, (None, None))
            if sock is None and isinstance(link, str):  # a lost inbound link stays lost
                self._opening[link] = [cell]
        if sock is not None:
            write_lock.acquire()
            self._write(link, sock, write_lock, [cell])
        elif isinstance(link, str):
            self._open(link)

    def _open(self, name: str) -> None:
        """Connect to relay ``name`` with no lock held, then write the cells
        queued for it in order, or feed the relay DESTROY for each of them."""
        try:
            sock = self.dir_client.connect(name, timeout=10)
            sock.setblocking(True)
        except (OSError, ValueError, OnionKepError):  # as if the next hop refused
            sock = None
        write_lock = threading.Lock()
        with self._lock:
            cells = self._opening.pop(name)
            if sock is not None and self._listener.fileno() == -1:  # stopped meanwhile
                sock.close()
                sock = None
            if sock is None:
                refused = [send for cell in cells
                           for send in self.handle(name, Cell(cell.circ_id, CellCommand.DESTROY))]
            else:
                write_lock.acquire()  # a later cell waits for the queued ones
                self._links[name] = (sock, write_lock)
                _spawn(self._reader, name, sock)
        if sock is not None:
            self._write(name, sock, write_lock, cells)
            return
        for send in refused:
            self._send(send.link, send.cell)

    def _write(self, link: int | str, sock: socket.socket, write_lock: threading.Lock,
               cells: list[Cell]) -> None:
        """Write ``cells`` on ``link`` and release its write lock, which the caller
        holds; no thread waits for one under the relay lock, so a failure may drop the link."""
        try:
            for cell in cells:
                send_frame(sock, encode_cell(cell))
        except (OSError, OnionKepError):
            self._drop_link(link, sock)
        finally:
            write_lock.release()

    def _drop_link(self, link: int | str, sock: socket.socket) -> None:
        """Close ``sock``; forget ``link`` and its circuits if ``sock`` is still its socket."""
        with self._lock:
            if link in self._links and self._links[link][0] is sock:
                del self._links[link]
                self.drop_link(link)
        _close(sock)


# -- circuit client over TCP -------------------------------------------------

class StreamCircuitClient(protocol.Client):
    """The client host; its cells ride the entry node's socket, opened by ``dir_client.connect``."""

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
        self._sock = self.directory.connect(entry, timeout)
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
