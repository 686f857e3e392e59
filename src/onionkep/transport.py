"""Stream transport: length-framed cells over TCP, plus socket-backed
directory service and relay servers. It only moves frames; what a cell or
a directory message means, and what its malformed bytes raise, is decided
by ``onioncrypt``, ``protocol`` and ``directory``.

Frame layout: 4-byte big-endian length || payload, capped at FRAME_MAX;
``FrameReader`` is the one rule that cuts frames from a stream. Each server
runs one ``selectors`` loop on one thread, which alone touches its state, so
no lock guards it; an error on one connection closes that connection alone.
The relay and the blocking client are the hosts of the simulator too."""

from __future__ import annotations

import contextlib
import itertools
import random
import socket
import threading
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector

from . import protocol, tlv
from .directory import Directory, NodeDescriptor, decode_descriptor, encode_descriptor, read_answer
from .errors import FrameTooLarge, NotReady, OnionKepError
from .nikep import KeyPair, SystemParams, params_digest
from .onioncrypt import DESTROY, Cell, decode_cell, encode_cell
from .protocol import CircuitState, Phase, TamperFn

FRAME_MAX = 70_000


def send_frame(sock, data: bytes) -> None:
    """Write one frame with ``sock.sendall``; a server's ``_Link`` queues it."""
    if len(data) > FRAME_MAX:
        raise FrameTooLarge(f"frame of {len(data)} bytes exceeds {FRAME_MAX}")
    sock.sendall(len(data).to_bytes(4, "big") + data)


class FrameReader:
    """Cuts frames from a stream fed in chunks of any size, in time linear in its length."""

    def __init__(self):
        self.buffer = bytearray()  # dropping a prefix of a bytearray costs O(1)

    def wanted(self) -> int:
        """The bytes the next frame, or first its header, lacks: 0 or less once whole;
        raises FrameTooLarge as soon as a header announces more than FRAME_MAX."""
        length = int.from_bytes(self.buffer[:4], "big") if len(self.buffer) >= 4 else 0
        if length > FRAME_MAX:
            raise FrameTooLarge(f"peer announced a {length}-byte frame")
        return 4 + length - len(self.buffer)

    def feed(self, data: bytes) -> list[bytes]:  # the frames data completes, in order
        self.buffer += data
        frames = []
        while (missing := self.wanted()) <= 0:
            end = len(self.buffer) + missing
            frames.append(bytes(self.buffer[4:end]))
            del self.buffer[:end]
        return frames


def recv_frame(sock: socket.socket) -> bytes | None:
    """Read one frame, and no byte past it; returns None on clean EOF."""
    reader = FrameReader()
    while not (frames := reader.feed(chunk := sock.recv(reader.wanted()))):
        if not chunk:
            if not reader.buffer:
                return None
            raise ConnectionError("connection closed mid-frame" if len(reader.buffer) == 4
                                  else "connection closed mid-read")
    return frames[0]


def parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    return host, int(port)


class _Link:
    """A connection: its socket (None while a relay opens it), reader and unwritten bytes."""

    def __init__(self, name: int | str):
        self.name, self.sock, self.reader, self.out = name, None, FrameReader(), bytearray()

    def sendall(self, data: bytes) -> None:  # so that send_frame queues its frame here
        self.out += data


class _Server:
    """One ``selectors`` loop on one thread: accepts connections, keyed 1, 2, ...,
    feeds their frames to ``_frame(link, frame)`` and writes what they queue."""

    def __init__(self, host: str, port: int):
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self.address = "%s:%d" % self._listener.getsockname()[:2]
        self._links: dict[int | str, _Link] = {}
        self._accepted = itertools.count(1)
        self._wake, self._waker = socket.socketpair()
        self._selector = DefaultSelector()
        for sock in (self._listener, self._wake):
            self._selector.register(sock, EVENT_READ)
        self._inbox, self._inbox_lock = [], threading.Lock()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self):
        self._thread.start()
        return self

    def stop(self) -> None:
        """End the loop, started or not; returns once it has closed every socket."""
        with self._inbox_lock:
            self._waker.close()  # the loop reads EOF on _wake
        if self._thread.ident is None:
            self._thread.start()
        self._thread.join()

    def _call(self, fn, *args) -> bool:
        """Have the loop run ``fn(*args)``, from any thread; False once stopped."""
        with self._inbox_lock:
            if live := self._waker.fileno() >= 0:
                self._inbox.append((fn, args))
                self._waker.send(b"\0")
        return live

    def drop_link(self, link: int | str) -> None:
        """Forget what rode on a lost connection: nothing, unless a relay."""

    def _run(self) -> None:
        try:
            while True:
                for key, events in self._selector.select():
                    if key.data is not None:
                        self._serve(key.data, events)
                    elif key.fileobj is self._listener:
                        with contextlib.suppress(OSError):  # the peer gave up, or fds ran out
                            self._add(_Link(next(self._accepted)), self._listener.accept()[0])
                    elif not self._wake.recv(FRAME_MAX):  # EOF: stop() closed the waker
                        return
                    else:
                        with self._inbox_lock:
                            calls, self._inbox = self._inbox, []
                        for fn, args in calls:
                            fn(*args)
        finally:
            for sock in [self._waker, *(key.fileobj for key in self._selector.get_map().values())]:
                sock.close()
            self._selector.close()

    def _add(self, link: _Link, sock: socket.socket) -> None:
        """Serve ``link`` on ``sock``, and write what it has queued."""
        sock.setblocking(False)
        link.sock, self._links[link.name] = sock, link
        self._selector.register(sock, EVENT_READ, link)
        self._flush(link)

    def _serve(self, link: _Link, events: int) -> None:
        """Write what ``link``'s socket takes, or serve the frames it carries."""
        if events & EVENT_WRITE:
            return self._flush(link, watched=True)  # a waiting read is served on the next select
        try:
            if not (data := link.sock.recv(FRAME_MAX)):
                return self._drop(link)  # EOF
            for frame in link.reader.feed(data):
                if self._links.get(link.name) is not link:  # dropped by an earlier frame
                    return
                self._frame(link, frame)
        except (OSError, OnionKepError):
            self._drop(link)

    def _flush(self, link: _Link, data: bytes | None = None, watched: bool = False) -> None:
        """Queue a frame of ``data``, if any; write what fits; watch for room while any is left."""
        if data is not None:
            send_frame(link, data)
        if link.sock is None:
            return
        try:
            del link.out[:link.sock.send(link.out)]
        except BlockingIOError:
            pass
        except OSError:
            return self._drop(link)
        if link.out or watched:  # start watching for room, or stop once it is not needed
            self._selector.modify(link.sock, EVENT_READ | EVENT_WRITE * bool(link.out), link)

    def _drop(self, link: _Link) -> None:
        """Close ``link``'s socket and forget the link, once."""
        if self._links.get(link.name) is link:
            del self._links[link.name]
            self._selector.unregister(link.sock)
            link.sock.close()
            self.drop_link(link.name)


class DirectoryServer(_Server):
    """Answers register and lookup request frames with ``Directory.answer``."""

    def __init__(self, directory: Directory, host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port)
        self.directory = directory

    def _frame(self, link: _Link, request: bytes) -> None:
        self._flush(link, self.directory.answer(request))


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
class NodeServer(protocol.Relay, _Server):
    """One relay process: registers itself, then serves circuit traffic. Its
    inbound links are keyed by accept number, an int, which no EXTEND name can
    reach. A link to a relay opens on a short-lived thread, stalling no other
    circuit, while its buffer queues the cells sent; a failed open feeds the
    relay DESTROY from it for each. A lost link's circuits are forgotten here only."""

    def __init__(self, name: str, params: SystemParams, keypair: KeyPair,
                 dir_client: DirectoryClient, host: str = "127.0.0.1", port: int = 0):
        protocol.Relay.__init__(self, name, params, keypair)
        _Server.__init__(self, host, port)
        self.dir_client = dir_client

    def start(self) -> "NodeServer":
        self.dir_client.register(NodeDescriptor(self.name, self.address, self.state.keypair.public,
                                                params_digest(self.state.params)))
        return super().start()

    def _frame(self, link: _Link, frame: bytes) -> None:
        self._send(self.handle(link.name, decode_cell(frame)))

    def _send(self, sends: list[protocol.SendCell]) -> None:
        """Queue each cell on its link, first opening a link to a relay where none stands."""
        for send in sends:
            link = self._links.get(send.link)
            if link is None and isinstance(send.link, str):  # a lost inbound link stays lost
                link = self._links[send.link] = _Link(send.link)
                threading.Thread(target=self._open, args=(send.link,), daemon=True).start()
            if link is not None:
                self._flush(link, encode_cell(send.cell))

    def _open(self, name: str) -> None:
        """Connect to relay ``name``, off the loop, and hand the loop the socket or None."""
        try:
            sock = self.dir_client.connect(name, timeout=10)
        except (OSError, ValueError, OnionKepError):  # as if the next hop refused
            sock = None
        if not self._call(self._opened, name, sock) and sock is not None:
            sock.close()  # stopped meanwhile

    def _opened(self, name: str, sock: socket.socket | None) -> None:
        """Give link ``name`` its socket, or fail each cell queued on it."""
        if sock is not None:
            return self._add(self._links[name], sock)
        for frame in FrameReader().feed(self._links.pop(name).out):
            self._send(self.handle(name, Cell(decode_cell(frame).circ_id, DESTROY)))


# -- circuit client over TCP -------------------------------------------------
class StreamCircuitClient(protocol.Client):
    """The blocking client host; its cells ride the socket ``dir_client.connect`` opens."""

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
