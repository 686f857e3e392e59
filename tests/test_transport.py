"""TCP transport: framing, directory service, live three-hop circuits."""

import contextlib
import itertools
import random
import select
import socket
import statistics
import sys
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from onionkep import (
    Cell,
    CellCommand,
    decode_cell,
    encode_cell,
    gen_keypair,
    gen_params,
    keypair_from_secrets,
    params_digest,
)
from onionkep import nikep, tlv
from onionkep.cli import _corrupt_first_created
from onionkep.directory import Directory, NodeDescriptor, encode_descriptor
from onionkep.errors import (
    DuplicateName,
    FrameTooLarge,
    MalformedKeyFile,
    NotFound,
    NotReady,
    ParamsMismatch,
)
from onionkep.onioncrypt import MAX_CIRC_ID
from onionkep.protocol import Phase, SendCell
from onionkep.simnet import build_simulation, run_build, run_send
from onionkep.transport import (
    FRAME_MAX,
    DirectoryClient,
    DirectoryServer,
    FrameReader,
    NodeServer,
    StreamCircuitClient,
    parse_address,
    recv_frame,
    send_frame,
)
from conftest import (
    MALFORMED_ANSWERS,
    built_tables,
    fake_directory,
    on_loop,
    raw_extend_cell,
    session_keys,
)


def hang_up(request):
    """A ``fake_directory`` answer that closes the connection unanswered."""
    raise ConnectionAbortedError("no answer")


def eventually(predicate, seconds=5.0):
    """Poll ``predicate`` until it holds or ``seconds`` pass; its last value."""
    deadline = time.monotonic() + seconds
    while not (value := predicate()) and time.monotonic() < deadline:
        time.sleep(0.01)
    return value


def wait_until_empty(nodes, seconds=5.0):
    """Wait until no relay of ``nodes`` holds an entry, or ``seconds`` pass."""
    eventually(lambda: not any(node.state.entries for node in nodes), seconds)


def send_from(relay, link, cell) -> None:
    """Have ``relay``'s loop send ``cell`` on ``link``, from any thread."""
    assert relay._call(relay._send, [SendCell(link, cell)])


def framed(frames) -> bytes:
    return b"".join(len(frame).to_bytes(4, "big") + frame for frame in frames)


def socket_pair():
    """Two connected TCP sockets whose reads give up after 2 s, so that a
    reader waiting for bytes that never come fails instead of hanging."""
    server = socket.create_server(("127.0.0.1", 0))
    client = socket.create_connection(server.getsockname(), timeout=2.0)
    peer, _ = server.accept()
    peer.settimeout(2.0)
    server.close()
    return client, peer


class TestFraming:
    def test_round_trip(self):
        a, b = socket_pair()
        try:
            for payload in (b"", b"x", b"hello" * 100):
                send_frame(a, payload)
                assert recv_frame(b) == payload
        finally:
            a.close(); b.close()

    def test_clean_eof(self):
        a, b = socket.socketpair()
        a.close()
        with b:
            assert recv_frame(b) is None

    def test_eof_after_header(self):
        a, b = socket.socketpair()
        a.sendall((10).to_bytes(4, "big"))
        a.close()
        with b, pytest.raises(ConnectionError, match="connection closed mid-frame"):
            recv_frame(b)

    def test_mid_frame_eof(self):
        a, b = socket.socketpair()
        a.sendall((10).to_bytes(4, "big") + b"abc")
        a.close()
        with b, pytest.raises(ConnectionError, match="connection closed mid-read"):
            recv_frame(b)

    def test_oversize_send_rejected(self):
        a, b = socket_pair()
        try:
            with pytest.raises(FrameTooLarge):
                send_frame(a, b"\x00" * 70_001)
        finally:
            a.close(); b.close()

    def test_oversize_announcement_rejected(self):
        a, b = socket_pair()
        a.sendall((1 << 24).to_bytes(4, "big"))
        try:
            with pytest.raises(FrameTooLarge):
                recv_frame(b)
        finally:
            a.close(); b.close()

    def test_parse_address(self):
        assert parse_address("127.0.0.1:9001") == ("127.0.0.1", 9001)

    def test_reassembly_cost_is_linear(self):
        # A peer sending one byte per recv makes the reader take the most
        # pieces. Across one frame of FRAME_MAX bytes, the last eighth may
        # cost at most 1.5 times the first, in this thread's CPU time: a
        # linear reader reads about 1, and an immutable buffer, copied whole
        # for each piece, about 2.5 (Python 3.11, 2-CPU host). The median of
        # 5 frames is checked, so a slow spell of a shared host spoils only
        # its frames.
        class Trickle:
            def __init__(self, data, marks):
                self.data, self.at, self.marks, self.times = data, 0, marks, []

            def recv(self, count):
                if self.at in self.marks:
                    self.times.append(time.thread_time())
                self.at += 1
                return self.data[self.at - 1 : self.at]

        eighth = FRAME_MAX // 8
        ratios = []
        for _ in range(5):
            sock = Trickle(FRAME_MAX.to_bytes(4, "big") + bytes(FRAME_MAX),
                           {4, 4 + eighth, 4 + FRAME_MAX - eighth})
            frame, end = recv_frame(sock), time.thread_time()
            assert frame == bytes(FRAME_MAX)
            first_start, first_end, last_start = sock.times
            ratios.append((end - last_start) / (first_end - first_start))
        assert statistics.median(ratios) < 1.5


FRAMES = st.lists(st.binary(max_size=300), max_size=8)


class TestFrameReader:
    @given(frames=FRAMES, data=st.data())
    def test_any_split_yields_the_frames_of_one_feed(self, frames, data):
        # After each feed the reader holds only the stream's incomplete tail.
        stream = framed(frames)
        ends = [0, *itertools.accumulate(4 + len(frame) for frame in frames)]
        cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=12)))
        reader = FrameReader()
        got = []
        for start, end in zip([0, *cuts], [*cuts, len(stream)]):
            got += reader.feed(stream[start:end])
            assert reader.buffer == stream[max(e for e in ends if e <= end):end]
        assert got == FrameReader().feed(stream) == frames
        assert reader.buffer == b"" and reader.wanted() == 4

    @given(frames=FRAMES, length=st.integers(FRAME_MAX + 1, 2**32 - 1))
    def test_oversize_announcement_raises_when_its_header_is_whole(self, frames, length):
        # Every frame before it is returned; the header's fourth byte raises,
        # with no payload byte awaited.
        stream = framed(frames) + length.to_bytes(4, "big")
        reader = FrameReader()
        assert reader.feed(stream[:-1]) == frames
        with pytest.raises(FrameTooLarge, match=f"peer announced a {length}-byte frame"):
            reader.feed(stream[-1:])

    def test_cutting_cost_is_linear(self):
        # Many small frames fed as one chunk make the reader cut the most
        # frames from one buffer. 8 times as many may cost at most 12 times
        # as much, best of 5 in this thread's CPU time; a cut that copies
        # the rest of the buffer cost about 30 times. The two sizes take
        # turns, so that a slow spell of a shared host slows both.
        counts = (2_000, 16_000)
        streams = [framed([bytes(16)] * count) for count in counts]
        best = [float("inf")] * 2
        for _ in range(5):
            for i, stream in enumerate(streams):
                start = time.thread_time()
                frames = FrameReader().feed(stream)
                best[i] = min(best[i], time.thread_time() - start)
                assert len(frames) == counts[i]
        assert best[1] < 12 * best[0]

    def test_frame_max_is_accepted(self):
        reader = FrameReader()
        assert reader.feed(FRAME_MAX.to_bytes(4, "big")) == []
        assert reader.wanted() == FRAME_MAX
        assert reader.feed(bytes(FRAME_MAX)) == [bytes(FRAME_MAX)]

    @given(frames=FRAMES, sizes=st.lists(st.integers(1, 40)))
    def test_recv_frame_over_a_trickling_socket(self, frames, sizes):
        # recv hands out at most the drawn sizes, one byte once they run out;
        # recv_frame returns each frame and never reads into the next one.
        class Trickle:
            def __init__(self, data):
                self.data, self.at = data, 0

            def recv(self, count):
                size = min(count, sizes.pop(0) if sizes else 1)
                self.at += size
                return self.data[self.at - size:self.at]

        sock = Trickle(framed(frames))
        assert [recv_frame(sock) for _ in frames] == frames
        assert recv_frame(sock) is None


@pytest.fixture(scope="module")
def toy_world():
    params = gen_params(4, random.Random(1))  # r = 11
    return params, params_digest(params)


@pytest.fixture
def dir_server(toy_world):
    _, digest = toy_world
    server = DirectoryServer(Directory(digest)).start()
    yield server
    server.stop()


class TestDirectoryOverTcp:
    def test_stop_returns_once_every_socket_is_closed(self, toy_world):
        # stop() ends the loop and returns once it has closed the listener
        # and every connection. It runs on a daemon thread here, so that a
        # stop that never returns fails this test instead of hanging it.
        server = DirectoryServer(Directory(toy_world[1])).start()
        with socket.create_connection(parse_address(server.address), timeout=5) as conn:
            send_frame(conn, tlv.encode_record(tlv.TAG_DIR_LOOKUP, b"B"))
            assert recv_frame(conn) == tlv.encode_record(tlv.TAG_STATUS, bytes([1]))
            stopper = threading.Thread(target=server.stop, daemon=True)
            stopper.start()
            stopper.join(timeout=5)
            assert not stopper.is_alive()
            assert conn.recv(1) == b""
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(parse_address(server.address), timeout=2).close()

    def test_servers_take_a_free_port_by_default(self, toy_world, dir_server):
        # Port 0 asks the system for a free port, so two servers listen side
        # by side. A server stopped before it started closes its sockets too.
        other = DirectoryServer(Directory(toy_world[1]))
        try:
            assert other.address != dir_server.address
        finally:
            other.stop()

    def test_register_lookup_list(self, toy_world, dir_server):
        # A name not found is not remembered: it resolves once registered.
        params, digest = toy_world
        client = DirectoryClient(dir_server.address)
        with pytest.raises(NotFound):
            client.lookup("B")
        pair = keypair_from_secrets(params, 3, 13)
        desc = NodeDescriptor(name="B", address="127.0.0.1:9001",
                              public=pair.public, params_digest=digest)
        DirectoryClient(dir_server.address).register(desc)
        assert client.lookup("B") == desc
        assert dir_server.directory.list() == [desc]

    def test_lookup_missing_maps_status(self, dir_server):
        with pytest.raises(NotFound):
            DirectoryClient(dir_server.address).lookup("ghost")

    def test_duplicate_and_mismatch_statuses(self, toy_world, dir_server):
        params, digest = toy_world
        client = DirectoryClient(dir_server.address)
        client.register(NodeDescriptor(
            name="B", address="a", public=keypair_from_secrets(params, 3, 13).public,
            params_digest=digest))
        with pytest.raises(DuplicateName):
            client.register(NodeDescriptor(
                name="B", address="b",
                public=keypair_from_secrets(params, 5, 15).public,
                params_digest=digest))
        with pytest.raises(ParamsMismatch):
            client.register(NodeDescriptor(
                name="C", address="c",
                public=keypair_from_secrets(params, 5, 15).public,
                params_digest=b"\x00" * 32))

    @pytest.mark.parametrize("descriptors", [0, 2])
    def test_register_of_not_one_descriptor_keeps_the_connection(
            self, toy_world, dir_server, descriptors):
        # A REGISTER must carry exactly one descriptor. Any other count is
        # answered with a failure status, and the same connection still
        # serves the next request.
        params, digest = toy_world
        desc = NodeDescriptor(name="B", address="a",
                              public=keypair_from_secrets(params, 3, 13).public,
                              params_digest=digest)
        DirectoryClient(dir_server.address).register(desc)
        value = encode_descriptor(desc) * descriptors
        with socket.create_connection(parse_address(dir_server.address), timeout=10) as sock:
            send_frame(sock, tlv.encode_record(tlv.TAG_DIR_REGISTER, value))
            assert recv_frame(sock) == tlv.encode_record(tlv.TAG_STATUS, bytes([255]))
            send_frame(sock, tlv.encode_record(tlv.TAG_DIR_LOOKUP, b"B"))
            assert recv_frame(sock) == (tlv.encode_record(tlv.TAG_STATUS, bytes([0]))
                                        + encode_descriptor(desc))

    @pytest.mark.parametrize("answer", MALFORMED_ANSWERS.values(), ids=MALFORMED_ANSWERS)
    def test_malformed_lookup_answer_raises_malformed_key_file(self, answer):
        with fake_directory(lambda request: answer) as address:
            with pytest.raises(MalformedKeyFile):
                DirectoryClient(address).lookup("B")

    def test_concurrent_clients(self, toy_world, dir_server):
        params, digest = toy_world
        errors = []

        def worker(i):
            try:
                client = DirectoryClient(dir_server.address)
                pair = keypair_from_secrets(params, 2 + i, 13)
                client.register(NodeDescriptor(name=f"N{i}", address=f"a{i}",
                                               public=pair.public,
                                               params_digest=digest))
                client.lookup(f"N{i}")
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        client = DirectoryClient(dir_server.address)
        assert [client.lookup(f"N{i}").address for i in range(8)] == [f"a{i}" for i in range(8)]

    def test_directory_closing_without_an_answer(self):
        with fake_directory(hang_up) as address, pytest.raises(
                ConnectionError, match="directory closed the connection"):
            DirectoryClient(address).lookup("B")

    def test_stopped_servers_refuse_connections(self, toy_world):
        # stop() must end the accept loop: a thread left blocked in accept()
        # would keep the old listener open and accept on its port.
        params, digest = toy_world
        dir_server = DirectoryServer(Directory(digest)).start()
        node = NodeServer("B", params, keypair_from_secrets(params, 3, 13),
                          DirectoryClient(dir_server.address)).start()
        for server in (node, dir_server):
            server.stop()
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(parse_address(server.address), timeout=2).close()


@pytest.fixture
def live_network():
    rng = random.Random(31337)
    params = gen_params(16, rng)
    dir_server = DirectoryServer(Directory(params_digest(params))).start()
    dir_client = DirectoryClient(dir_server.address)
    nodes = [NodeServer(name, params, gen_keypair(params, rng), dir_client).start()
             for name in ("B", "C", "D")]
    yield params, dir_client, nodes, rng
    for node in nodes:
        node.stop()
    dir_server.stop()


class TestLiveCircuit:
    def test_three_hop_build_and_data(self, live_network):
        params, dir_client, nodes, rng = live_network
        client = StreamCircuitClient(params, dir_client, rng)
        try:
            state = client.build(["B", "C", "D"])
            assert state.phase == Phase.READY
            assert len(state.hops) == 3
            for size in (0, 1, 100, 4096):
                payload = rng.randbytes(size)
                assert client.send_data(1, payload) == payload
            exit_node = nodes[2]
            assert [d for _, d in exit_node.delivered][0] is not None
            assert nodes[0].delivered == [] and nodes[1].delivered == []
        finally:
            client.close()

    def test_corrupted_created_fails_closed(self, live_network):
        params, dir_client, nodes, rng = live_network
        seen = []

        def tamper(src, dst, cell):
            # Flip one bit of the first response, the entry hop's CREATED.
            seen.append((src, dst, cell.command))
            if len(seen) > 1:
                return cell
            return Cell(cell.circ_id, cell.command,
                        bytes([cell.payload[0] ^ 0x01]) + cell.payload[1:])

        client = StreamCircuitClient(params, dir_client, rng)
        try:
            state = client.build(["B", "C", "D"], tamper=tamper)
            assert state.phase == Phase.FAILED
            assert "CircuitIntegrityFailure" in (state.failure or "")
            assert seen == [("B", "A", CellCommand.CREATED)]
            # The client's DESTROY, not its closing socket, frees B.
            wait_until_empty(nodes[:1])
            assert not nodes[0].state.entries
        finally:
            client.close()

    def test_descriptor_under_other_parameters_is_refused(self, live_network):
        # The relays run other parameters than the client: it must refuse B's
        # descriptor before it draws a key or opens a connection.
        _, dir_client, _, _ = live_network
        rng = random.Random(1)
        client = StreamCircuitClient(gen_params(32, random.Random(2)), dir_client, rng)
        state = rng.getstate()
        try:
            with pytest.raises(ParamsMismatch,
                               match="^descriptor for B uses foreign parameters$"):
                client.build(["B", "C", "D"], timeout=2.0)
            assert (rng.getstate(), client._sock, client.state) == (state, None, None)
        finally:
            client.close()

    def test_send_after_destroy_fails_at_once(self, live_network):
        # A junk RELAY cell makes B destroy the circuit; the DESTROY waits
        # unread on the client socket. send_data must fail on reading it,
        # not wait out the socket timeout.
        params, dir_client, _, rng = live_network
        client = StreamCircuitClient(params, dir_client, rng)
        try:
            state = client.build(["B", "C", "D"], timeout=2.0)
            assert state.phase == Phase.READY
            send_frame(client._sock, encode_cell(Cell(state.circ_id, CellCommand.RELAY,
                                                       b"junk")))
            with pytest.raises(NotReady, match="destroyed by relay"):
                client.send_data(1, b"after destroy")
        finally:
            client.close()

    def test_relay_ids_wrap_below_2_32(self, live_network):
        # B's EXTEND ids run to MAX_CIRC_ID and wrap to 1. An id past it
        # made encode_cell raise struct.error, which ended B's loop thread.
        params, dir_client, nodes, rng = live_network
        relay, moved = nodes[0], threading.Event()

        def move():
            relay.state = replace(relay.state, circ_seq=MAX_CIRC_ID - 1)
            moved.set()
        assert relay._call(move) and moved.wait(5)
        clients = [StreamCircuitClient(params, dir_client, rng) for _ in range(10)]
        try:
            for client in clients:
                assert client.build(["B", "C", "D"], timeout=5.0).phase == Phase.READY
            assert relay._thread.is_alive()
        finally:
            for client in clients:
                client.close()

    def test_second_build_closes_the_first_link(self, live_network):
        params, dir_client, _, rng = live_network
        client = StreamCircuitClient(params, dir_client, rng)
        try:
            assert client.build(["B", "C", "D"], timeout=2.0).phase == Phase.READY
            first = client._sock
            state = client.build(["B", "C", "D"], circ_id=2, timeout=2.0)
            assert first.fileno() == -1
            assert state.phase == Phase.READY
        finally:
            client.close()


class TestRuntimesAgree:
    # One seeded client, relays with the same keypairs: the two runtimes
    # must drive the same build, byte for byte.
    @staticmethod
    @contextlib.contextmanager
    def tcp_twin(sim_client, sim_nodes, rng_state):
        """Relays over TCP with the simulated relays' keypairs, and a client
        whose rng starts at ``rng_state``: yields (client, relays by name)."""
        params = sim_client.params
        dir_server = DirectoryServer(Directory(params_digest(params))).start()
        dir_client = DirectoryClient(dir_server.address)
        nodes = {name: NodeServer(name, params, sim_node.state.keypair, dir_client).start()
                 for name, sim_node in sim_nodes.items()}
        rng = random.Random()
        rng.setstate(rng_state)
        client = StreamCircuitClient(params, dir_client, rng)
        try:
            yield client, nodes
        finally:
            client.close()
            for node in nodes.values():
                node.stop()
            dir_server.stop()

    def test_simulator_and_tcp_build_agree(self):
        sim, sim_client, sim_nodes = build_simulation(32, 11)
        rng_state = sim_client.rng.getstate()
        sim_state = run_build(sim, sim_client, ["B", "C", "D"])
        run_send(sim, sim_client, 1, b"same bytes")
        assert sim_state.phase == Phase.READY
        with self.tcp_twin(sim_client, sim_nodes, rng_state) as (client, nodes):
            assert client.build(["B", "C", "D"], timeout=10.0) == sim_state
            assert client.send_data(1, b"same bytes") == sim_client.received[-1][1]
            for name, node in nodes.items():
                assert session_keys(node) == session_keys(sim_nodes[name])

    def test_corrupted_created_fails_both_and_frees_every_relay(self):
        # The hook of ``client --corrupt-created``: the client fails the
        # build and DESTROYs it at B, so no relay keeps an entry.
        sim, sim_client, sim_nodes = build_simulation(32, 11)
        rng_state = sim_client.rng.getstate()
        sim.tamper = _corrupt_first_created()
        sim_state = run_build(sim, sim_client, ["B", "C", "D"])
        assert sim_state.phase == Phase.FAILED
        assert [len(node.state.entries) for node in sim_nodes.values()] == [0, 0, 0]
        with self.tcp_twin(sim_client, sim_nodes, rng_state) as (client, nodes):
            assert client.build(["B", "C", "D"], timeout=10.0,
                                tamper=_corrupt_first_created()) == sim_state
            wait_until_empty(nodes.values())
            assert [len(node.state.entries) for node in nodes.values()] == [0, 0, 0]

    def test_relay_extending_to_itself_fails_on_both(self):
        # B refuses [B, B] on both runtimes; over TCP it neither keeps an
        # entry nor dials its own listener.
        sim, sim_client, sim_nodes = build_simulation(32, 11)
        rng_state = sim_client.rng.getstate()
        sim_state = run_build(sim, sim_client, ["B", "B"])
        assert (sim_state.phase, sim_state.failure) == (Phase.FAILED, "destroyed by relay")
        with self.tcp_twin(sim_client, sim_nodes, rng_state) as (client, nodes):
            assert client.build(["B", "B"], timeout=10.0) == sim_state
            for name, node in nodes.items():
                assert session_keys(node) == session_keys(sim_nodes[name]) == []
            assert list(nodes["B"]._links) == [1]


class TestMixTables:
    PATH = ["B", "C", "D"]

    def test_tcp_builds_reuse_the_tables(self, live_network, monkeypatch):
        params, dir_client, nodes, rng = live_network
        relay_keys = {node.state.keypair.public for node in nodes}
        reads, paths = [], []
        table_pow = nikep._table_pow

        def recording_table_pow(rows, x, r):
            if rows is not params._p_table:
                reads.append(rows)
            return table_pow(rows, x, r)

        monkeypatch.setattr(nikep, "_table_pow", recording_table_pow)
        for i in range(4):
            client = StreamCircuitClient(params, dir_client, rng)
            try:
                assert client.build(self.PATH, timeout=10.0).phase == Phase.READY
            finally:
                client.close()
            paths.append(client.path)
            if i == 1:
                tables = built_tables(params)
        # The client's three mixes of every build from the second on read a
        # table; the relays' mixes never do.
        assert len(reads) == 9
        assert all(any(rows is t for t in tables.values()) for rows in reads)
        assert built_tables(params).keys() == relay_keys
        assert all(built_tables(params)[pub] is rows for pub, rows in tables.items())
        # Tables are keyed by value: an equal constructor that a second
        # directory client decodes reads the same table.
        fresh = DirectoryClient(dir_client.address).lookup("B").public
        assert fresh == paths[3][0].public and fresh is not paths[3][0].public
        assert built_tables(params)[fresh] is tables[paths[3][0].public]

    def test_concurrent_clients_build_equal_tables(self, live_network, monkeypatch):
        params, dir_client, nodes, _ = live_network
        built = []
        build_table = nikep._fixed_base_table

        def recording_build(base, r):
            rows = build_table(base, r)
            built.append((base, rows))
            return rows

        monkeypatch.setattr(nikep, "_fixed_base_table", recording_build)
        phases, errors = [], []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(3):
                client = StreamCircuitClient(params, dir_client, rng)
                try:
                    phases.append(client.build(self.PATH, timeout=10.0).phase)
                except Exception as exc:  # reported below
                    errors.append(exc)
                finally:
                    client.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert phases == [Phase.READY] * 12
        tables = built_tables(params)
        assert tables.keys() == {node.state.keypair.public for node in nodes}
        # Duplicate builds may happen; every one of a base must be equal.
        for base, rows in built:
            assert [t for b, t in built if b == base][0] == rows
        r = params.r
        for pub, rows in tables.items():
            assert rows == build_table(pub.P * pow(pub.Q, -1, r) % r, r)


class TestRememberedDescriptors:
    PATH = ["B", "C", "D"]

    def test_each_further_build_opens_only_its_entry_link(self, live_network, monkeypatch):
        # The client and the relays share one directory client. After the
        # first build, the descriptors come from its memory and the relay
        # links stand, so a build connects once, to its entry relay.
        params, dir_client, nodes, rng = live_network
        real_connect = socket.create_connection
        opened = []

        def counting_connect(address, *args, **kwargs):
            opened.append("%s:%d" % address[:2])
            return real_connect(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting_connect)
        client = StreamCircuitClient(params, dir_client, rng)
        try:
            assert client.build(self.PATH, timeout=2.0).phase == Phase.READY
            for _ in range(3):
                opened.clear()
                assert client.build(self.PATH, timeout=2.0).phase == Phase.READY
                assert opened == [nodes[0].address]
        finally:
            client.close()

    @pytest.mark.parametrize("moved", [0, 2], ids=["entry", "next-hop"])
    def test_relay_restarted_on_a_new_port_is_reached(self, live_network, moved):
        # B or D restarts under its key on a new port. The directory client
        # remembers its old address, which refuses: the client (for B) or C
        # (for D) looks the name up once more, and the next build succeeds.
        params, dir_client, nodes, rng = live_network
        client = StreamCircuitClient(params, dir_client, rng)
        try:
            assert client.build(self.PATH, timeout=2.0).phase == Phase.READY
            old = nodes[moved]
            old.stop()
            deadline = time.monotonic() + 5.0
            while any(old.name in node._links for node in nodes) and time.monotonic() < deadline:
                time.sleep(0.01)
            new = NodeServer(old.name, params, old.state.keypair, dir_client).start()
            nodes.append(new)
            assert new.address != old.address
            assert dir_client.lookup(old.name).address == old.address
            assert client.build(self.PATH, timeout=2.0).phase == Phase.READY
            assert client.send_data(1, b"moved") == b"moved"
            assert dir_client.lookup(old.name).address == new.address
        finally:
            client.close()


class TestRelayLinks:
    def test_concurrent_sends_open_one_connection(self, live_network, monkeypatch):
        # Eight cells for C leave B at once. Each connect toward C waits up
        # to a second for a second connect to arrive; B must open one link
        # to C, not one per cell (a later one would replace the first, and C
        # would see the circuit's later cells on a link it does not know).
        _, _, nodes, _ = live_network
        b, c = nodes[0], nodes[1]
        real_connect = socket.create_connection
        opened = []
        both = threading.Barrier(2)

        def slow_connect(address, *args, **kwargs):
            if "%s:%d" % address == c.address:
                opened.append(address)
                try:
                    both.wait(timeout=1.0)
                except threading.BrokenBarrierError:
                    pass
            return real_connect(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", slow_connect)
        cell = Cell(9, CellCommand.DESTROY)
        senders = [threading.Thread(target=send_from, args=(b, "C", cell)) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in senders:
                t.start()
            for t in senders:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in senders)
        assert eventually(lambda: on_loop(b, lambda: b._links["C"].sock is not None))
        assert len(opened) == 1
        assert on_loop(b, lambda: list(b._links)) == ["C"]

    def test_an_open_stalls_no_other_circuit(self, live_network, monkeypatch):
        # B's connect toward E is held for 2 s. An echo on a READY circuit
        # through B must still come back within 1 s: B holds no lock while
        # it connects.
        params, dir_client, nodes, rng = live_network
        nodes.append(NodeServer("E", params, gen_keypair(params, rng), dir_client).start())
        e_address = nodes[-1].address
        real_connect = socket.create_connection
        connecting = threading.Event()

        def slow_connect(address, *args, **kwargs):
            if "%s:%d" % address[:2] == e_address:
                connecting.set()
                time.sleep(2.0)
            return real_connect(address, *args, **kwargs)

        bystander = StreamCircuitClient(params, dir_client, rng)
        client = StreamCircuitClient(params, dir_client, rng)
        phases = []
        builder = threading.Thread(
            target=lambda: phases.append(client.build(["B", "E"], timeout=5.0).phase))
        try:
            assert bystander.build(["B", "C", "D"], timeout=5.0).phase == Phase.READY
            monkeypatch.setattr(socket, "create_connection", slow_connect)
            builder.start()
            try:
                assert connecting.wait(timeout=5.0)
                start = time.monotonic()
                assert bystander.send_data(1, b"not stalled") == b"not stalled"
                elapsed = time.monotonic() - start
            finally:
                builder.join(timeout=10)
            assert elapsed < 1.0
            assert phases == [Phase.READY]
        finally:
            bystander.close()
            client.close()

    def test_cells_sent_during_an_open_arrive_in_order(self, live_network, monkeypatch):
        # B's connect toward X is held while seven more cells for X are
        # sent. B's loop queues each at once, and X then reads all eight in
        # the order sent, then a cell sent after the open.
        params, dir_client, nodes, _ = live_network
        b = nodes[0]
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5.0)
        address = "%s:%d" % listener.getsockname()[:2]
        dir_client.register(NodeDescriptor(name="X", address=address,
                                           public=gen_keypair(params, random.Random(5)).public,
                                           params_digest=params_digest(params)))
        real_connect = socket.create_connection
        connecting, release = threading.Event(), threading.Event()

        def held_connect(to, *args, **kwargs):
            if "%s:%d" % to[:2] == address:
                connecting.set()
                release.wait(timeout=5.0)
            return real_connect(to, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", held_connect)
        cells = [Cell(i, CellCommand.RELAY, bytes([i])) for i in range(9)]
        send_from(b, "X", cells[0])
        try:
            assert connecting.wait(timeout=5.0)
            start = time.monotonic()
            for cell in cells[1:8]:
                send_from(b, "X", cell)
            assert on_loop(b, lambda: b._links["X"].sock) is None
            assert time.monotonic() - start < 1.0
            release.set()
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5.0)
                send_from(b, "X", cells[8])
                got = [decode_cell(recv_frame(conn)) for _ in cells]
        finally:
            release.set()
            listener.close()
        assert got == cells

    def test_stop_during_an_open_keeps_no_link(self, live_network, monkeypatch):
        # B is stopped while its connect toward C is held: the connection
        # that then succeeds must be closed, not kept as a link of B.
        _, _, nodes, _ = live_network
        b, c = nodes[0], nodes[1]
        real_connect = socket.create_connection
        connecting, release = threading.Event(), threading.Event()
        made = []

        def held_connect(address, *args, **kwargs):
            if "%s:%d" % address[:2] != c.address:
                return real_connect(address, *args, **kwargs)
            connecting.set()
            release.wait(timeout=5.0)
            made.append(real_connect(address, *args, **kwargs))
            return made[-1]

        monkeypatch.setattr(socket, "create_connection", held_connect)
        send_from(b, "C", Cell(9, CellCommand.DESTROY))
        try:
            assert connecting.wait(timeout=5.0)
            b.stop()
        finally:
            release.set()
        assert eventually(lambda: made and made[0].fileno() == -1)
        assert b._links["C"].sock is None

    def test_concurrent_large_sends_arrive_whole(self, live_network, monkeypatch):
        # Eight threads send 60 KB cells on one link through a 4 KB send
        # buffer, so each frame takes many partial writes; every frame must
        # still arrive whole, none cut into by another.
        params, dir_client, nodes, _ = live_network
        b = nodes[0]
        listener = socket.create_server(("127.0.0.1", 0))
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        dir_client.register(NodeDescriptor(
            name="X", address="%s:%d" % listener.getsockname()[:2],
            public=gen_keypair(params, random.Random(5)).public,
            params_digest=params_digest(params)))
        real_connect = socket.create_connection

        def small_buffer_connect(*args, **kwargs):
            sock = real_connect(*args, **kwargs)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            return sock

        monkeypatch.setattr(socket, "create_connection", small_buffer_connect)
        cells = [Cell(i, CellCommand.RELAY, bytes([i]) * 60_000) for i in range(8)]
        senders = [threading.Thread(target=send_from, args=(b, "X", cell)) for cell in cells]
        for t in senders:
            t.start()
        try:
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5.0)
                got = [decode_cell(recv_frame(conn)) for _ in cells]
        finally:
            listener.close()
            for t in senders:
                t.join(timeout=10)
        assert not any(t.is_alive() for t in senders)
        assert sorted(got, key=lambda cell: cell.circ_id) == cells


class TestLinkFailures:
    def test_entry_relay_closing_ends_the_build(self, toy_world, dir_server):
        # The entry relay reads the CREATE and hangs up: the build fails
        # with that, not with a wait for a cell.
        params, digest = toy_world
        dir_client = DirectoryClient(dir_server.address)
        client = StreamCircuitClient(params, dir_client, random.Random(1))
        with fake_directory(hang_up) as address:
            dir_client.register(NodeDescriptor("B", address, keypair_from_secrets(
                params, 3, 13).public, digest))
            try:
                with pytest.raises(ConnectionError, match="entry node closed the connection"):
                    client.build(["B"], timeout=2.0)
            finally:
                client.close()

    def test_write_failure_drops_the_link_and_its_circuits(self, live_network, monkeypatch):
        # B fails to write the echo toward the client: B forgets that link
        # and its circuit and closes the socket, so the client reads EOF.
        # The relay loop writes with socket.send, the client with sendall.
        params, dir_client, nodes, rng = live_network
        b = nodes[0]
        client = StreamCircuitClient(params, dir_client, rng)

        def failing_send(sock, *args):
            raise BrokenPipeError("write failed")

        try:
            assert client.build(["B"], timeout=2.0).phase == Phase.READY
            monkeypatch.setattr(socket.socket, "send", failing_send)
            with pytest.raises(ConnectionError, match="entry node closed the connection"):
                client.send_data(1, b"echo me")
            monkeypatch.undo()
            assert on_loop(b, lambda: (dict(b.state.entries), dict(b._links))) == ({}, {})
        finally:
            client.close()

    def _extend_from_c(self, live_network, name: bytes):
        """A bystander circuit B->C->D that echoes, and a second client's
        circuit B->C that C is asked to extend toward ``name``."""
        params, dir_client, _, rng = live_network
        bystander = StreamCircuitClient(params, dir_client, rng)
        client = StreamCircuitClient(params, dir_client, rng)
        assert bystander.build(["B", "C", "D"], timeout=2.0).phase == Phase.READY
        assert client.build(["B", "C"], circ_id=2, timeout=2.0).phase == Phase.READY
        send_frame(client._sock, encode_cell(raw_extend_cell(client.state, name)))
        return bystander, client

    def test_extend_to_unregistered_name_drops_only_that_link(self, live_network):
        # C cannot open "Z": it must fail the one circuit that wanted Z with
        # DESTROY, not lose its link from B with every other circuit on it.
        c = live_network[2][1]
        bystander, client = self._extend_from_c(live_network, b"Z")
        try:
            deadline = time.monotonic() + 5.0
            while len(c.state.entries) == 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(c.state.entries) == 1
            assert bystander.send_data(1, b"still here") == b"still here"
        finally:
            bystander.close()
            client.close()

    @pytest.mark.parametrize("address", [None, "nohost"], ids=["unregistered", "no-port"])
    def test_failed_open_is_destroyed_at_once(self, live_network, monkeypatch, address):
        # C cannot open "Z", which is unregistered or registered at an
        # address without a port. The client must hear DESTROY within its
        # 2 s socket timeout, and C's reader of its link from B live on.
        params, dir_client, nodes, _ = live_network
        if address is not None:
            dir_client.register(NodeDescriptor(name="Z", address=address,
                                               public=nodes[2].state.keypair.public,
                                               params_digest=params_digest(params)))
        died = []
        monkeypatch.setattr(threading, "excepthook", lambda args: died.append(args.exc_type))
        bystander, client = self._extend_from_c(live_network, b"Z")
        try:
            client.handle("B", client._recv())
            assert client.state.failure == "destroyed by relay"
            assert bystander.send_data(1, b"still here") == b"still here"
            assert died == []
        finally:
            bystander.close()
            client.close()

    def test_non_utf8_extend_name_is_destroyed(self, live_network):
        bystander, client = self._extend_from_c(live_network, b"\xff")
        try:
            client.handle("B", client._recv())
            assert client.state.failure == "destroyed by relay"
            assert bystander.send_data(1, b"still here") == b"still here"
        finally:
            bystander.close()
            client.close()

    def test_malformed_lookup_answer_keeps_the_reader(self):
        # B resolves the EXTEND's "Z" through a directory that answers that
        # lookup with an empty frame and forwards every other request to a
        # real one. B must fail the circuit that wanted Z with DESTROY and
        # keep reading the client's link.
        rng = random.Random(7)
        params = gen_params(16, rng)
        dir_server = DirectoryServer(Directory(params_digest(params))).start()
        lookup_z = tlv.encode_record(tlv.TAG_DIR_LOOKUP, b"Z")

        def forward(request):
            if request == lookup_z:
                return b""
            with socket.create_connection(parse_address(dir_server.address)) as sock:
                send_frame(sock, request)
                return recv_frame(sock)

        with fake_directory(forward) as address:
            b = NodeServer("B", params, gen_keypair(params, rng), DirectoryClient(address))
            client = StreamCircuitClient(params, DirectoryClient(address), rng)
            try:
                b.start()
                assert client.build(["B"], timeout=2.0).phase == Phase.READY
                send_frame(client._sock, encode_cell(raw_extend_cell(client.state, b"Z")))
                deadline = time.monotonic() + 5.0
                while b.state.entries and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not b.state.entries
                # A fresh one-hop circuit on the same link.
                sends = [client.start_build(2, ["B"])]
                while client.state.phase not in (Phase.READY, Phase.FAILED):
                    client._send(sends)
                    sends = client.handle("B", client._recv())
                assert client.state.phase == Phase.READY
            finally:
                client.close()
                b.stop()
                dir_server.stop()

    def test_extend_cannot_name_an_inbound_link(self, live_network):
        # Two one-hop clients on B. The second asks B to extend to "conn1":
        # an EXTEND name resolves only through the directory, never to one
        # of B's inbound links, so B finds no such relay, answers the second
        # circuit with DESTROY and sends the first client nothing.
        params, dir_client, nodes, rng = live_network
        b = nodes[0]
        first = StreamCircuitClient(params, dir_client, rng)
        second = StreamCircuitClient(params, dir_client, rng)
        try:
            assert first.build(["B"], timeout=2.0).phase == Phase.READY
            assert second.build(["B"], circ_id=2, timeout=2.0).phase == Phase.READY
            send_frame(second._sock, encode_cell(raw_extend_cell(second.state, b"conn1")))
            deadline = time.monotonic() + 5.0
            while (len(b.state.entries) == 2 and time.monotonic() < deadline
                   and not select.select([first._sock], [], [], 0.01)[0]):
                pass
            assert select.select([first._sock], [], [], 0.2)[0] == []
            assert len(b.state.entries) == 1
            assert first.send_data(1, b"still here") == b"still here"
        finally:
            first.close()
            second.close()

    def test_connect_timeouts(self, live_network, monkeypatch):
        # A directory request and a relay's link connect with a 10 s timeout,
        # a client's entry link with the timeout its build was given.
        params, dir_client, nodes, rng = live_network
        real_connect = socket.create_connection
        timeouts = {}

        def recording_connect(address, *args, **kwargs):
            timeouts.setdefault("%s:%d" % address[:2], set()).add(kwargs.get("timeout"))
            return real_connect(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", recording_connect)
        client = StreamCircuitClient(params, DirectoryClient(dir_client.address), rng)
        try:
            assert client.build(["B", "C", "D"], timeout=3.0).phase == Phase.READY
        finally:
            client.close()
        assert timeouts == {dir_client.address: {10}, nodes[0].address: {3.0},
                            nodes[1].address: {10}, nodes[2].address: {10}}

    def test_idle_relay_links_stay_open(self, live_network, monkeypatch):
        # A relay opens its links to C and D with a connect timeout, here cut
        # to 0.2 s. It must not stay on as a read timeout, or a circuit idle
        # for longer would lose every relay link on its path.
        params, dir_client, nodes, rng = live_network
        relays = {parse_address(node.address) for node in nodes[1:]}
        real_connect = socket.create_connection

        def short_timeout_connect(address, *args, **kwargs):
            if address in relays:
                kwargs["timeout"] = 0.2
            return real_connect(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", short_timeout_connect)
        client = StreamCircuitClient(params, dir_client, rng)
        try:
            assert client.build(["B", "C", "D"], timeout=2.0).phase == Phase.READY
            time.sleep(0.6)
            assert client.send_data(1, b"after a pause") == b"after a pause"
            assert [len(node.state.entries) for node in nodes] == [1, 1, 1]
        finally:
            client.close()


class TestLinkModel:
    def test_circuit_ids_reused_in_both_directions_of_a_link(self, live_network):
        # X runs C->B and Y runs B->C, both with circuit id 1. A relay sends
        # CREATE only on links it opened, and an inbound link is keyed by its
        # accept number, so B's link toward C (which carries Y) is not C's
        # link toward B (which carries X): the ids cannot collide.
        params, dir_client, nodes, rng = live_network
        x = StreamCircuitClient(params, dir_client, rng)
        y = StreamCircuitClient(params, dir_client, rng)
        try:
            assert x.build(["C", "B"], circ_id=1, timeout=2.0).phase == Phase.READY
            assert y.build(["B", "C"], circ_id=1, timeout=2.0).phase == Phase.READY
            assert x.send_data(1, b"to B") == b"to B"
            assert y.send_data(1, b"to C") == b"to C"
            assert [len(node.state.entries) for node in nodes] == [2, 2, 0]
        finally:
            x.close()
            y.close()

    def test_paths_through_one_relay_twice(self, live_network):
        params, dir_client, nodes, rng = live_network
        x = StreamCircuitClient(params, dir_client, rng)
        y = StreamCircuitClient(params, dir_client, rng)
        try:
            assert x.build(["B", "C", "B"], timeout=2.0).phase == Phase.READY
            assert y.build(["C", "B"], timeout=2.0).phase == Phase.READY
            assert x.send_data(1, b"twice") == b"twice"
            assert y.send_data(1, b"once") == b"once"
            assert [len(node.state.entries) for node in nodes] == [3, 2, 0]
        finally:
            x.close()
            y.close()


class TestOneLoopPerServer:
    def test_thread_count_does_not_grow_with_circuits(self, live_network):
        # Each server runs one loop thread, however many links it serves. An
        # open in flight holds one short-lived thread, so the count is read
        # once no thread started since the network came up is left. It counts
        # the threads alive then or now, so that a thread of an earlier test
        # that ends meanwhile does not lower it.
        params, dir_client, nodes, rng = live_network
        before = set(threading.enumerate())

        def at_rest():
            eventually(lambda: set(threading.enumerate()) <= before, 2.0)
            return len(before | set(threading.enumerate()))

        counts, clients = {}, []
        try:
            for total in (1, 50, 100):
                while len(clients) < total:
                    clients.append(StreamCircuitClient(params, dir_client, rng))
                    assert clients[-1].build(["B", "C", "D"], timeout=5.0).phase == Phase.READY
                counts[total] = at_rest()
            assert counts == {1: len(before), 50: len(before), 100: len(before)}
            assert [len(node.state.entries) for node in nodes] == [100, 100, 100]
        finally:
            for client in clients:
                client.close()

    def test_oversize_frame_drops_only_its_link(self, live_network):
        # A peer announces a frame over FRAME_MAX on its own link to B. B
        # drops that link and its circuit, and echoes on through a bystander.
        params, dir_client, nodes, rng = live_network
        b = nodes[0]
        bystander = StreamCircuitClient(params, dir_client, rng)
        client = StreamCircuitClient(params, dir_client, rng)
        try:
            assert bystander.build(["B", "C", "D"], timeout=2.0).phase == Phase.READY
            assert client.build(["B"], circ_id=2, timeout=2.0).phase == Phase.READY
            client._sock.sendall((FRAME_MAX + 1).to_bytes(4, "big"))
            with pytest.raises(ConnectionError, match="entry node closed the connection"):
                client._recv()
            assert on_loop(b, lambda: (len(b.state.entries), sorted(map(str, b._links)))) == \
                (1, ["1", "C"])
            assert bystander.send_data(1, b"still here") == b"still here"
        finally:
            bystander.close()
            client.close()

    def test_failed_snapshot_write_closes_only_its_connection(self, toy_world, tmp_path,
                                                              writes):
        # The directory's snapshot write fails with ENOSPC while it answers a
        # REGISTER: that connection is closed unanswered, and an open
        # bystander connection and the next client are answered.
        params, digest = toy_world
        desc = NodeDescriptor("B", "127.0.0.1:9001", keypair_from_secrets(params, 3, 13).public,
                              digest)
        server = DirectoryServer(Directory(digest, str(tmp_path / "directory.bin"))).start()
        try:
            with socket.create_connection(parse_address(server.address), timeout=5) as bystander:
                writes.tear_next = True
                with pytest.raises(ConnectionError, match="directory closed the connection"):
                    DirectoryClient(server.address).register(desc)
                send_frame(bystander, tlv.encode_record(tlv.TAG_DIR_LOOKUP, b"B"))
                assert recv_frame(bystander) == tlv.encode_record(tlv.TAG_STATUS, bytes([1]))
            DirectoryClient(server.address).register(desc)
            assert DirectoryClient(server.address).lookup("B") == desc
        finally:
            server.stop()
