"""TCP transport: framing, directory service, live three-hop circuits."""

import random
import select
import socket
import sys
import threading
import time

import pytest

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
from onionkep import nikep
from onionkep.directory import Directory, NodeDescriptor
from onionkep.errors import DuplicateName, FrameTooLarge, NotFound, NotReady, ParamsMismatch
from onionkep.protocol import Phase
from onionkep.simnet import build_simulation, run_build, run_send
from onionkep.transport import (
    DirectoryClient,
    DirectoryServer,
    NodeServer,
    StreamCircuitClient,
    parse_address,
    recv_frame,
    send_frame,
)
from conftest import built_tables, raw_extend_cell


def socket_pair():
    server = socket.create_server(("127.0.0.1", 0))
    client = socket.create_connection(server.getsockname())
    peer, _ = server.accept()
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
        a, b = socket_pair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof(self):
        a, b = socket_pair()
        a.sendall((10).to_bytes(4, "big") + b"abc")
        a.close()
        try:
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()

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
    def test_register_lookup_list(self, toy_world, dir_server):
        params, digest = toy_world
        client = DirectoryClient(dir_server.address)
        assert client.list() == []
        pair = keypair_from_secrets(params, 3, 13)
        desc = NodeDescriptor(name="B", address="127.0.0.1:9001",
                              public=pair.public, params_digest=digest)
        client.register(desc)
        assert client.lookup("B") == desc
        assert client.list() == [desc]

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
        assert len(DirectoryClient(dir_server.address).list()) == 8

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
        params, dir_client, _, rng = live_network
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
    def test_simulator_and_tcp_build_agree(self):
        # One seeded client, relays with the same keypairs: the two
        # runtimes must drive the same build, byte for byte.
        sim, sim_client, sim_nodes = build_simulation(32, 11, echo_data=True)
        rng_state = sim_client.rng.getstate()
        sim_state = run_build(sim, sim_client, ["B", "C", "D"])
        run_send(sim, sim_client, 1, b"same bytes")
        assert sim_state.phase == Phase.READY
        params = sim_client.params
        dir_server = DirectoryServer(Directory(params_digest(params))).start()
        dir_client = DirectoryClient(dir_server.address)
        nodes = {name: NodeServer(name, params, sim_nodes[name].state.keypair,
                                  dir_client).start() for name in ("B", "C", "D")}
        rng = random.Random()
        rng.setstate(rng_state)
        client = StreamCircuitClient(params, dir_client, rng)
        try:
            assert client.build(["B", "C", "D"], timeout=10.0) == sim_state
            assert client.send_data(1, b"same bytes") == sim_client.received[-1][1]
            for name, node in nodes.items():
                assert node.session_keys() == sim_nodes[name].session_keys()
        finally:
            client.close()
            for node in nodes.values():
                node.stop()
            dir_server.stop()


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
        # The directory client decodes new descriptors on every lookup.
        assert paths[2][0].public == paths[3][0].public
        assert paths[2][0].public is not paths[3][0].public

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
        senders = [threading.Thread(target=b._send, args=("C", cell)) for _ in range(8)]
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
        assert len(opened) == 1
        assert list(b._links) == ["C"]

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
        senders = [threading.Thread(target=b._send, args=("X", cell)) for cell in cells]
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
        # C cannot open "Z": it must forget the one circuit that wanted Z,
        # not its link from B with every other circuit on it.
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

    def test_non_utf8_extend_name_is_destroyed(self, live_network):
        bystander, client = self._extend_from_c(live_network, b"\xff")
        try:
            client.handle("B", client._recv())
            assert client.state.failure == "destroyed by relay"
            assert bystander.send_data(1, b"still here") == b"still here"
        finally:
            bystander.close()
            client.close()

    def test_extend_cannot_name_an_inbound_link(self, live_network):
        # Two one-hop clients on B. The second asks B to extend to "conn1":
        # an EXTEND name resolves only through the directory, never to one
        # of B's inbound links, so B finds no such relay, forgets the second
        # circuit and sends the first client nothing.
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
