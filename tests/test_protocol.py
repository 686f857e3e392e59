"""Client/relay state machines: toy traces, failure paths, purity."""

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onionkep import (
    Cell,
    CellCommand,
    RelaySubcommand,
    chunk_decrypt,
    gen_keypair,
    key_digest,
    keypair_from_secrets,
    make_params,
    mix,
    reduce_key,
)
from onionkep.errors import NotReady
from onionkep.onioncrypt import (
    build_create_payload,
    build_created_payload,
    decode_relay_frame,
    parse_create_payload,
)
from onionkep.protocol import (
    DeliverLocal,
    NodeState,
    Phase,
    ProtocolConfig,
    Relay,
    SendCell,
    TearDown,
    client_create,
    client_extend,
    client_handle_cell,
    client_send_data,
    client_step,
    node_drop_link,
    node_handle_cell,
    node_reply_data,
)
from onionkep.simnet import SimClient, build_simulation
from conftest import ScriptedRng, raw_extend_cell, tabulate


@pytest.fixture
def bob_node(toy_params, toy_bob):
    return NodeState(name="B", params=toy_params, keypair=toy_bob)


class TestClientCreate:
    def test_toy_payload(self, toy_params, toy_bob):
        # Ephemeral forced to the toy Alice secrets: V=12, P=40, Q=28.
        state, send = client_create(toy_params, 9, "B", toy_bob.public,
                                    ScriptedRng([3, 13]))
        assert send.link == "B"
        assert send.cell.command == CellCommand.CREATE
        assert send.cell.circ_id == 9
        assert parse_create_payload(send.cell.payload, 1) == (12, 40, 28)
        assert state.phase == Phase.CREATING

    def test_independent_ephemerals(self, toy_params, toy_bob):
        rng = random.Random(1)
        _, s1 = client_create(toy_params, 1, "B", toy_bob.public, rng)
        _, s2 = client_create(toy_params, 1, "B", toy_bob.public, rng)
        assert s1.cell.payload != s2.cell.payload


class TestNodeHandleCreate:
    def test_toy_response(self, toy_params, toy_bob, bob_node):
        cell = Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1))
        state, actions = node_handle_cell(bob_node, "A", cell)
        [send] = actions
        assert send.cell.command == CellCommand.CREATED
        v, digest = send.cell.payload[0], send.cell.payload[1:]
        assert v == 28
        assert digest == key_digest(reduce_key(toy_params, 36))
        assert [e.session.raw for e in state.entries.values()] == [36]

    def test_malformed_handshake_destroys(self, bob_node):
        # V=35 strips to a value not divisible by 4.
        cell = Cell(9, CellCommand.CREATE, build_create_payload(35, 40, 28, 1))
        state, actions = node_handle_cell(bob_node, "A", cell)
        assert state.entries == {}
        assert any(isinstance(a, TearDown) for a in actions)
        assert any(isinstance(a, SendCell)
                   and a.cell.command == CellCommand.DESTROY for a in actions)


class TestClientHandleCreated:
    def _creating_state(self, toy_params, toy_bob):
        state, _ = client_create(toy_params, 9, "B", toy_bob.public,
                                 ScriptedRng([3, 13]))
        return state

    def test_confirms_on_valid_response(self, toy_params, toy_bob):
        state = self._creating_state(toy_params, toy_bob)
        digest = key_digest(reduce_key(toy_params, 36))
        cell = Cell(9, CellCommand.CREATED, build_created_payload(28, digest, 1))
        state, actions = client_handle_cell(state, cell)
        assert state.phase == Phase.READY
        assert state.hops[0].confirmed
        assert state.hops[0].session.raw == 36
        assert actions == []

    def test_tampered_response_fails(self, toy_params, toy_bob):
        state = self._creating_state(toy_params, toy_bob)
        digest = key_digest(reduce_key(toy_params, 36))
        cell = Cell(9, CellCommand.CREATED, build_created_payload(29, digest, 1))
        state, actions = client_handle_cell(state, cell)
        assert state.phase == Phase.FAILED
        assert any(isinstance(a, TearDown) and "CircuitIntegrityFailure" in a.reason
                   for a in actions)

    def test_wrong_digest_fails(self, toy_params, toy_bob):
        state = self._creating_state(toy_params, toy_bob)
        cell = Cell(9, CellCommand.CREATED, build_created_payload(28, b"\x00" * 32, 1))
        state, actions = client_handle_cell(state, cell)
        assert state.phase == Phase.FAILED

    def test_unknown_circuit_ignored(self, toy_params, toy_bob):
        state = self._creating_state(toy_params, toy_bob)
        cell = Cell(77, CellCommand.CREATED, b"")
        new_state, actions = client_handle_cell(state, cell)
        assert new_state == state
        assert actions == []


class TestClientExtend:
    def _ready_state(self, toy_params, toy_bob):
        state, _ = client_create(toy_params, 9, "B", toy_bob.public,
                                 ScriptedRng([3, 13]))
        digest = key_digest(reduce_key(toy_params, 36))
        cell = Cell(9, CellCommand.CREATED, build_created_payload(28, digest, 1))
        state, _ = client_handle_cell(state, cell)
        return state

    def test_single_layer_for_first_extension(self, toy_params, toy_bob):
        state = self._ready_state(toy_params, toy_bob)
        charlie = keypair_from_secrets(toy_params, 7, 17)
        state, send = client_extend(state, "C", charlie.public, ScriptedRng([4, 19]))
        assert state.phase == Phase.EXTENDING
        assert send.link == "B"
        # Exactly one layer: peeling with the entry key yields the frame.
        frame = decode_relay_frame(
            chunk_decrypt(send.cell.payload, state.hops[0].session, toy_params))
        assert frame.subcommand == RelaySubcommand.EXTEND

    def test_extend_requires_ready(self, toy_params, toy_bob):
        state, _ = client_create(toy_params, 9, "B", toy_bob.public,
                                 ScriptedRng([3, 13]))
        with pytest.raises(NotReady):
            client_extend(state, "C", toy_bob.public, ScriptedRng([4, 19]))

    def test_send_data_requires_ready(self, toy_params, toy_bob):
        state, _ = client_create(toy_params, 9, "B", toy_bob.public,
                                 ScriptedRng([3, 13]))
        with pytest.raises(NotReady):
            client_send_data(state, 1, b"hi")


class TestNodeRelay:
    def test_terminal_peels_and_emits_create(self, toy_params, toy_bob, bob_node):
        # Build B's entry, then feed it a one-layer EXTEND to C.
        state, actions = node_handle_cell(
            bob_node, "A", Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1)))
        client, send = client_create(toy_params, 9, "B", toy_bob.public,
                                     ScriptedRng([3, 13]))
        client, _ = client_handle_cell(client, actions[0].cell)
        assert client.phase == Phase.READY
        charlie = keypair_from_secrets(toy_params, 7, 17)
        client, relay = client_extend(client, "C", charlie.public, ScriptedRng([4, 19]))
        state, actions = node_handle_cell(state, "A", relay.cell)
        [send] = actions
        assert send.link == "C"
        assert send.cell.command == CellCommand.CREATE
        entry = list(state.entries.values())[0]
        assert entry.next_link == "C" and entry.next_pending

    def test_data_at_exit_delivers_local(self, toy_params, toy_bob, bob_node):
        state, actions = node_handle_cell(
            bob_node, "A", Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1)))
        client, _ = client_create(toy_params, 9, "B", toy_bob.public,
                                  ScriptedRng([3, 13]))
        client, _ = client_handle_cell(client, actions[0].cell)
        send = client_send_data(client, 5, b"hi")
        state, actions = node_handle_cell(state, "A", send.cell)
        assert actions == [DeliverLocal(5, b"hi")]

    def test_unknown_circuit_tears_down(self, bob_node):
        state, actions = node_handle_cell(bob_node, "A",
                                          Cell(42, CellCommand.RELAY, b"junk"))
        assert any(isinstance(a, TearDown) for a in actions)
        assert any(isinstance(a, SendCell)
                   and a.cell.command == CellCommand.DESTROY for a in actions)

    @given(st.binary(max_size=255))
    @settings(max_examples=200)
    def test_any_extend_name_never_raises(self, name):
        # A name that is not UTF-8 is malformed EXTEND data, answered with
        # DESTROY; any other is extended toward.
        params = make_params(2, 2, 11)
        bob = keypair_from_secrets(params, 5, 15)
        state, [created] = node_handle_cell(
            NodeState(name="B", params=params, keypair=bob), "A",
            Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1)))
        client, _ = client_create(params, 9, "B", bob.public, ScriptedRng([3, 13]))
        client, _ = client_handle_cell(client, created.cell)
        _, actions = node_handle_cell(state, "A", raw_extend_cell(client, name))
        try:
            name.decode()
        except UnicodeDecodeError:
            assert actions == [TearDown(9, "malformed EXTEND data"),
                               SendCell("A", Cell(9, CellCommand.DESTROY))]
        else:
            assert [a.cell.command for a in actions] == [CellCommand.CREATE]

    def test_reply_data_round_trip(self, toy_params, toy_bob, bob_node):
        state, actions = node_handle_cell(
            bob_node, "A", Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1)))
        client, _ = client_create(toy_params, 9, "B", toy_bob.public,
                                  ScriptedRng([3, 13]))
        client, _ = client_handle_cell(client, actions[0].cell)
        reply = node_reply_data(state, 9, "A", 5, b"pong")
        client, actions = client_handle_cell(client, reply.cell)
        assert actions == [DeliverLocal(5, b"pong")]


class TestClientStep:
    def _created(self, toy_params, toy_bob):
        state, _ = client_create(toy_params, 9, "B", toy_bob.public,
                                 ScriptedRng([3, 13]))
        digest = key_digest(reduce_key(toy_params, 36))
        return state, Cell(9, CellCommand.CREATED, build_created_payload(28, digest, 1))

    def test_extends_toward_next_descriptor(self, toy_params, toy_bob):
        state, created = self._created(toy_params, toy_bob)
        charlie = keypair_from_secrets(toy_params, 7, 17)
        path = [SimpleNamespace(name="B", public=toy_bob.public),
                SimpleNamespace(name="C", public=charlie.public)]
        state, actions = client_step(state, created, path, ScriptedRng([4, 19]))
        assert state.phase == Phase.EXTENDING
        assert [hop.node_name for hop in state.hops] == ["B", "C"]
        [send] = actions
        assert send.link == "B" and send.cell.command == CellCommand.RELAY

    def test_stops_when_path_is_built(self, toy_params, toy_bob):
        state, created = self._created(toy_params, toy_bob)
        path = [SimpleNamespace(name="B", public=toy_bob.public)]
        state, actions = client_step(state, created, path, ScriptedRng([]))
        assert state.phase == Phase.READY and actions == []


class TestDropLink:
    def _extended(self, toy_params, toy_bob, bob_node):
        state, actions = node_handle_cell(
            bob_node, "A", Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1)))
        client, _ = client_create(toy_params, 9, "B", toy_bob.public,
                                  ScriptedRng([3, 13]))
        client, _ = client_handle_cell(client, actions[0].cell)
        charlie = keypair_from_secrets(toy_params, 7, 17)
        _, relay = client_extend(client, "C", charlie.public, ScriptedRng([4, 19]))
        state, _ = node_handle_cell(state, "A", relay.cell)
        return state

    @pytest.mark.parametrize("link", ["A", "C"])
    def test_forgets_circuits_on_either_side(self, toy_params, toy_bob, bob_node, link):
        state = self._extended(toy_params, toy_bob, bob_node)
        assert node_drop_link(state, link).entries == {}

    def test_keeps_circuits_on_other_links(self, toy_params, toy_bob, bob_node):
        state = self._extended(toy_params, toy_bob, bob_node)
        assert node_drop_link(state, "D") == state


class TestRelayHost:
    def test_delivers_echoes_and_drops(self, toy_params, toy_bob):
        relay = Relay("B", toy_params, toy_bob, echo_data=True)
        [created] = relay.handle(
            "A", Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1)))
        client, _ = client_create(toy_params, 9, "B", toy_bob.public,
                                  ScriptedRng([3, 13]))
        client, _ = client_handle_cell(client, created.cell)
        [reply] = relay.handle("A", client_send_data(client, 5, b"hi").cell)
        assert relay.delivered == [(5, b"hi")]
        assert client_handle_cell(client, reply.cell)[1] == [DeliverLocal(5, b"hi")]
        assert relay.session_keys() == [36]
        relay.drop_link("A")
        assert relay.session_keys() == []


RELAY_NAMES = ("B", "C", "D")
relay_paths = st.lists(st.sampled_from(RELAY_NAMES), min_size=1, max_size=3).filter(
    lambda path: all(a != b for a, b in zip(path, path[1:])))
relay_builds = st.lists(st.tuples(st.just("build"), relay_paths, st.integers(1, 3)),
                        min_size=1, max_size=6)
relay_events = st.lists(st.one_of(
    st.tuples(st.just("build"), relay_paths, st.integers(1, 3)),
    st.tuples(st.just("destroy"), st.integers(0, 15)),
    st.tuples(st.just("corrupt"), st.integers(0, 15), st.integers(0, 255)),
    st.tuples(st.just("drop"), st.sampled_from(RELAY_NAMES), st.integers(0, 15)),
), max_size=10)


class TestRelayMaps:
    @given(relay_builds, relay_events)
    @settings(max_examples=30, deadline=None)
    def test_maps_agree_and_forget_dropped_links(self, builds, events):
        sim, first, nodes = build_simulation(16, 5)
        clients, dead = [], set()
        # A dropped link is gone for good: nothing crosses it any more.
        sim.tamper = lambda src, dst, cell: None if frozenset((src, dst)) in dead else cell
        for step in builds + events:
            if step[0] == "build":
                _, path, circ_id = step
                if any(frozenset(hop) in dead for hop in zip(path, path[1:])):
                    continue
                client = SimClient(f"U{len(clients)}", first.params, first.directory,
                                   first.rng)
                sim.add_host(client.name, client)
                send = client.start_build(circ_id, path)
                sim.post(client.name, send.link, send.cell)
                clients.append(client)
            elif step[0] == "drop":
                _, relay, index = step
                state = nodes[relay].state
                links = sorted({link for link, _ in [*state.entries, *state.nexts]})
                if not links:
                    continue
                peer = links[index % len(links)]
                dead.add(frozenset((relay, peer)))
                nodes[relay].drop_link(peer)
                if peer in nodes:
                    nodes[peer].drop_link(relay)
            elif clients:
                client = clients[step[1] % len(clients)]
                cell = Cell(client.state.circ_id, CellCommand.DESTROY)
                if step[0] == "corrupt":
                    payload = (client_send_data(client.state, 1, b"probe").cell.payload
                               if client.state.phase == Phase.READY else b"junk")
                    flip = step[2] % len(payload)
                    payload = payload[:flip] + bytes([payload[flip] ^ 0xFF]) + payload[flip + 1:]
                    cell = Cell(cell.circ_id, CellCommand.RELAY, payload)
                sim.post(client.name, client.path[0].name, cell)
            sim.run()
            for name, node in nodes.items():
                entries, nexts = node.state.entries, node.state.nexts
                assert nexts == {(e.next_link, e.next_circ_id): key
                                 for key, e in entries.items() if e.next_link is not None}
                lost = {peer for pair in dead if name in pair for peer in pair - {name}}
                assert not {link for link, _ in [*entries, *nexts]} & lost


class TestPurity:
    def test_client_transition_replays_identically(self, toy_params, toy_bob):
        state, _ = client_create(toy_params, 9, "B", toy_bob.public,
                                 ScriptedRng([3, 13]))
        digest = key_digest(reduce_key(toy_params, 36))
        cell = Cell(9, CellCommand.CREATED, build_created_payload(28, digest, 1))
        assert client_handle_cell(state, cell) == client_handle_cell(state, cell)

    def test_node_transition_replays_identically(self, bob_node):
        cell = Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1))
        first = node_handle_cell(bob_node, "A", cell)
        second = node_handle_cell(bob_node, "A", cell)
        assert first == second

    def test_inputs_not_mutated(self, bob_node):
        cell = Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1))
        node_handle_cell(bob_node, "A", cell)
        assert bob_node.entries == {}


class TestRelayNeverTabulates:
    def test_repeated_creates_add_no_table(self, params_64):
        # Replayed CREATEs carrying one ephemeral constructor, then two
        # carrying the relay's own published one, the constructor a client
        # host sharing the params may have tabulated.
        rng = random.Random(9)
        relay, eph = gen_keypair(params_64, rng), gen_keypair(params_64, rng)
        width = params_64.residue_width
        cells = [Cell(circ_id, CellCommand.CREATE, build_create_payload(
                      mix(params_64, relay.public, sender.private),
                      sender.public.P, sender.public.Q, width))
                 for circ_id, sender in enumerate([eph] * 4 + [relay] * 2, start=1)]
        plain, shared = replace(params_64), replace(params_64)
        tabulate(shared, relay.public)
        before = dict(shared._mix_tables)
        replies = {}
        for params in (plain, shared):
            state = NodeState(name="B", params=params, keypair=relay)
            replies[params is shared] = []
            for cell in cells:
                state, [send] = node_handle_cell(state, "A", cell)
                assert send.cell.command == CellCommand.CREATED
                replies[params is shared].append(send.cell.payload)
        assert plain._mix_tables == {}
        assert shared._mix_tables == before
        assert all(shared._mix_tables[pub] is rows for pub, rows in before.items())
        assert replies[True] == replies[False]


class TestLiteralLayeringMode:
    def test_end_to_end(self, toy_params):
        # Figure-literal mode: relayed frames carry only the consumer's
        # layer and intermediates forward opaquely.
        from onionkep.simnet import build_simulation, run_build, run_send
        config = ProtocolConfig(peel_per_hop=False)
        sim, client, nodes = build_simulation(16, 3, config=config, echo_data=True)
        state = run_build(sim, client, ["B", "C", "D"])
        assert state.phase == Phase.READY
        run_send(sim, client, 1, b"literal mode")
        assert nodes["D"].delivered == [(1, b"literal mode")]
        assert client.received == [(1, b"literal mode")]
