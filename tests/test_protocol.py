"""Client/relay state machines: toy traces, failure paths, purity."""

import inspect
import random
import statistics
import time
from collections import deque
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
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
from onionkep import protocol
from onionkep.errors import NotReady
from onionkep.nikep import KeyPair, PrivateKey, PublicConstructor, SessionKey
from onionkep.onioncrypt import (
    MAX_CIRC_ID,
    RelayFrame,
    build_create_payload,
    build_created_payload,
    decode_relay_frame,
    encode_relay_frame,
    onion_wrap,
    parse_create_payload,
    parse_extend_data,
)
from onionkep.protocol import (
    DeliverLocal,
    NodeState,
    Phase,
    Relay,
    SendCell,
    TearDown,
    client_create,
    client_drop_link,
    client_extend,
    client_handle_cell,
    client_send_data,
    client_step,
    node_drop_link,
    node_handle_cell,
    node_reply_data,
)
from onionkep.simnet import SimClient, TranscriptEntry, build_simulation, run_build, run_send
from conftest import (ScriptedRng, check_hop_keys, link_index, node_apply, raw_extend_cell,
                      session_keys, tabulate)


@pytest.fixture
def bob_node(toy_params, toy_bob):
    return NodeState(name="B", params=toy_params, keypair=toy_bob)


def relay_transition(state, link, cell):
    """``node_handle_cell`` with its delta folded into ``state`` by
    ``node_apply``: the relay's new state and its actions."""
    delta, actions = node_handle_cell(state, link, cell)
    return node_apply(state, delta), actions


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
        state, actions = relay_transition(bob_node, "A", cell)
        [send] = actions
        assert send.cell.command == CellCommand.CREATED
        v, digest = send.cell.payload[0], send.cell.payload[1:]
        assert v == 28
        assert digest == key_digest(reduce_key(toy_params, 36))
        assert [e.session.raw for e in state.entries.values()] == [36]

    def test_malformed_handshake_destroys(self, bob_node):
        # V=35 strips to a value not divisible by 4.
        cell = Cell(9, CellCommand.CREATE, build_create_payload(35, 40, 28, 1))
        state, actions = relay_transition(bob_node, "A", cell)
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
        # Exactly one layer: peeling with the entry key yields the frame,
        # which rides stream 0 as every control frame does.
        frame = decode_relay_frame(
            chunk_decrypt(send.cell.payload, state.hops[0].session, toy_params))
        assert (frame.subcommand, frame.stream_id) == (RelaySubcommand.EXTEND, 0)

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
        state, actions = relay_transition(
            bob_node, "A", Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1)))
        client, send = client_create(toy_params, 9, "B", toy_bob.public,
                                     ScriptedRng([3, 13]))
        client, _ = client_handle_cell(client, actions[0].cell)
        assert client.phase == Phase.READY
        charlie = keypair_from_secrets(toy_params, 7, 17)
        client, relay = client_extend(client, "C", charlie.public, ScriptedRng([4, 19]))
        state, actions = relay_transition(state, "A", relay.cell)
        [send] = actions
        assert send.link == "C"
        assert send.cell.command == CellCommand.CREATE
        entry = list(state.entries.values())[0]
        assert entry.next_link == "C" and entry.next_pending

    def test_data_at_exit_delivers_local(self, toy_params, toy_bob, bob_node):
        state, actions = relay_transition(
            bob_node, "A", Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1)))
        client, _ = client_create(toy_params, 9, "B", toy_bob.public,
                                  ScriptedRng([3, 13]))
        client, _ = client_handle_cell(client, actions[0].cell)
        send = client_send_data(client, 5, b"hi")
        state, actions = relay_transition(state, "A", send.cell)
        assert actions == [DeliverLocal(5, b"hi")]

    @pytest.mark.parametrize("subcommand", [RelaySubcommand.END, RelaySubcommand.EXTENDED],
                             ids=lambda subcommand: subcommand.name)
    def test_end_tears_down_and_a_frame_meant_for_clients_is_ignored(
            self, toy_params, toy_bob, bob_node, subcommand):
        state, [created] = relay_transition(
            bob_node, "A", Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1)))
        client, _ = client_create(toy_params, 9, "B", toy_bob.public, ScriptedRng([3, 13]))
        client, _ = client_handle_cell(client, created.cell)
        after = relay_transition(state, "A", _relay(subcommand, b"")(client))
        if subcommand == RelaySubcommand.END:
            assert after == (replace(state, entries={}, by_link={}), [
                TearDown(9, "stream ended"), SendCell("A", Cell(9, CellCommand.DESTROY))])
        else:
            assert after == (state, [])

    def test_unknown_circuit_tears_down(self, bob_node):
        state, actions = relay_transition(bob_node, "A",
                                          Cell(42, CellCommand.RELAY, b"junk"))
        assert any(isinstance(a, TearDown) for a in actions)
        assert any(isinstance(a, SendCell)
                   and a.cell.command == CellCommand.DESTROY for a in actions)

    @given(st.binary(max_size=255))
    @example(b"B")
    @settings(max_examples=2 * settings.default.max_examples)  # 200, or 2000 under ``thorough``
    def test_any_extend_name_never_raises(self, name):
        # A name that is not UTF-8 is malformed EXTEND data and the relay's
        # own name is refused, each answered with DESTROY; any other name
        # is extended toward.
        params = make_params(2, 2, 11)
        bob = keypair_from_secrets(params, 5, 15)
        state, [created] = relay_transition(
            NodeState(name="B", params=params, keypair=bob), "A",
            Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1)))
        client, _ = client_create(params, 9, "B", bob.public, ScriptedRng([3, 13]))
        client, _ = client_handle_cell(client, created.cell)
        _, actions = relay_transition(state, "A", raw_extend_cell(client, name))
        try:
            name.decode()
        except UnicodeDecodeError:
            reason = "malformed EXTEND data"
        else:
            reason = "extend to self" if name == b"B" else None
        if reason is None:
            assert [a.cell.command for a in actions] == [CellCommand.CREATE]
        else:
            assert actions == [TearDown(9, reason), SendCell("A", Cell(9, CellCommand.DESTROY))]

    def test_reply_data_round_trip(self, toy_params, toy_bob, bob_node):
        state, actions = relay_transition(
            bob_node, "A", Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1)))
        client, _ = client_create(toy_params, 9, "B", toy_bob.public,
                                  ScriptedRng([3, 13]))
        client, _ = client_handle_cell(client, actions[0].cell)
        reply = node_reply_data(state, 9, "A", 5, b"pong")
        client, actions = client_handle_cell(client, reply.cell)
        assert actions == [DeliverLocal(5, b"pong")]

    def test_reply_data_needs_a_circuit(self, bob_node):
        with pytest.raises(NotReady, match="no circuit 9 from A"):
            node_reply_data(bob_node, 9, "A", 5, b"pong")


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


def _ending_world():
    """Toy client states of circuit 9 in each phase: CREATING toward B,
    READY through B, EXTENDING toward C through B, and FAILED; with B's
    CREATED payload and C's answer to the extension, the EXTENDED data."""
    params = make_params(2, 2, 11)
    bob = keypair_from_secrets(params, 5, 15)
    charlie = NodeState(name="C", params=params, keypair=keypair_from_secrets(params, 7, 17))
    creating, _ = client_create(params, 9, "B", bob.public, ScriptedRng([3, 13]))
    created = build_created_payload(28, key_digest(reduce_key(params, 36)), 1)
    ready, _ = client_handle_cell(creating, Cell(9, CellCommand.CREATED, created))
    extending, extend = client_extend(ready, "C", charlie.keypair.public, ScriptedRng([4, 19]))
    frame = decode_relay_frame(chunk_decrypt(extend.cell.payload, ready.hops[0].session, params))
    _, create = parse_extend_data(frame.data, 1)
    _, [answer] = node_handle_cell(charlie, "B", Cell(1, CellCommand.CREATE, create))
    failed, _ = client_handle_cell(ready, Cell(9, CellCommand.DESTROY))
    return SimpleNamespace(states={Phase.CREATING: creating, Phase.READY: ready,
                                   Phase.EXTENDING: extending, Phase.FAILED: failed},
                           created=created, extended=answer.cell.payload)


ENDING_WORLD = _ending_world()


def _created(payload):
    return lambda state: Cell(9, CellCommand.CREATED, payload)


def _relay(subcommand, data, stream_id=0):
    """A RELAY cell for circuit 9 carrying one frame, layered under every
    confirmed hop's key as the relays layer it toward the client."""
    def cell(state):
        keys = [hop.session for hop in state.hops if hop.confirmed]
        frame = encode_relay_frame(RelayFrame(subcommand, stream_id, data))
        return Cell(9, CellCommand.RELAY, onion_wrap(frame, keys[::-1], state.params))
    return cell


def _raw(circ_id, command, payload=b""):
    return lambda state: Cell(circ_id, command, payload)


_V0 = build_created_payload(0, ENDING_WORLD.created[1:], 1)
_WRONG_DIGEST = ENDING_WORLD.created[:1] + bytes(32)
_EXT_V0 = build_created_payload(0, ENDING_WORLD.extended[1:], 1)
_EXT_WRONG_DIGEST = ENDING_WORLD.extended[:1] + bytes(32)
EXTENDED, DATA, END, EXTEND = (RelaySubcommand.EXTENDED, RelaySubcommand.DATA,
                               RelaySubcommand.END, RelaySubcommand.EXTEND)
# (phase fed, cell, ending): "confirmed" (READY with the last hop keyed),
# "delivered" (DATA 5 b"hi" handed up), "ignored" (state and no action),
# "destroyed" (DESTROY from the relay), or the reason of an integrity failure.
CLIENT_ENDINGS = {
    "created": (Phase.CREATING, _created(ENDING_WORLD.created), "confirmed"),
    "created-short": (Phase.CREATING, _created(ENDING_WORLD.created[:-1]),
                      "malformed CREATED payload"),
    "created-v0": (Phase.CREATING, _created(_V0), "malformed session key"),
    "created-v0-wrong-digest": (Phase.CREATING, _created(build_created_payload(0, bytes(32), 1)),
                                "malformed session key"),
    "created-wrong-digest": (Phase.CREATING, _created(_WRONG_DIGEST), "key digest mismatch"),
    "creating-relay-junk": (Phase.CREATING, _raw(9, CellCommand.RELAY, b"junk"),
                            "malformed relay payload"),
    "creating-extended": (Phase.CREATING, _relay(EXTENDED, ENDING_WORLD.extended), "ignored"),
    "creating-extended-short": (Phase.CREATING, _relay(EXTENDED, b""), "ignored"),
    "creating-data": (Phase.CREATING, _relay(DATA, b"hi", 5), "delivered"),
    "creating-destroy": (Phase.CREATING, _raw(9, CellCommand.DESTROY), "destroyed"),
    "creating-create": (Phase.CREATING, _raw(9, CellCommand.CREATE, b"junk"), "ignored"),
    "creating-other-circuit": (Phase.CREATING, _raw(8, CellCommand.DESTROY), "ignored"),
    "ready-created": (Phase.READY, _created(ENDING_WORLD.created), "ignored"),
    "ready-created-short": (Phase.READY, _created(b""), "ignored"),
    "ready-extended": (Phase.READY, _relay(EXTENDED, ENDING_WORLD.extended), "ignored"),
    "ready-extended-short": (Phase.READY, _relay(EXTENDED, b""), "ignored"),
    "ready-data": (Phase.READY, _relay(DATA, b"hi", 5), "delivered"),
    "ready-end": (Phase.READY, _relay(END, b""), "ignored"),
    "ready-extend": (Phase.READY, _relay(EXTEND, b"\x01C"), "ignored"),
    "ready-relay-junk": (Phase.READY, _raw(9, CellCommand.RELAY, b"junk"),
                         "malformed relay payload"),
    "ready-relay-other-circuit": (Phase.READY, _raw(8, CellCommand.RELAY, b"junk"), "ignored"),
    "ready-destroy": (Phase.READY, _raw(9, CellCommand.DESTROY), "destroyed"),
    "extended": (Phase.EXTENDING, _relay(EXTENDED, ENDING_WORLD.extended), "confirmed"),
    "extended-short": (Phase.EXTENDING, _relay(EXTENDED, ENDING_WORLD.extended[:-1]),
                       "malformed EXTENDED data"),
    "extended-v0": (Phase.EXTENDING, _relay(EXTENDED, _EXT_V0), "malformed session key"),
    "extended-wrong-digest": (Phase.EXTENDING, _relay(EXTENDED, _EXT_WRONG_DIGEST),
                              "key digest mismatch"),
    "extending-created": (Phase.EXTENDING, _created(ENDING_WORLD.extended), "ignored"),
    "extending-data": (Phase.EXTENDING, _relay(DATA, b"hi", 5), "delivered"),
    "extending-end": (Phase.EXTENDING, _relay(END, b""), "ignored"),
    "extending-relay-junk": (Phase.EXTENDING, _raw(9, CellCommand.RELAY, b"junk"),
                             "malformed relay payload"),
    "extending-destroy": (Phase.EXTENDING, _raw(9, CellCommand.DESTROY), "destroyed"),
    "failed-created": (Phase.FAILED, _created(ENDING_WORLD.created), "ignored"),
    "failed-data": (Phase.FAILED, _relay(DATA, b"hi", 5), "ignored"),
    "failed-relay-junk": (Phase.FAILED, _raw(9, CellCommand.RELAY, b"junk"), "ignored"),
    "failed-destroy": (Phase.FAILED, _raw(9, CellCommand.DESTROY), "ignored"),
}


class TestClientEndings:
    # Every way one inbound cell can end for the client machine, in each phase.
    @pytest.mark.parametrize("phase, make_cell, ending", CLIENT_ENDINGS.values(),
                             ids=CLIENT_ENDINGS.keys())
    def test_ending(self, phase, make_cell, ending):
        state = ENDING_WORLD.states[phase]
        new, actions = client_handle_cell(state, make_cell(state))
        if ending == "confirmed":
            assert (new.phase, new.failure, actions) == (Phase.READY, None, [])
            assert new.hops[:-1] == state.hops[:-1] and new.hops[-1].confirmed
            check_hop_keys(new)
        elif ending == "delivered":
            assert (new, actions) == (state, [DeliverLocal(5, b"hi")])
        elif ending == "ignored":
            assert (new, actions) == (state, [])
        elif ending == "destroyed":
            assert (new.phase, new.failure, actions) == (Phase.FAILED, "destroyed by relay", [])
        else:  # an integrity failure, which the client DESTROYs at its entry hop
            tagged = f"CircuitIntegrityFailure: {ending}"
            destroy = SendCell("B", Cell(9, CellCommand.DESTROY))
            assert (new.phase, new.failure, actions) == (Phase.FAILED, tagged,
                                                         [TearDown(9, tagged), destroy])
            assert new.hops == state.hops


class TestClientDropLink:
    @pytest.mark.parametrize("phase", [Phase.CREATING, Phase.READY, Phase.EXTENDING])
    def test_losing_the_entry_link_fails_the_circuit(self, phase):
        state = ENDING_WORLD.states[phase]
        new, actions = client_drop_link(state, "B")
        assert (new.phase, new.failure, actions) == (Phase.FAILED, "entry link lost",
                                                     [TearDown(9, "entry link lost")])
        assert new.hops == state.hops

    @pytest.mark.parametrize("phase, link", [(Phase.EXTENDING, "C"), (Phase.READY, "Z"),
                                             (Phase.FAILED, "B")])
    def test_another_link_or_a_failed_circuit_changes_nothing(self, phase, link):
        state = ENDING_WORLD.states[phase]
        assert client_drop_link(state, link) == (state, [])


class TestDropLink:
    def _extended(self, toy_params, toy_bob, bob_node):
        state, actions = relay_transition(
            bob_node, "A", Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1)))
        client, _ = client_create(toy_params, 9, "B", toy_bob.public,
                                  ScriptedRng([3, 13]))
        client, _ = client_handle_cell(client, actions[0].cell)
        charlie = keypair_from_secrets(toy_params, 7, 17)
        _, relay = client_extend(client, "C", charlie.public, ScriptedRng([4, 19]))
        state, _ = relay_transition(state, "A", relay.cell)
        return state

    @pytest.mark.parametrize("link", ["A", "C"])
    def test_forgets_circuits_on_either_side(self, toy_params, toy_bob, bob_node, link):
        state = self._extended(toy_params, toy_bob, bob_node)
        assert node_apply(state, node_drop_link(state, link)).entries == {}

    def test_keeps_circuits_on_other_links(self, toy_params, toy_bob, bob_node):
        state = self._extended(toy_params, toy_bob, bob_node)
        assert node_apply(state, node_drop_link(state, "D")) == state


class TestCircuitIds:
    # A link may carry circuit ids drawn by both of its ends, so a relay
    # keeps the ids of a link's two ends apart in its index on its own.
    def _extend(self, toy_params, toy_bob, bob_node, from_c, to="C"):
        """B holding one circuit from C per id in ``from_c``, then asked by
        A's circuit 9 to extend to ``to``: B's new state and its actions."""
        state = bob_node
        for circ_id in from_c:
            state, _ = relay_transition(
                state, "C", Cell(circ_id, CellCommand.CREATE, build_create_payload(12, 40, 28, 1)))
        state, [created] = relay_transition(
            state, "A", Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1)))
        client, _ = client_create(toy_params, 9, "B", toy_bob.public, ScriptedRng([3, 13]))
        client, _ = client_handle_cell(client, created.cell)
        charlie = keypair_from_secrets(toy_params, 7, 17)
        _, relay = client_extend(client, to, charlie.public, ScriptedRng([4, 19]))
        return relay_transition(state, "A", relay.cell)

    @pytest.mark.parametrize("from_c, next_id", [((), 1), ((2,), 1), ((1,), 2), ((1, 2), 3)],
                             ids=["none", "other-id", "same-id", "two-ids"])
    def test_extend_skips_ids_the_link_already_carries(self, toy_params, toy_bob, bob_node,
                                                       from_c, next_id):
        state, [send] = self._extend(toy_params, toy_bob, bob_node, from_c)
        assert (send.link, send.cell.circ_id, send.cell.command) == ("C", next_id,
                                                                    CellCommand.CREATE)
        assert state.circ_seq == next_id + 1
        assert state.by_link == link_index(state.entries)
        assert list(state.by_link["C"].items()) == [
            (circ_id, ("C", circ_id)) for circ_id in from_c] + [(next_id, ("A", 9))]

    @staticmethod
    def _build_through_b(sim, first, nodes, count):
        """``count`` new clients each build B->C->D: the ids B drew toward C."""
        ids = []
        for i in range(count):
            client = SimClient(f"U{i}", first.params, first.directory, first.rng)
            sim.add_host(client.name, client)
            assert run_build(sim, client, ["B", "C", "D"]).phase == Phase.READY
            ids.append(nodes["B"].state.entries[client.name, 1].next_circ_id)
        return ids

    def test_ids_wrap_below_2_32(self):
        # A relay at the top of the id space serves on: after MAX_CIRC_ID its
        # draws go on at 1, never at 0, and a wrapped circuit carries data.
        sim, first, nodes = build_simulation(16, 3)
        nodes["B"].state = replace(nodes["B"].state, circ_seq=MAX_CIRC_ID - 1)
        ids = self._build_through_b(sim, first, nodes, 10)
        assert ids == [MAX_CIRC_ID - 1, MAX_CIRC_ID, *range(1, 9)]
        assert nodes["B"].state.circ_seq == 9
        client = sim.hosts["U9"]
        run_send(sim, client, 1, b"after the wrap")
        assert client.received == [(1, b"after the wrap")]

    def test_a_wrapped_draw_skips_an_id_still_live_on_the_link(self):
        sim, first, nodes = build_simulation(16, 3)
        assert run_build(sim, first, ["B", "C", "D"]).phase == Phase.READY
        assert nodes["B"].state.entries["A", 1].next_circ_id == 1
        nodes["B"].state = replace(nodes["B"].state, circ_seq=MAX_CIRC_ID)
        assert self._build_through_b(sim, first, nodes, 2) == [MAX_CIRC_ID, 2]
        assert nodes["B"].state.circ_seq == 3

    def test_create_on_an_id_drawn_for_that_link_is_refused(self, toy_params, toy_bob,
                                                            bob_node):
        state, [send] = self._extend(toy_params, toy_bob, bob_node, ())
        assert relay_transition(state, "C", send.cell) == (
            state, [TearDown(1, "circuit id in use"), SendCell("C", Cell(1, CellCommand.DESTROY))])

    def test_destroy_for_a_pending_extension_fails_the_circuit_back(self, toy_params, toy_bob,
                                                                   bob_node):
        # What both runtimes feed the relay when they cannot open the link.
        state, _ = self._extend(toy_params, toy_bob, bob_node, ())
        state, actions = relay_transition(state, "C", Cell(1, CellCommand.DESTROY))
        assert actions == [TearDown(9, "destroyed by peer"), SendCell("A", Cell(9, CellCommand.DESTROY))]
        assert state.entries == {} and state.by_link == {}

    def test_extend_to_self_is_torn_down_before_an_id_is_drawn(self, toy_params, toy_bob,
                                                               bob_node):
        state, actions = self._extend(toy_params, toy_bob, bob_node, (), to="B")
        assert actions == [TearDown(9, "extend to self"), SendCell("A", Cell(9, CellCommand.DESTROY))]
        assert (state.entries, state.by_link, state.circ_seq) == ({}, {}, 1)

    def test_extended_rides_stream_0(self, toy_params, toy_bob, bob_node):
        state, [create] = self._extend(toy_params, toy_bob, bob_node, ())
        charlie = NodeState(name="C", params=toy_params,
                            keypair=keypair_from_secrets(toy_params, 7, 17))
        _, [created] = relay_transition(charlie, "B", create.cell)
        state, [extended] = relay_transition(state, "C", created.cell)
        frame = decode_relay_frame(
            chunk_decrypt(extended.cell.payload, state.entries["A", 9].session, toy_params))
        assert (frame.subcommand, frame.stream_id, frame.data) == (
            RelaySubcommand.EXTENDED, 0, created.cell.payload)

    def test_created_after_the_extension_completed_is_ignored(self, toy_params, toy_bob,
                                                              bob_node):
        state, [create] = self._extend(toy_params, toy_bob, bob_node, ())
        charlie = NodeState(name="C", params=toy_params,
                            keypair=keypair_from_secrets(toy_params, 7, 17))
        _, [created] = relay_transition(charlie, "B", create.cell)
        state, [extended] = relay_transition(state, "C", created.cell)
        assert (extended.link, extended.cell.command) == ("A", CellCommand.RELAY)
        assert relay_transition(state, "C", created.cell) == (state, [])


class TestRelayHost:
    def test_delivers_echoes_and_drops(self, toy_params, toy_bob):
        relay = Relay("B", toy_params, toy_bob)
        [created] = relay.handle(
            "A", Cell(9, CellCommand.CREATE, build_create_payload(12, 40, 28, 1)))
        client, _ = client_create(toy_params, 9, "B", toy_bob.public,
                                  ScriptedRng([3, 13]))
        client, _ = client_handle_cell(client, created.cell)
        [reply] = relay.handle("A", client_send_data(client, 5, b"hi").cell)
        assert relay.delivered == [(5, b"hi")]
        assert client_handle_cell(client, reply.cell)[1] == [DeliverLocal(5, b"hi")]
        assert session_keys(relay) == [36]
        relay.drop_link("A")
        assert session_keys(relay) == []

    def test_keeps_its_maps_through_every_transition(self):
        # Each transition updates the host's two dicts in place, so a cell
        # costs the same however many circuits the relay holds.
        sim, client, nodes = build_simulation(16, 5)
        maps = {name: (node.state.entries, node.state.by_link) for name, node in nodes.items()}

        def entries_held():
            for name, node in nodes.items():
                assert node.state.entries is maps[name][0] and node.state.by_link is maps[name][1]
                assert node.state.by_link == link_index(node.state.entries)
            return [len(node.state.entries) for node in nodes.values()]

        # CREATE, EXTEND, CREATED, then RELAY both ways.
        assert run_build(sim, client, ["B", "C", "D"]).phase == Phase.READY
        run_send(sim, client, 1, b"ping")
        assert nodes["D"].delivered == [(1, b"ping")] and client.received == [(1, b"ping")]
        assert entries_held() == [1, 1, 1]
        sim.post("A", "B", Cell(1, CellCommand.DESTROY))
        sim.run()
        assert entries_held() == [0, 0, 0]
        assert run_build(sim, client, ["B", "C"], circ_id=2).phase == Phase.READY
        nodes["C"].drop_link("B")
        assert entries_held() == [1, 0, 0]
        assert [node.state.circ_seq for node in nodes.values()] == [3, 2, 1]


class TestLinkIndex:
    def test_circuits_ended_by_their_clients_leave_no_link(self):
        # As in the ``circuit_churn`` workload: each new client builds
        # B->C->D, and once more than 5 are open the oldest ends its circuit
        # with DESTROY and leaves. A link goes from the index with its last
        # circuit, so a relay that serves one client after another keeps none.
        sim, first, nodes = build_simulation(16, 5)
        standing = deque()

        def end_oldest():
            old = standing.popleft()
            sim.post(old.name, "B", Cell(old.state.circ_id, CellCommand.DESTROY))
            sim.run()
            del sim.hosts[old.name]
            links = {c.name for c in standing} | ({"C"} if standing else set())
            assert set(nodes["B"].state.by_link) == links

        for i in range(50):
            client = SimClient(f"U{i}", first.params, first.directory, first.rng)
            sim.add_host(client.name, client)
            assert run_build(sim, client, ["B", "C", "D"]).phase == Phase.READY
            standing.append(client)
            if len(standing) > 5:
                end_oldest()
        while standing:
            end_oldest()
        assert [(node.state.entries, node.state.by_link) for node in nodes.values()] == [
            ({}, {})] * 3

    def test_link_loss_costs_the_links_own_circuits(self, toy_params, toy_bob):
        # A relay holding n links of one circuit each, links numbered as TCP
        # inbound connections are, loses every one of them. 4 times as many
        # links may cost at most 8 times as much, in this thread's CPU time;
        # a loss that scans every circuit read about 16 times (Python 3.11,
        # 2-CPU host). Each turn runs the two sizes back to back and takes
        # their ratio, and the median of 5 turns is checked, so a slow spell
        # of a shared host spoils only its turns.
        session = SessionKey(36, 3, 4)

        def drop_every_link(count):
            entries = tuple(protocol.CircuitEntry(1, link, session) for link in range(count))
            state = protocol._apply(NodeState("B", toy_params, toy_bob),
                                    protocol.NodeDelta(put=entries))
            start = time.thread_time()
            for link in range(count):
                state = protocol._apply(state, node_drop_link(state, link))
            cost = time.thread_time() - start
            assert state.entries == state.by_link == {}
            return cost

        ratios = []
        for _ in range(5):
            small = drop_every_link(1000)
            ratios.append(drop_every_link(4000) / small)
        assert statistics.median(ratios) < 8


RELAY_NAMES = ("B", "C", "D")
relay_paths = st.lists(st.sampled_from(RELAY_NAMES), min_size=1, max_size=3).filter(
    lambda path: all(a != b for a, b in zip(path, path[1:])))
relay_builds = st.lists(st.tuples(st.just("build"), relay_paths, st.integers(1, 3)),
                        min_size=1, max_size=6)
relay_event = st.one_of(
    st.tuples(st.just("build"), relay_paths, st.integers(1, 3)),
    st.tuples(st.just("destroy"), st.integers(0, 15)),
    st.tuples(st.just("corrupt"), st.integers(0, 15), st.integers(0, 255)),
    st.tuples(st.just("drop"), st.sampled_from(RELAY_NAMES), st.integers(0, 15)),
)
relay_events = st.lists(relay_event, max_size=10)


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
                links = sorted(state.by_link)
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
                by_link = node.state.by_link
                assert by_link == link_index(node.state.entries)
                lost = {peer for pair in dead if name in pair for peer in pair - {name}}
                assert not by_link.keys() & lost


def _index_items(state):
    """``state.by_link`` as nested item lists, so that order counts too."""
    return [(link, list(ids.items())) for link, ids in state.by_link.items()]


class FoldedRelay(Relay):
    """A relay host that also folds each delta into a pure copy of its
    state with ``node_apply``, and checks that no transition changed the
    copy it was given."""

    def __init__(self, name, params, keypair):
        super().__init__(name, params, keypair)
        self.folded = NodeState(name, params, keypair)

    def handle(self, link, cell):
        self._fold(lambda state: node_handle_cell(state, link, cell)[0])
        return super().handle(link, cell)

    def drop_link(self, link):
        self._fold(lambda state: node_drop_link(state, link))
        super().drop_link(link)

    def _fold(self, transition):
        def contents(state):
            return list(state.entries.items()), _index_items(state), state.circ_seq
        before = contents(self.folded)
        delta = transition(self.folded)
        assert contents(self.folded) == before
        self.folded = node_apply(self.folded, delta)


# ``relay_event`` plus a DESTROY from a relay's next hop on one of its
# extended circuits, and a cell of any command with junk bytes from a
# client to its entry relay (refused, ignored or torn down).
delta_events = st.lists(st.one_of(
    relay_event,
    st.tuples(st.just("destroy_next"), st.sampled_from(RELAY_NAMES), st.integers(0, 15)),
    st.tuples(st.just("stray"), st.integers(0, 15), st.sampled_from(CellCommand),
              st.integers(1, 3)),
), max_size=12)


class TestRelayDeltas:
    @given(relay_builds, delta_events)
    @example([("build", ["B", "C", "D"], 1)],  # every kind of transition at least once
             [("stray", 0, CellCommand.RELAY, 3), ("stray", 0, CellCommand.CREATE, 2),
              ("stray", 0, CellCommand.CREATED, 1), ("destroy_next", "C", 0),
              ("build", ["C", "B"], 2), ("stray", 1, CellCommand.CREATE, 2),
              ("build", ["D", "B"], 3), ("corrupt", 2, 5), ("build", ["B", "D"], 1),
              ("destroy", 3), ("drop", "D", 0)])
    @settings(max_examples=settings.default.max_examples // 2, deadline=None)
    def test_in_place_host_matches_the_pure_fold(self, builds, events):
        # 50 examples, or 500 under ``thorough`` (see conftest).
        sim, first, _ = build_simulation(16, 5)
        relays = {name: FoldedRelay(name, first.params, sim.hosts[name].state.keypair)
                  for name in RELAY_NAMES}
        sim.hosts.update(relays)
        clients = []
        for step in builds + events:
            if step[0] == "build":
                client = SimClient(f"U{len(clients)}", first.params, first.directory,
                                   first.rng)
                sim.add_host(client.name, client)
                send = client.start_build(step[2], step[1])
                sim.post(client.name, send.link, send.cell)
                clients.append(client)
            elif step[0] == "drop":
                _, name, index = step
                state = relays[name].state
                links = sorted(state.by_link)
                if links:
                    peer = links[index % len(links)]
                    relays[name].drop_link(peer)
                    if peer in relays:
                        relays[peer].drop_link(name)
            elif step[0] == "destroy_next":
                _, name, index = step
                outs = [(link, circ_id) for link, ids in relays[name].state.by_link.items()
                        for circ_id, key in ids.items() if key != (link, circ_id)]
                if outs:
                    link, circ_id = outs[index % len(outs)]
                    sim.post(link, name, Cell(circ_id, CellCommand.DESTROY))
            elif clients:
                client = clients[step[1] % len(clients)]
                cell = Cell(client.state.circ_id, CellCommand.DESTROY)
                if step[0] == "corrupt":
                    payload = (client_send_data(client.state, 1, b"probe").cell.payload
                               if client.state.phase == Phase.READY else b"junk")
                    flip = step[2] % len(payload)
                    payload = payload[:flip] + bytes([payload[flip] ^ 0xFF]) + payload[flip + 1:]
                    cell = Cell(cell.circ_id, CellCommand.RELAY, payload)
                elif step[0] == "stray":
                    cell = Cell(step[3], step[2], b"junk")
                sim.post(client.name, client.path[0].name, cell)
            sim.run()
            for relay in relays.values():
                state, folded = relay.state, relay.folded
                assert list(state.entries.items()) == list(folded.entries.items())
                assert _index_items(state) == _index_items(folded)
                assert state.circ_seq == folded.circ_seq
                assert state.by_link == link_index(state.entries)


def _toy_world():
    """A toy relay B holding one READY circuit (A, 9) and one circuit (A, 10)
    pending its extension to C as (C, 1), and the client of each circuit in
    CREATING, READY and EXTENDING."""
    params = make_params(2, 2, 11)
    bob = keypair_from_secrets(params, 5, 15)
    node = NodeState(name="B", params=params, keypair=bob)
    clients = {}
    for circ_id in (9, 10):
        creating, create = client_create(params, circ_id, "B", bob.public,
                                         random.Random(circ_id))
        node, [created] = relay_transition(node, "A", create.cell)
        clients[circ_id] = creating, client_handle_cell(creating, created.cell)[0]
    creating, ready = clients[9]
    extending, extend = client_extend(clients[10][1], "C", bob.public, random.Random(3))
    node, [create_c] = relay_transition(node, "A", extend.cell)
    assert create_c.link == "C" and node.entries["A", 10].next_pending
    assert (ready.phase, extending.phase) == (Phase.READY, Phase.EXTENDING)
    return node, {"creating": creating, "ready": ready, "extending": extending}


TOY_NODE, TOY_CLIENTS = _toy_world()
# Handshake-shaped data at width 1: EXTEND data (a name of any bytes and
# three 1-byte fields) and CREATED payloads or EXTENDED data (33 bytes).
handshakes = st.one_of(
    st.builds(lambda name, rest: bytes([len(name)]) + name + rest,
              st.binary(max_size=8), st.binary(min_size=3, max_size=3)),
    st.binary(min_size=33, max_size=33))
relay_frames = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda sub, stream_id, data: encode_relay_frame(RelayFrame(sub, stream_id, data)),
              st.sampled_from(RelaySubcommand), st.integers(0, 0xFFFF),
              st.one_of(st.binary(max_size=64), handshakes)),
    st.builds(lambda sub, data: encode_relay_frame(RelayFrame(sub, 0, data)),
              st.sampled_from([RelaySubcommand.EXTEND, RelaySubcommand.EXTENDED]), handshakes))


def _cells(data, live, keys):
    """Half the time a random relay frame layered under ``keys`` in a RELAY
    cell on a ``live`` circuit, else any command on any circuit, with
    random bytes of any length or of a handshake's, or a layered frame."""
    layered = relay_frames.map(lambda f: onion_wrap(f, keys, TOY_NODE.params))
    if data.draw(st.booleans()):
        return data.draw(st.sampled_from(live)), CellCommand.RELAY, data.draw(layered)
    return (data.draw(st.sampled_from(live + [("A", 1), ("C", 9), ("D", 77)])),
            data.draw(st.sampled_from(CellCommand)),
            data.draw(st.one_of(st.binary(max_size=512), st.binary(min_size=3, max_size=3),
                                handshakes, layered)))


# Four times the loaded profile's examples: 400 by default, 4000 under
# ``thorough`` (see conftest).
MALFORMED_SETTINGS = settings(max_examples=4 * settings.default.max_examples, deadline=None)


class TestMalformedInputNeverRaises:
    # Every malformed input fails at most its own circuit: no transition
    # raises, and each one that tears a circuit down says so.
    @given(st.data())
    @MALFORMED_SETTINGS
    def test_relay(self, data):
        (link, circ_id), command, payload = _cells(
            data, [("A", 9), ("A", 10), ("C", 1)], [TOY_NODE.entries["A", 9].session])
        state, actions = relay_transition(TOY_NODE, link, Cell(circ_id, command, payload))
        destroys = [a for a in actions
                    if isinstance(a, SendCell) and a.cell.command == CellCommand.DESTROY]
        lost = TOY_NODE.entries.keys() - state.entries.keys()
        assert len(lost) <= 1
        if destroys or lost:
            assert any(isinstance(a, TearDown) for a in actions)

    @given(st.data())
    @MALFORMED_SETTINGS
    def test_client(self, data):
        state = TOY_CLIENTS[data.draw(st.sampled_from(sorted(TOY_CLIENTS)))]
        check_hop_keys(state)
        keys = [hop.session for hop in state.hops if hop.confirmed]
        (_, circ_id), command, payload = _cells(data, [("B", state.circ_id)], keys[::-1])
        new, actions = client_handle_cell(state, Cell(circ_id, command, payload))
        check_hop_keys(new)
        teardowns = [a for a in actions if isinstance(a, TearDown)]
        # The one cell a client sends on an inbound cell: DESTROY to its
        # entry hop, when that cell fails the circuit.
        sends = [a for a in actions if not isinstance(a, (TearDown, DeliverLocal))]
        destroy = SendCell(state.hops[0].node_name, Cell(state.circ_id, CellCommand.DESTROY))
        assert sends == ([destroy] if teardowns else [])
        if teardowns:
            assert new.phase == Phase.FAILED
            assert [a.reason for a in teardowns] == [new.failure]
        if new.phase == Phase.FAILED:
            assert new.failure


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
                state, [send] = relay_transition(state, "A", cell)
                assert send.cell.command == CellCommand.CREATED
                replies[params is shared].append(send.cell.payload)
        assert plain._mix_tables == {}
        assert shared._mix_tables == before
        assert all(shared._mix_tables[pub] is rows for pub, rows in before.items())
        assert replies[True] == replies[False]


# The records every cell, frame, action and handshake creates: each with
# its fields in order and their defaults.
RECORDS = [pytest.param(cls, fields, defaults, id=cls.__name__) for cls, fields, defaults in [
    (Cell, ("circ_id", "command", "payload"), {"payload": b""}),
    (RelayFrame, ("subcommand", "stream_id", "data"), {"data": b""}),
    (SendCell, ("link", "cell"), {}),
    (DeliverLocal, ("stream_id", "data"), {}),
    (TearDown, ("circ_id", "reason"), {}),
    (TranscriptEntry, ("step", "direction", "data"), {}),
    (PublicConstructor, ("P", "Q"), {}),
    (PrivateKey, ("x", "y", "k"), {}),
    (KeyPair, ("public", "private"), {}),
    (SessionKey, ("raw", "reduced", "reduced_inv"), {}),
]]


class TestRecords:
    @pytest.mark.parametrize("cls, fields, defaults", RECORDS)
    def test_fields_in_order_with_defaults(self, cls, fields, defaults):
        params = inspect.signature(cls).parameters
        assert tuple(params) == fields
        assert {name: p.default for name, p in params.items()
                if p.default is not p.empty} == defaults
        record = cls(**{name: i for i, name in enumerate(fields)})
        assert [getattr(record, name) for name in fields] == list(range(len(fields)))

    @pytest.mark.parametrize("cls, fields, defaults", RECORDS)
    def test_immutable_and_hashable(self, cls, fields, defaults):
        record = cls(*range(len(fields)))
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, -1)
        twin = cls(*range(len(fields)))
        assert twin == record and hash(twin) == hash(record)

    def test_module_names_are_the_phases(self):
        for phase in Phase:
            assert getattr(protocol, phase.name) is phase
