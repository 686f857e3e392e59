"""Deterministic simulator: build traces, transcripts, tampering, budgets."""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from onionkep import Cell, CellCommand, decode_cell
from onionkep.errors import StepBudgetExceeded
from onionkep.protocol import Phase, client_create, client_extend, client_send_data
from onionkep.simnet import SimClient, SimNet, build_simulation, run_build, run_send
from conftest import (built_tables, check_hop_keys, on_link, raw_extend_cell, serialize,
                      session_keys)

EXPECTED_BUILD_COMMANDS = [
    "CREATE", "CREATED", "RELAY",            # hop 1 up, then extend to hop 2
    "CREATE", "CREATED", "RELAY", "RELAY",   # hop 2 handshake relayed back
    "RELAY",                                 # extend to hop 3
    "CREATE", "CREATED", "RELAY", "RELAY",   # hop 3 handshake relayed back
]


class TestBuild:
    def test_three_hop_circuit_ready(self):
        sim, client, nodes = build_simulation(16, 7)
        state = run_build(sim, client, ["B", "C", "D"])
        assert state.phase == Phase.READY
        assert len(state.hops) == 3
        assert all(h.confirmed for h in state.hops)

    def test_cell_sequence(self):
        sim, client, _ = build_simulation(16, 7)
        run_build(sim, client, ["B", "C", "D"])
        assert sim.transcript.commands() == EXPECTED_BUILD_COMMANDS

    def test_each_relay_holds_one_session(self):
        sim, client, nodes = build_simulation(16, 7)
        state = run_build(sim, client, ["B", "C", "D"])
        expected = [h.session.raw for h in state.hops]
        got = [session_keys(nodes[name]) for name in ("B", "C", "D")]
        assert got == [[expected[0]], [expected[1]], [expected[2]]]
        # Sessions are pairwise distinct: no relay learns another's key.
        assert len(set(expected)) == 3

    def test_link_locality(self):
        # A talks only to B; D never sees a cell from A directly.
        sim, client, _ = build_simulation(16, 7)
        run_build(sim, client, ["B", "C", "D"])
        for entry in sim.transcript.entries:
            src, dst = entry.direction.split("->")
            assert {src, dst} in ({"A", "B"}, {"B", "C"}, {"C", "D"})
        assert on_link(sim.transcript, "A", "B")
        assert on_link(sim.transcript, "A", "D") == []


class TestData:
    def test_exit_delivery_and_echo(self):
        sim, client, nodes = build_simulation(16, 7)
        run_build(sim, client, ["B", "C", "D"])
        run_send(sim, client, 4, b"hello onion world")
        assert nodes["D"].delivered == [(4, b"hello onion world")]
        assert nodes["B"].delivered == [] and nodes["C"].delivered == []
        assert client.received == [(4, b"hello onion world")]

    def test_payload_not_visible_on_any_link(self):
        sim, client, nodes = build_simulation(16, 7)
        run_build(sim, client, ["B", "C", "D"])
        secret = b"attack at dawn"
        run_send(sim, client, 1, secret)
        assert nodes["D"].delivered == [(1, secret)]
        for entry in sim.transcript.entries:
            assert secret not in entry.data

    def test_hosts_keep_only_their_latest_deliveries(self):
        sim, client, nodes = build_simulation(16, 7)
        run_build(sim, client, ["B", "C", "D"])
        for i in range(500):
            run_send(sim, client, 1, b"echo %d" % i)
        latest = [(1, b"echo %d" % i) for i in range(500 - 64, 500)]
        assert nodes["D"].delivered == latest
        assert client.received == latest
        assert client.received[-1] == (1, b"echo 499")


class TestDeterminism:
    def test_equal_seeds_equal_transcripts(self):
        transcripts = []
        for _ in range(2):
            sim, client, _ = build_simulation(16, 21)
            run_build(sim, client, ["B", "C", "D"])
            run_send(sim, client, 1, b"payload")
            transcripts.append(serialize(sim.transcript))
        assert transcripts[0] == transcripts[1]

    def test_different_seeds_differ(self):
        outs = []
        for seed in (1, 2):
            sim, client, _ = build_simulation(16, seed)
            run_build(sim, client, ["B", "C", "D"])
            outs.append(serialize(sim.transcript))
        assert outs[0] != outs[1]


class TestTampering:
    def test_random_corruption_always_fails_closed(self):
        # Flip one random byte of one random backward cell per trial; the
        # client must end FAILED and never confirm a corrupted handshake.
        for trial in range(25):
            rng = random.Random(trial)
            sim, client, _ = build_simulation(16, 7)
            target = rng.randrange(0, 3)  # which A-bound cell to corrupt
            seen = [0]

            def tamper(src, dst, cell, _target=target, _seen=seen, _rng=rng):
                if dst != "A":
                    return cell
                idx, _seen[0] = _seen[0], _seen[0] + 1
                if idx != _target or not cell.payload:
                    return cell
                raw = bytearray(cell.payload)
                pos = _rng.randrange(len(raw))
                raw[pos] ^= 1 << _rng.randrange(8)
                return type(cell)(cell.circ_id, cell.command, bytes(raw))

            sim.tamper = tamper
            state = run_build(sim, client, ["B", "C", "D"])
            assert state.phase == Phase.FAILED
            assert "CircuitIntegrityFailure" in (state.failure or "")

    def test_dropped_cell_stalls_without_error(self):
        sim, client, _ = build_simulation(16, 7)
        sim.tamper = lambda src, dst, cell: None if dst == "A" else cell
        state = run_build(sim, client, ["B", "C", "D"])
        assert state.phase == Phase.CREATING


class TestTeardown:
    def test_duplicate_create_frees_the_whole_path(self):
        # A second CREATE on a live circuit id destroys that circuit; no
        # relay on its path may keep an entry for it.
        sim, client, nodes = build_simulation(32, 7)
        run_build(sim, client, ["B", "C", "D"])
        _, send = client_create(client.params, client.state.circ_id, "B",
                                client.path[0].public, client.rng)
        sim.post(client.name, send.link, send.cell)
        sim.run()
        assert client.state.failure == "destroyed by relay"
        assert {name: len(node.state.entries) for name, node in nodes.items()} == \
            {"B": 0, "C": 0, "D": 0}


    def test_non_utf8_extend_name_is_destroyed(self):
        sim, client, nodes = build_simulation(16, 7)
        run_build(sim, client, ["B", "C"])
        sim.post(client.name, "B", raw_extend_cell(client.state, b"\xff"))
        sim.run()
        assert client.state.failure == "destroyed by relay"
        assert {name: len(node.state.entries) for name, node in nodes.items()} == \
            {"B": 0, "C": 0, "D": 0}


class TestUnknownHost:
    def test_relay_loses_only_the_link_it_could_not_open(self):
        # A client extends toward "Z", which the net does not have: B cannot
        # open that link, so it hears DESTROY as if Z had refused, as after a
        # failed connect over TCP, and fails that one circuit back to A; a
        # bystander circuit through B still echoes.
        sim, client, nodes = build_simulation(16, 7)
        bystander = SimClient("U", client.params, client.directory, client.rng)
        sim.add_host(bystander.name, bystander)
        assert run_build(sim, bystander, ["B", "C", "D"]).phase == Phase.READY
        assert run_build(sim, client, ["B"]).phase == Phase.READY
        client.state, send = client_extend(client.state, "Z",
                                           nodes["C"].state.keypair.public, client.rng)
        sim.post(client.name, send.link, send.cell)
        sim.run()
        assert not [e for e in sim.transcript.entries if "Z" in e.direction]
        assert [e.prev_link for e in nodes["B"].state.entries.values()] == ["U"]
        run_send(sim, bystander, 1, b"still here")
        assert bystander.received == [(1, b"still here")]

    def test_echo_toward_a_departed_client_costs_only_its_entry_relay(self):
        # B cannot deliver the echo to A, which has left, so it drops that
        # link and the circuit on it. No DESTROY goes onward: C and D keep
        # the circuit.
        sim, client, nodes = build_simulation(16, 7)
        assert run_build(sim, client, ["B", "C", "D"]).phase == Phase.READY
        send = client_send_data(client.state, 1, b"bye")
        sim.hosts.pop("A")
        sim.post("A", send.link, send.cell)
        sim.run()
        assert nodes["D"].delivered == [(1, b"bye")]
        assert {name: len(node.state.entries) for name, node in nodes.items()} == \
            {"B": 0, "C": 1, "D": 1}

    def test_client_that_loses_its_entry_link_fails_its_circuit(self):
        # B has left: the client cannot send to it, so it loses that link
        # and the circuit on it.
        sim, client, _ = build_simulation(32, 5)
        assert run_build(sim, client, ["B", "C", "D"]).phase == Phase.READY
        del sim.hosts["B"]
        run_send(sim, client, 1, b"lost")
        assert (client.state.phase, client.state.failure) == (Phase.FAILED, "entry link lost")


class TestLinkModel:
    # One link carries circuit ids drawn by both of its ends, and a relay
    # may appear on a path more than once or be asked to extend anywhere.
    def test_circuit_ids_reused_in_both_directions_of_a_link(self):
        # X runs C->B and Y runs B->C, both with circuit id 1: C draws id 1
        # toward B for X, so B must draw another toward C for Y.
        sim, x, _ = build_simulation(64, 0)
        y = SimClient("Y", x.params, x.directory, x.rng)
        sim.add_host(y.name, y)
        assert run_build(sim, x, ["C", "B"], circ_id=1).phase == Phase.READY
        assert run_build(sim, y, ["B", "C"], circ_id=1).phase == Phase.READY
        run_send(sim, x, 1, b"to B")
        run_send(sim, y, 1, b"to C")
        assert (x.received, y.received) == ([(1, b"to B")], [(1, b"to C")])

    def test_path_through_one_relay_twice(self):
        sim, client, nodes = build_simulation(16, 7, node_names=("B", "C"))
        assert run_build(sim, client, ["B", "C", "B"]).phase == Phase.READY
        run_send(sim, client, 1, b"twice")
        assert client.received == [(1, b"twice")]
        assert [len(node.state.entries) for node in nodes.values()] == [2, 1]

    def test_relay_extending_to_itself_is_destroyed(self):
        # B tears the circuit down before it draws an id for itself.
        sim, client, nodes = build_simulation(16, 7)
        assert run_build(sim, client, ["B", "B"]).failure == "destroyed by relay"
        assert (nodes["B"].state.entries, nodes["B"].state.nexts) == ({}, {})

    @pytest.mark.parametrize("name", ["A", "U"])
    def test_extend_naming_a_client_host_fails_that_circuit(self, name):
        # A client host is not a relay, so B cannot open a circuit to it.
        sim, client, nodes = build_simulation(16, 7)
        sim.add_host("U", SimClient("U", client.params, client.directory, client.rng))
        assert run_build(sim, client, ["B"]).phase == Phase.READY
        sim.post(client.name, "B", raw_extend_cell(client.state, name.encode()))
        sim.run()
        assert client.state.failure == "destroyed by relay"
        assert [e.direction for e in sim.transcript.entries
                if decode_cell(e.data).command == CellCommand.CREATE] == ["A->B"]
        assert nodes["B"].state.entries == {}


class SimNetLinkModel(RuleBasedStateMachine):
    """Clients build circuits over relays B, C and D in any order, repeats
    included, then use, destroy, corrupt or misdirect them, or have a reply
    toward them corrupted. Every step runs the net until it is quiet, so
    after it every circuit has an outcome, every relay's maps agree and the
    relays hold exactly the circuits their clients still hold open. Cells
    are never dropped and links never lost: the simulator has no timeouts,
    so a lost cell stalls by design."""

    clients = Bundle("clients")

    def __init__(self):
        super().__init__()
        self.sim, self.first, self.nodes = build_simulation(16, 3)
        self.built: list[SimClient] = []
        self.destroyed: set[str] = set()  # clients whose circuit the ``destroy`` rule ended
        self.checked = 0

    @rule(target=clients, path=st.lists(st.sampled_from("BCD"), min_size=1, max_size=3),
          circ_id=st.integers(1, 3))
    def build(self, path, circ_id):
        client = SimClient(f"U{len(self.built)}", self.first.params, self.first.directory,
                           self.first.rng)
        self.sim.add_host(client.name, client)
        self.built.append(client)
        # The net is quiet, so a build fails only where a relay is asked to
        # extend to itself, which it refuses.
        repeats = any(a == b for a, b in zip(path, path[1:]))
        assert run_build(self.sim, client, path, circ_id).phase == (
            Phase.FAILED if repeats else Phase.READY)
        return client

    @rule(client=clients, data=st.binary(max_size=32))
    def send(self, client, data):
        if client.state.phase == Phase.READY:
            client.received.clear()
            run_send(self.sim, client, 1, data)
            assert client.received == [(1, data)] or client.state.phase == Phase.FAILED

    @rule(client=clients)
    def destroy(self, client):
        self.destroyed.add(client.name)
        self.post(client, Cell(client.state.circ_id, CellCommand.DESTROY))

    @rule(client=clients, index=st.integers(0, 255), mask=st.integers(1, 255))
    def corrupt(self, client, index, mask):
        payload = bytearray(client_send_data(client.state, 1, b"probe").cell.payload
                            if client.state.phase == Phase.READY else b"junk")
        payload[index % len(payload)] ^= mask
        self.post(client, Cell(client.state.circ_id, CellCommand.RELAY, bytes(payload)))

    @rule(client=clients, index=st.integers(0, 255), mask=st.integers(1, 255))
    def corrupt_reply(self, client, index, mask):
        # Flip bits of the first RELAY cell toward the client: its echo.
        def tamper(src, dst, cell):
            if dst != client.name or cell.command != CellCommand.RELAY:
                return cell
            self.sim.tamper = None
            payload = bytearray(cell.payload)
            payload[index % len(payload)] ^= mask
            return Cell(cell.circ_id, cell.command, bytes(payload))

        if client.state.phase == Phase.READY:
            self.sim.tamper = tamper
            run_send(self.sim, client, 1, b"probe")
            self.sim.tamper = None

    @rule(client=clients, name=st.sampled_from(["A", "U0", "U1", "Z"]))
    def extend_to_non_relay(self, client, name):
        if client.state.phase == Phase.READY:
            self.post(client, raw_extend_cell(client.state, name.encode()))
            assert client.state.failure == "destroyed by relay"

    def post(self, client, cell):
        self.sim.post(client.name, client.path[0].name, cell)
        self.sim.run()

    @invariant()
    def every_circuit_has_an_outcome(self):
        assert all(c.state.phase in (Phase.READY, Phase.FAILED) for c in self.built)

    @invariant()
    def relay_maps_agree(self):
        for node in self.nodes.values():
            entries, nexts = node.state.entries, node.state.nexts
            assert not entries.keys() & nexts.keys()
            assert nexts == {(e.next_link, e.next_circ_id): key
                             for key, e in entries.items() if e.next_link is not None}

    @invariant()
    def relays_hold_exactly_the_open_circuits(self):
        # One entry per hop of each circuit its client holds READY and the
        # ``destroy`` rule has not ended; a failed circuit leaves none.
        open_hops = sum(len(c.state.hops) for c in self.built
                        if c.state.phase == Phase.READY and c.name not in self.destroyed)
        assert sum(len(node.state.entries) for node in self.nodes.values()) == open_hops

    @invariant()
    def creates_reach_only_other_relays(self):
        # No CREATE goes to a client host, and no relay sends one to itself.
        for entry in self.sim.transcript.entries[self.checked:]:
            src, dst = entry.direction.split("->")
            if decode_cell(entry.data).command == CellCommand.CREATE:
                assert dst in self.nodes and dst != src
        self.checked = len(self.sim.transcript.entries)

    @invariant()
    def hops_keep_only_what_the_handshake_reads(self):
        for client in self.built:
            check_hop_keys(client.state)


# max_examples comes from the loaded profile: see ``thorough`` in conftest.
SimNetLinkModel.TestCase.settings = settings(deadline=None, stateful_step_count=20)
TestSimNetLinkModel = SimNetLinkModel.TestCase


class TestStepBudget:
    def test_default_budget(self):
        assert SimNet().step_budget == 100_000

    def test_budget_enforced(self):
        sim, client, _ = build_simulation(16, 7)
        sim.step_budget = 3
        with pytest.raises(StepBudgetExceeded):
            run_build(sim, client, ["B", "C", "D"])

    def test_normal_build_well_under_budget(self):
        sim, client, _ = build_simulation(16, 7)
        run_build(sim, client, ["B", "C", "D"])
        assert sim.step == len(EXPECTED_BUILD_COMMANDS)


class TestTranscript:
    def test_serialize_is_parseable(self):
        sim, client, _ = build_simulation(16, 7)
        run_build(sim, client, ["B", "C", "D"])
        lines = serialize(sim.transcript).decode().splitlines()
        assert len(lines) == len(sim.transcript.entries)
        for line, entry in zip(lines, sim.transcript.entries):
            step, direction, data = line.split(" ")
            assert int(step) == entry.step
            assert direction == entry.direction
            assert decode_cell(bytes.fromhex(data)) == decode_cell(entry.data)


class TestMixTables:
    PATH = ["B", "C", "D"]

    @staticmethod
    def new_client(sim, first, name):
        client = SimClient(name, first.params, first.directory, first.rng)
        sim.add_host(name, client)
        return client

    def test_second_build_tabulates_each_relay(self):
        sim, client, nodes = build_simulation(64, 7)
        assert run_build(sim, client, self.PATH).phase == Phase.READY
        assert built_tables(client.params) == {}
        second = self.new_client(sim, client, "A2")
        assert run_build(sim, second, self.PATH).phase == Phase.READY
        assert built_tables(client.params).keys() \
            == {node.state.keypair.public for node in nodes.values()}

    def test_fifty_builds_leave_three_tables(self):
        # The relays mix 150 ephemeral constructors in these builds; none
        # may leave an entry behind.
        sim, client, nodes = build_simulation(64, 8)
        params = client.params
        for i in range(50):
            assert run_build(sim, self.new_client(sim, client, f"A{i}"),
                             self.PATH).phase == Phase.READY
            if i == 1:
                tables = built_tables(params)
        assert params._mix_tables.keys() == {node.state.keypair.public
                                             for node in nodes.values()}
        assert all(built_tables(params)[pub] is rows for pub, rows in tables.items())
