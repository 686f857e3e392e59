"""Deterministic simulator: build traces, transcripts, tampering, budgets."""

import random

import pytest

from onionkep import decode_cell
from onionkep.errors import StepBudgetExceeded
from onionkep.protocol import Phase, client_create
from onionkep.simnet import build_simulation, run_build, run_send

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
        got = [nodes[name].session_keys() for name in ("B", "C", "D")]
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
        assert sim.transcript.on_link("A", "B")
        assert sim.transcript.on_link("A", "D") == []


class TestData:
    def test_exit_delivery_and_echo(self):
        sim, client, nodes = build_simulation(16, 7, echo_data=True)
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

    def test_queued_sends_flush_after_build(self):
        sim, client, nodes = build_simulation(16, 9, echo_data=True)
        client.queue_send(1, b"early")
        run_build(sim, client, ["B", "C", "D"])
        assert nodes["D"].delivered == [(1, b"early")]


class TestDeterminism:
    def test_equal_seeds_equal_transcripts(self):
        transcripts = []
        for _ in range(2):
            sim, client, _ = build_simulation(16, 21)
            run_build(sim, client, ["B", "C", "D"])
            run_send(sim, client, 1, b"payload")
            transcripts.append(sim.transcript.serialize())
        assert transcripts[0] == transcripts[1]

    def test_different_seeds_differ(self):
        outs = []
        for seed in (1, 2):
            sim, client, _ = build_simulation(16, seed)
            run_build(sim, client, ["B", "C", "D"])
            outs.append(sim.transcript.serialize())
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


class TestStepBudget:
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
        lines = sim.transcript.serialize().decode().splitlines()
        assert len(lines) == len(sim.transcript.entries)
        for line, entry in zip(lines, sim.transcript.entries):
            step, direction, data = line.split(" ")
            assert int(step) == entry.step
            assert direction == entry.direction
            assert decode_cell(bytes.fromhex(data)) == decode_cell(entry.data)
