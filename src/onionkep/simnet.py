"""Deterministic in-process network simulator with transcript capture.

Single-threaded event loop: one (src, dst, cell) event is popped at a time
in FIFO order, handed to the destination host, and the SendCell actions it
returns are enqueued. The hosts are ``protocol.Relay`` (as ``SimNode``) and
``protocol.Client`` (as ``SimClient``), the hosts of the TCP runtime too,
so this module only moves cells. A cell for a host the net does not have
is not delivered and its sender loses that link, as a relay whose connect
fails over TCP does. Time is a step counter; equal seeds and scripts
produce byte-identical transcripts.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .directory import Directory, NodeDescriptor
from .errors import StepBudgetExceeded
from . import protocol
from .nikep import gen_keypair, gen_params, params_digest
from .onioncrypt import Cell, encode_cell
from .protocol import DEFAULT_CONFIG, CircuitState, ProtocolConfig, TamperFn


@dataclass(frozen=True)
class TranscriptEntry:
    step: int
    link: str
    direction: str
    data: bytes


class Transcript:
    """Append-only capture of every cell crossing every link."""

    def __init__(self):
        self.entries: list[TranscriptEntry] = []

    def append(self, entry: TranscriptEntry) -> None:
        self.entries.append(entry)

    def serialize(self) -> bytes:
        out = []
        for e in self.entries:
            out.append(f"{e.step} {e.direction} ".encode() + e.data.hex().encode() + b"\n")
        return b"".join(out)

    def on_link(self, a: str, b: str) -> list[TranscriptEntry]:
        link = "-".join(sorted((a, b)))
        return [e for e in self.entries if e.link == link]

    def commands(self) -> list[str]:
        from .onioncrypt import decode_cell
        return [decode_cell(e.data).command.name for e in self.entries]


SimNode = protocol.Relay
SimClient = protocol.Client


class SimNet:
    """Owns the hosts, the FIFO event queue and the transcript."""

    def __init__(self, step_budget: int = 100_000):
        self.hosts: dict[str, object] = {}
        self.queue: deque[tuple[str, str, Cell]] = deque()
        self.transcript = Transcript()
        self.step = 0
        self.step_budget = step_budget
        self.tamper: TamperFn | None = None

    def add_host(self, name: str, host) -> None:
        self.hosts[name] = host

    def post(self, src: str, dst: str, cell: Cell) -> None:
        self.queue.append((src, dst, cell))

    def run(self) -> None:
        while self.queue:
            src, dst, cell = self.queue.popleft()
            self.step += 1
            if self.step > self.step_budget:
                raise StepBudgetExceeded(f"exceeded {self.step_budget} steps")
            if dst not in self.hosts:
                self.hosts[src].drop_link(dst)
                continue
            if self.tamper is not None:
                tampered = self.tamper(src, dst, cell)
                if tampered is None:
                    continue  # scripted drop
                cell = tampered
            self.transcript.append(TranscriptEntry(
                step=self.step, link="-".join(sorted((src, dst))),
                direction=f"{src}->{dst}", data=encode_cell(cell)))
            for send in self.hosts[dst].handle(src, cell):
                self.post(dst, send.link, send.cell)


def build_simulation(r_bits: int, seed: int, node_names=("B", "C", "D"),
                     config: ProtocolConfig = DEFAULT_CONFIG,
                     echo_data: bool = False) -> tuple[SimNet, SimClient, dict[str, SimNode]]:
    """Seeded world: parameters, registered relays and one client host 'A'."""
    rng = random.Random(seed)
    params = gen_params(r_bits, rng)
    digest = params_digest(params)
    directory = Directory(digest)
    sim = SimNet()
    nodes: dict[str, SimNode] = {}
    for name in node_names:
        keypair = gen_keypair(params, rng)
        node = SimNode(name, params, keypair, config=config, echo_data=echo_data)
        nodes[name] = node
        sim.add_host(name, node)
        directory.register(NodeDescriptor(name=name, address=f"sim://{name}",
                                          public=keypair.public, params_digest=digest))
    client = SimClient("A", params, directory, rng, config=config)
    sim.add_host("A", client)
    return sim, client, nodes


def run_build(sim: SimNet, client: SimClient, path: list[str], circ_id: int = 1) -> CircuitState:
    send = client.start_build(circ_id, path)
    sim.post(client.name, send.link, send.cell)
    sim.run()
    return client.state


def run_send(sim: SimNet, client: SimClient, stream_id: int, data: bytes) -> None:
    send = protocol.client_send_data(client.state, stream_id, data)
    sim.post(client.name, send.link, send.cell)
    sim.run()
