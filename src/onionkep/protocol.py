"""Client and relay state machines for telescoping circuit construction.

Every transition is a pure function from (state, input cell) to
(new state, ordered list of output actions); states are frozen dataclasses
and nothing here performs I/O, so identical inputs always replay to
identical outputs.

Every protocol rule lives here once. ``Client`` is the one client host,
which drives its build through ``client_step``, and ``Relay`` the one
relay host: both runtimes (``simnet`` and ``transport``) use them and only
move the resulting cells.

A relay finds a circuit from the (link, circ_id) a cell arrives with, in
two maps of its NodeState: ``entries`` is keyed by the previous hop's side,
(prev_link, circ_id), and ``nexts`` by the next hop's side,
(next_link, next_circ_id), pointing back at the ``entries`` key. Both maps
are copied on write, so a transition never changes the state it was given.

Circuit build runs hop by hop: CREATE/CREATED establishes the entry hop,
then each extension travels as an EXTEND relay frame tunnelled through the
already-built prefix, is turned into a CREATE by the current terminal hop,
and comes back as an EXTENDED relay frame. Every confirmation payload
carries a digest of the shared key; a digest mismatch fails the circuit
unconditionally.

Two relay-layering modes exist (ProtocolConfig.peel_per_hop):

* True (default): the client wraps relayed frames once per established
  hop and every relay peels (forward) or adds (backward) exactly one
  layer. This matches the nested onion data flow.
* False: frames are wrapped only for the hop that will consume them and
  intermediate relays forward relay cells opaquely, reproducing the
  sequence-diagram encryptions literally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Union

from .errors import (
    MalformedPayload,
    MalformedSessionKey,
    NonInvertible,
    NotReady,
    TruncatedCell,
    TruncatedFrame,
    UnknownSubcommand,
)
from .nikep import (
    KeyPair,
    PublicConstructor,
    SessionKey,
    SystemParams,
    derive_session_key,
    gen_keypair,
    mix,
)
from .onioncrypt import (
    Cell,
    CellCommand,
    RelayFrame,
    RelaySubcommand,
    build_create_payload,
    build_created_payload,
    build_extend_data,
    chunk_decrypt,
    chunk_encrypt,
    decode_relay_frame,
    encode_relay_frame,
    key_digest,
    onion_wrap,
    parse_create_payload,
    parse_created_payload,
    parse_extend_data,
)

INTEGRITY_FAILURE = "CircuitIntegrityFailure"


@dataclass(frozen=True)
class ProtocolConfig:
    peel_per_hop: bool = True


DEFAULT_CONFIG = ProtocolConfig()


class Phase(Enum):
    CREATING = "creating"
    EXTENDING = "extending"
    READY = "ready"
    FAILED = "failed"


@dataclass(frozen=True)
class HopKeys:
    node_name: str
    ephemeral: KeyPair
    session: SessionKey | None = None
    confirmed: bool = False


@dataclass(frozen=True)
class CircuitState:
    params: SystemParams
    circ_id: int
    hops: tuple[HopKeys, ...]
    phase: Phase
    config: ProtocolConfig = DEFAULT_CONFIG
    failure: str | None = None


# -- actions -----------------------------------------------------------------

@dataclass(frozen=True)
class SendCell:
    link: str
    cell: Cell


@dataclass(frozen=True)
class DeliverLocal:
    stream_id: int
    data: bytes


@dataclass(frozen=True)
class TearDown:
    circ_id: int
    reason: str


Action = Union[SendCell, DeliverLocal, TearDown]

# Link-level test hook of both runtimes: the cell to deliver, or None to drop.
TamperFn = Callable[[str, str, Cell], Union[Cell, None]]


# -- client side -------------------------------------------------------------

def client_create(params: SystemParams, circ_id: int, node_name: str,
                  node_pub: PublicConstructor, rng: random.Random,
                  config: ProtocolConfig = DEFAULT_CONFIG) -> tuple[CircuitState, SendCell]:
    """Open a circuit to the entry node with a fresh ephemeral constructor."""
    eph = gen_keypair(params, rng)
    v = mix(params, node_pub, eph.private)
    payload = build_create_payload(v, eph.public.P, eph.public.Q, params.residue_width)
    state = CircuitState(params=params, circ_id=circ_id,
                         hops=(HopKeys(node_name=node_name, ephemeral=eph),),
                         phase=Phase.CREATING, config=config)
    return state, SendCell(node_name, Cell(circ_id, CellCommand.CREATE, payload))


def client_extend(state: CircuitState, node_name: str, node_pub: PublicConstructor,
                  rng: random.Random) -> tuple[CircuitState, SendCell]:
    """Tunnel an EXTEND frame for the next hop through the built prefix."""
    if state.phase != Phase.READY:
        raise NotReady(f"cannot extend a circuit in phase {state.phase.value}")
    params = state.params
    eph = gen_keypair(params, rng)
    v = mix(params, node_pub, eph.private)
    data = build_extend_data(node_name, v, eph.public.P, eph.public.Q,
                             params.residue_width)
    frame = encode_relay_frame(RelayFrame(RelaySubcommand.EXTEND, 0, data))
    payload = onion_wrap(frame, _layer_keys(state)[::-1], params)
    new_state = replace(state,
                        hops=state.hops + (HopKeys(node_name=node_name, ephemeral=eph),),
                        phase=Phase.EXTENDING)
    return new_state, SendCell(state.hops[0].node_name,
                               Cell(state.circ_id, CellCommand.RELAY, payload))


def client_send_data(state: CircuitState, stream_id: int, data: bytes) -> SendCell:
    """Wrap application data for the exit hop; innermost layer is the exit key."""
    if state.phase != Phase.READY:
        raise NotReady(f"cannot send on a circuit in phase {state.phase.value}")
    frame = encode_relay_frame(RelayFrame(RelaySubcommand.DATA, stream_id, data))
    payload = onion_wrap(frame, _layer_keys(state)[::-1], state.params)
    return SendCell(state.hops[0].node_name,
                    Cell(state.circ_id, CellCommand.RELAY, payload))


def client_handle_cell(state: CircuitState, cell: Cell) -> tuple[CircuitState, list[Action]]:
    """Feed one inbound cell to the client machine."""
    if cell.circ_id != state.circ_id or state.phase == Phase.FAILED:
        return state, []
    if cell.command == CellCommand.CREATED:
        if state.phase != Phase.CREATING:
            return state, []
        try:
            v, digest = parse_created_payload(cell.payload, state.params.residue_width)
        except TruncatedCell:
            return _fail(state, "malformed CREATED payload")
        return _confirm_hop(state, v, digest)
    if cell.command == CellCommand.RELAY:
        return _client_handle_relay(state, cell)
    if cell.command == CellCommand.DESTROY:
        return replace(state, phase=Phase.FAILED, failure="destroyed by relay"), []
    return state, []


def client_step(state: CircuitState, cell: Cell, path,
                rng: random.Random) -> tuple[CircuitState, list[Action]]:
    """Build driver: feed one cell, then, once the built prefix is READY,
    extend toward the next descriptor (``name``, ``public``) of ``path``."""
    state, actions = client_handle_cell(state, cell)
    if state.phase == Phase.READY and len(state.hops) < len(path):
        desc = path[len(state.hops)]
        state, send = client_extend(state, desc.name, desc.public, rng)
        actions = actions + [send]
    return state, actions


def _client_handle_relay(state: CircuitState, cell: Cell) -> tuple[CircuitState, list[Action]]:
    payload = cell.payload
    try:
        for key in _layer_keys(state):
            payload = chunk_decrypt(payload, key, state.params)
        frame = decode_relay_frame(payload)
    except (MalformedPayload, TruncatedFrame, UnknownSubcommand):
        return _fail(state, "malformed relay payload")
    if frame.subcommand == RelaySubcommand.EXTENDED:
        if state.phase != Phase.EXTENDING:
            return state, []
        try:
            v, digest = parse_created_payload(frame.data, state.params.residue_width)
        except TruncatedCell:
            return _fail(state, "malformed EXTENDED data")
        return _confirm_hop(state, v, digest)
    if frame.subcommand == RelaySubcommand.DATA:
        return state, [DeliverLocal(frame.stream_id, frame.data)]
    return state, []


def _confirm_hop(state: CircuitState, v: int, digest: bytes) -> tuple[CircuitState, list[Action]]:
    index = sum(1 for hop in state.hops if hop.confirmed)
    hop = state.hops[index]
    try:
        session = derive_session_key(state.params, v, hop.ephemeral.private.k)
    except (MalformedSessionKey, NonInvertible):
        return _fail(state, "malformed session key")
    if key_digest(session) != digest:
        return _fail(state, "key digest mismatch")
    hops = list(state.hops)
    hops[index] = replace(hop, session=session, confirmed=True)
    return replace(state, hops=tuple(hops), phase=Phase.READY), []


def _fail(state: CircuitState, reason: str) -> tuple[CircuitState, list[Action]]:
    tagged = f"{INTEGRITY_FAILURE}: {reason}"
    failed = replace(state, phase=Phase.FAILED, failure=tagged)
    return failed, [TearDown(state.circ_id, tagged)]


def _layer_keys(state: CircuitState) -> list[SessionKey]:
    """The keys that layer a relay cell, entry first: every confirmed hop,
    or without ``peel_per_hop`` only the last one. Wrapping applies them
    in reverse, innermost first."""
    keys = [hop.session for hop in state.hops if hop.confirmed]
    return keys if state.config.peel_per_hop else keys[-1:]


# -- relay (node) side -------------------------------------------------------

@dataclass(frozen=True)
class CircuitEntry:
    """One relayed circuit as seen by a node: exactly one session key."""

    circ_id: int
    prev_link: str
    session: SessionKey
    next_link: str | None = None
    next_circ_id: int | None = None
    next_pending: bool = False

    @property
    def key(self) -> tuple[str, int]:
        return self.prev_link, self.circ_id


@dataclass(frozen=True)
class NodeState:
    name: str
    params: SystemParams
    keypair: KeyPair
    config: ProtocolConfig = DEFAULT_CONFIG
    entries: dict[tuple[str, int], CircuitEntry] = field(default_factory=dict)
    nexts: dict[tuple[str, int], tuple[str, int]] = field(default_factory=dict)
    circ_seq: int = 1


def node_handle_cell(state: NodeState, from_link: str,
                     cell: Cell) -> tuple[NodeState, list[Action]]:
    """Feed one inbound cell to the relay machine."""
    if cell.command == CellCommand.CREATE:
        return _node_handle_create(state, from_link, cell)
    entry = state.entries.get((from_link, cell.circ_id))
    if entry is not None:
        if cell.command == CellCommand.RELAY:
            return _node_forward_relay(state, entry, cell)
        if cell.command == CellCommand.DESTROY:
            return _teardown(state, entry, "destroyed by peer", back=False)
        return state, []
    key = state.nexts.get((from_link, cell.circ_id))
    if key is not None:
        entry = state.entries[key]
        if cell.command == CellCommand.CREATED:
            return _node_handle_created(state, entry, cell)
        if cell.command == CellCommand.RELAY:
            return _node_backward_relay(state, entry, cell)
        if cell.command == CellCommand.DESTROY:
            return _teardown(state, entry, "destroyed by peer", onward=False)
        return state, []
    if cell.command == CellCommand.DESTROY:
        return state, []
    return _refuse(state, from_link, cell.circ_id, "unknown circuit")


def node_reply_data(state: NodeState, circ_id: int, prev_link: str,
                    stream_id: int, data: bytes) -> SendCell:
    """Exit-side response: one backward DATA frame under this node's key."""
    entry = state.entries.get((prev_link, circ_id))
    if entry is None:
        raise NotReady(f"no circuit {circ_id} from {prev_link}")
    frame = encode_relay_frame(RelayFrame(RelaySubcommand.DATA, stream_id, data))
    payload = chunk_encrypt(frame, entry.session, state.params)
    return SendCell(entry.prev_link, Cell(entry.circ_id, CellCommand.RELAY, payload))


def node_drop_link(state: NodeState, link: str) -> NodeState:
    """Forget every circuit riding on a lost link, in either direction, in
    one pass over the maps. No DESTROY goes to the other neighbour, so
    relays further along keep those circuits."""
    entries = {key: e for key, e in state.entries.items()
               if link not in (e.prev_link, e.next_link)}
    nexts = {key: prev for key, prev in state.nexts.items() if prev in entries}
    return replace(state, entries=entries, nexts=nexts)


def _node_handle_create(state: NodeState, from_link: str,
                        cell: Cell) -> tuple[NodeState, list[Action]]:
    existing = state.entries.get((from_link, cell.circ_id))
    if existing is not None:
        return _teardown(state, existing, "duplicate CREATE")
    width = state.params.residue_width
    try:
        v, eph_p, eph_q = parse_create_payload(cell.payload, width)
        session = derive_session_key(state.params, v, state.keypair.private.k)
    except (TruncatedCell, MalformedSessionKey, NonInvertible):
        return _refuse(state, from_link, cell.circ_id, "malformed CREATE handshake")
    reply = mix(state.params, PublicConstructor(P=eph_p, Q=eph_q), state.keypair.private)
    payload = build_created_payload(reply, key_digest(session), width)
    entry = CircuitEntry(circ_id=cell.circ_id, prev_link=from_link, session=session)
    new_state = replace(state, entries={**state.entries, entry.key: entry})
    return new_state, [SendCell(from_link, Cell(cell.circ_id, CellCommand.CREATED, payload))]


def _node_forward_relay(state: NodeState, entry: CircuitEntry,
                        cell: Cell) -> tuple[NodeState, list[Action]]:
    payload = cell.payload
    relaying = entry.next_link is not None and not entry.next_pending
    if state.config.peel_per_hop or not relaying:
        try:
            payload = chunk_decrypt(payload, entry.session, state.params)
        except MalformedPayload:
            return _teardown(state, entry, "malformed relay payload")
    if relaying:
        return state, [SendCell(entry.next_link,
                                Cell(entry.next_circ_id, CellCommand.RELAY, payload))]
    if entry.next_pending:
        return _teardown(state, entry, "relay before extension completed")
    try:
        frame = decode_relay_frame(payload)
    except (TruncatedFrame, UnknownSubcommand):
        return _teardown(state, entry, "unparseable relay frame")
    if frame.subcommand == RelaySubcommand.EXTEND:
        try:
            name, v, eph_p, eph_q = parse_extend_data(frame.data, state.params.residue_width)
        except (TruncatedFrame, TruncatedCell, UnicodeDecodeError):
            return _teardown(state, entry, "malformed EXTEND data")
        next_circ = state.circ_seq
        updated = replace(entry, next_link=name, next_circ_id=next_circ, next_pending=True)
        new_state = replace(state, circ_seq=state.circ_seq + 1,
                            entries={**state.entries, entry.key: updated},
                            nexts={**state.nexts, (name, next_circ): entry.key})
        payload = build_create_payload(v, eph_p, eph_q, state.params.residue_width)
        return new_state, [SendCell(name, Cell(next_circ, CellCommand.CREATE, payload))]
    if frame.subcommand == RelaySubcommand.DATA:
        return state, [DeliverLocal(frame.stream_id, frame.data)]
    if frame.subcommand == RelaySubcommand.END:
        return _teardown(state, entry, "stream ended")
    return state, []


def _node_handle_created(state: NodeState, entry: CircuitEntry,
                         cell: Cell) -> tuple[NodeState, list[Action]]:
    if not entry.next_pending:
        return state, []
    width = state.params.residue_width
    try:
        v, digest = parse_created_payload(cell.payload, width)
    except TruncatedCell:
        return _teardown(state, entry, "malformed CREATED from next hop")
    frame = encode_relay_frame(RelayFrame(RelaySubcommand.EXTENDED, 0,
                                          build_created_payload(v, digest, width)))
    payload = chunk_encrypt(frame, entry.session, state.params)
    updated = replace(entry, next_pending=False)
    new_state = replace(state, entries={**state.entries, entry.key: updated})
    return new_state, [SendCell(entry.prev_link,
                                Cell(entry.circ_id, CellCommand.RELAY, payload))]


def _node_backward_relay(state: NodeState, entry: CircuitEntry,
                         cell: Cell) -> tuple[NodeState, list[Action]]:
    payload = cell.payload
    if state.config.peel_per_hop:
        payload = chunk_encrypt(payload, entry.session, state.params)
    return state, [SendCell(entry.prev_link,
                            Cell(entry.circ_id, CellCommand.RELAY, payload))]


def _teardown(state: NodeState, entry: CircuitEntry, reason: str, back: bool = True,
              onward: bool = True) -> tuple[NodeState, list[Action]]:
    """Forget ``entry`` and send DESTROY back toward the client and/or
    onward to the next hop. The sides are chosen by direction, never by
    link name: ``prev_link`` may equal ``next_link``."""
    actions: list[Action] = [TearDown(entry.circ_id, reason)]
    if back:
        actions.append(SendCell(entry.prev_link, Cell(entry.circ_id, CellCommand.DESTROY)))
    entries = dict(state.entries)
    del entries[entry.key]
    nexts = state.nexts
    if entry.next_link is not None:
        if onward:
            actions.append(SendCell(entry.next_link,
                                    Cell(entry.next_circ_id, CellCommand.DESTROY)))
        nexts = dict(nexts)
        del nexts[entry.next_link, entry.next_circ_id]
    return replace(state, entries=entries, nexts=nexts), actions


def _refuse(state: NodeState, link: str, circ_id: int,
            reason: str) -> tuple[NodeState, list[Action]]:
    """Answer a cell that no circuit takes with DESTROY on its own link."""
    return state, [TearDown(circ_id, reason), SendCell(link, Cell(circ_id, CellCommand.DESTROY))]


# -- relay host --------------------------------------------------------------

class Relay:
    """The relay host of both runtimes: owns one NodeState, records exit
    deliveries and, with ``echo_data``, answers each one back."""

    def __init__(self, name: str, params: SystemParams, keypair: KeyPair,
                 config: ProtocolConfig = DEFAULT_CONFIG, echo_data: bool = False):
        self.name = name
        self.state = NodeState(name=name, params=params, keypair=keypair, config=config)
        self.echo_data = echo_data
        self.delivered: list[tuple[int, bytes]] = []

    def handle(self, link: str, cell: Cell) -> list[SendCell]:
        self.state, actions = node_handle_cell(self.state, link, cell)
        sends = [a for a in actions if isinstance(a, SendCell)]
        for action in actions:
            if isinstance(action, DeliverLocal):
                self.delivered.append((action.stream_id, action.data))
                if self.echo_data:
                    sends.append(node_reply_data(self.state, cell.circ_id, link,
                                                 action.stream_id, action.data))
        return sends

    def drop_link(self, link: str) -> None:
        self.state = node_drop_link(self.state, link)

    def session_keys(self) -> list[int]:
        return [entry.session.raw for entry in self.state.entries.values()]


# -- client host -------------------------------------------------------------

class Client:
    """The client host of both runtimes: resolves the path through
    ``directory`` (anything with ``lookup(name)``), drives the build through
    ``client_step`` and records deliveries. Each resolved constructor is
    noted on ``params``, which tabulates it for ``mix`` from the second
    time on, so every client host sharing ``params`` reads the tables."""

    def __init__(self, name: str, params: SystemParams, directory,
                 rng: random.Random, config: ProtocolConfig = DEFAULT_CONFIG):
        self.name = name
        self.params = params
        self.directory = directory
        self.rng = rng
        self.config = config
        self.state: CircuitState | None = None
        self.path: list = []
        self.received: list[tuple[int, bytes]] = []

    def start_build(self, circ_id: int, path: list[str]) -> SendCell:
        self.path = [self.directory.lookup(name) for name in path]
        for desc in self.path:
            self.params.note_resolved(desc.public)
        entry = self.path[0]
        self.state, send = client_create(self.params, circ_id, entry.name,
                                         entry.public, self.rng, self.config)
        return send

    def handle(self, from_name: str, cell: Cell) -> list[SendCell]:
        self.state, actions = client_step(self.state, cell, self.path, self.rng)
        self.received += [(a.stream_id, a.data) for a in actions if isinstance(a, DeliverLocal)]
        return [a for a in actions if isinstance(a, SendCell)]
