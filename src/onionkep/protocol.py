"""Client and relay state machines for telescoping circuit construction.

Every transition is a pure function from (state, input cell) to (new
state, or on a relay a delta, and an ordered list of output actions).
States are frozen dataclasses; cells, frames and actions are tuples
(``NamedTuple``), the cheaper to build on the circuit path. Nothing here
performs I/O, so identical inputs always replay to identical outputs.

Every protocol rule lives here once. ``Client`` is the one client host,
which drives its build through ``client_step``, and ``Relay`` the one
relay host: both runtimes (``simnet`` and ``transport``) use them and only
move the resulting cells. What malformed peer bytes raise is the codecs'
rule: every parse, chunk decrypt and session-key derivation fails with an
``OnionKepError`` subclass, and the machines catch that base class to fail
only the circuit the bytes arrived on.

A relay asks every question about a link of one index, ``NodeState.by_link``,
which holds both ends of each circuit and no link without one: the circuit a
cell from a next hop names, the ids a link carries, the circuits its loss
ends. ``Relay`` applies each transition's ``NodeDelta`` in place by one
rule, so a cell or a lost link costs the same however many other circuits
the relay holds. An EXTEND draws the next id from ``circ_seq`` that its
link does not carry, wrapping from ``MAX_CIRC_ID`` to 1, and a CREATE on an
id the link carries toward a next hop is refused with DESTROY. A runtime
that cannot open a link feeds the relay DESTROY from it, as if the next hop
refused.

Circuit build runs hop by hop: CREATE/CREATED establishes the entry hop,
then each extension travels as an EXTEND relay frame tunnelled through the
already-built prefix, is turned into a CREATE by the current terminal hop,
and comes back as an EXTENDED relay frame. Every confirmation payload
carries a digest of the shared key; a mismatch fails the circuit. A client
hop keeps only its ephemeral secret k until then and its session key after.
A client that fails a circuit sends DESTROY to its entry hop, and loses the
circuit with that hop's link. The client wraps a relay cell once per
confirmed hop, and each relay peels (forward) or adds (backward) one layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, NamedTuple, Union

from .errors import NotReady, OnionKepError, ParamsMismatch
from .nikep import (
    KeyPair,
    PublicConstructor,
    SessionKey,
    SystemParams,
    derive_session_key,
    gen_keypair,
    mix,
    params_digest,
)
from .onioncrypt import (
    CREATE, CREATED, DATA, DESTROY, END, EXTEND, EXTENDED, RELAY,
    MAX_CIRC_ID,
    Cell,
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

# How many of its latest deliveries a Relay or a Client host keeps.
_RECORDS_KEPT = 64


class Phase(Enum):
    CREATING = "creating"
    EXTENDING = "extending"
    READY = "ready"
    FAILED = "failed"


# Module names of the members, as in onioncrypt: reading a member off its
# Enum class is a descriptor call on CPython 3.11.
CREATING, EXTENDING, READY, FAILED = Phase


@dataclass(frozen=True)
class HopKeys:
    node_name: str
    own_k: int | None
    session: SessionKey | None = None

    @property
    def confirmed(self) -> bool:
        return self.session is not None


@dataclass(frozen=True)
class CircuitState:
    params: SystemParams
    circ_id: int
    hops: tuple[HopKeys, ...]
    phase: Phase
    failure: str | None = None


# -- actions -----------------------------------------------------------------

class SendCell(NamedTuple):
    link: str
    cell: Cell


class DeliverLocal(NamedTuple):
    stream_id: int
    data: bytes


class TearDown(NamedTuple):
    circ_id: int
    reason: str


Action = Union[SendCell, DeliverLocal, TearDown]

# Link-level test hook of both runtimes: the cell to deliver, or None to drop.
TamperFn = Callable[[str, str, Cell], Union[Cell, None]]


# -- client side -------------------------------------------------------------

def client_create(params: SystemParams, circ_id: int, node_name: str, node_pub: PublicConstructor,
                  rng: random.Random) -> tuple[CircuitState, SendCell]:
    """Open a circuit to the entry node with a fresh ephemeral constructor."""
    k, payload = _offer(params, node_pub, rng)
    state = CircuitState(params=params, circ_id=circ_id, hops=(HopKeys(node_name, k),),
                         phase=CREATING)
    return state, SendCell(node_name, Cell(circ_id, CREATE, payload))


def client_extend(state: CircuitState, node_name: str, node_pub: PublicConstructor,
                  rng: random.Random) -> tuple[CircuitState, SendCell]:
    """Tunnel an EXTEND frame for the next hop through the built prefix."""
    if state.phase != READY:
        raise NotReady(f"cannot extend a circuit in phase {state.phase.value}")
    k, create = _offer(state.params, node_pub, rng)
    send = _client_relay(state, EXTEND, 0, build_extend_data(node_name, create))
    hops = state.hops + (HopKeys(node_name, k),)
    return CircuitState(state.params, state.circ_id, hops, EXTENDING), send


def client_send_data(state: CircuitState, stream_id: int, data: bytes) -> SendCell:
    """Wrap application data for the exit hop; innermost layer is the exit key."""
    if state.phase != READY:
        raise NotReady(f"cannot send on a circuit in phase {state.phase.value}")
    return _client_relay(state, DATA, stream_id, data)


def client_handle_cell(state: CircuitState, cell: Cell) -> tuple[CircuitState, list[Action]]:
    """Feed one inbound cell to the client machine."""
    if cell.circ_id != state.circ_id or state.phase == FAILED:
        return state, []
    if cell.command == CREATED:
        return _confirm_hop(state, CREATING, cell.payload, "CREATED payload")
    if cell.command == DESTROY:
        return replace(state, phase=FAILED, failure="destroyed by relay"), []
    if cell.command != RELAY:
        return state, []
    payload = cell.payload
    try:
        for key in _layer_keys(state):
            payload = chunk_decrypt(payload, key, state.params)
        frame = decode_relay_frame(payload)
    except OnionKepError:
        return _fail(state, "malformed relay payload")
    if frame.subcommand == EXTENDED:
        return _confirm_hop(state, EXTENDING, frame.data, "EXTENDED data")
    if frame.subcommand == DATA:
        return state, [DeliverLocal(frame.stream_id, frame.data)]
    return state, []


def client_step(state: CircuitState, cell: Cell, path,
                rng: random.Random) -> tuple[CircuitState, list[Action]]:
    """Build driver: feed one cell, then, once the built prefix is READY,
    extend toward the next descriptor (``name``, ``public``) of ``path``."""
    state, actions = client_handle_cell(state, cell)
    if state.phase == READY and len(state.hops) < len(path):
        desc = path[len(state.hops)]
        state, send = client_extend(state, desc.name, desc.public, rng)
        actions = actions + [send]
    return state, actions


def _offer(params: SystemParams, node_pub: PublicConstructor,
           rng: random.Random) -> tuple[int, bytes]:
    """A fresh ephemeral secret k and the CREATE payload offering it to ``node_pub``."""
    eph = gen_keypair(params, rng)
    v = mix(params, node_pub, eph.private)
    return eph.private.k, build_create_payload(v, eph.public.P, eph.public.Q, params.residue_width)


def _client_relay(state: CircuitState, subcommand: RelaySubcommand, stream_id: int,
                  data: bytes) -> SendCell:
    """One relay frame, layered for the built prefix, to the entry node."""
    frame = encode_relay_frame(RelayFrame(subcommand, stream_id, data))
    payload = onion_wrap(frame, _layer_keys(state)[::-1], state.params)
    return SendCell(state.hops[0].node_name, Cell(state.circ_id, RELAY, payload))


def _confirm_hop(state: CircuitState, phase: Phase, payload: bytes,
                 what: str) -> tuple[CircuitState, list[Action]]:
    """The one hop confirmation, of CREATED and EXTENDED alike: ignored
    outside ``phase``, else the last hop is keyed from ``payload``'s V' and
    checked against its key digest, or the circuit fails."""
    if state.phase != phase:
        return state, []
    hop = state.hops[-1]
    try:
        v, digest = parse_created_payload(payload, state.params.residue_width)
    except OnionKepError:
        return _fail(state, f"malformed {what}")
    try:
        session = derive_session_key(state.params, v, hop.own_k)
    except OnionKepError:
        return _fail(state, "malformed session key")
    if key_digest(session) != digest:
        return _fail(state, "key digest mismatch")
    hops = state.hops[:-1] + (HopKeys(hop.node_name, None, session),)
    return CircuitState(state.params, state.circ_id, hops, READY), []


def client_drop_link(state: CircuitState, link: str) -> tuple[CircuitState, list[Action]]:
    """Losing the entry hop's link fails a live circuit; no other link is its own."""
    if link != state.hops[0].node_name or state.phase == FAILED:
        return state, []
    lost = "entry link lost"
    return replace(state, phase=FAILED, failure=lost), [TearDown(state.circ_id, lost)]


def _fail(state: CircuitState, reason: str) -> tuple[CircuitState, list[Action]]:
    """Fail the circuit for ``reason`` and DESTROY it at the entry hop, which passes it on."""
    tagged = f"{INTEGRITY_FAILURE}: {reason}"
    failed = replace(state, phase=FAILED, failure=tagged)
    destroy = SendCell(state.hops[0].node_name, Cell(state.circ_id, DESTROY))
    return failed, [TearDown(state.circ_id, tagged), destroy]


def _layer_keys(state: CircuitState) -> list[SessionKey]:
    """The keys that layer a relay cell, one per confirmed hop, entry first.
    Wrapping applies them in reverse, innermost first."""
    return [hop.session for hop in state.hops if hop.confirmed]


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
    """``entries``: (prev_link, circ_id) -> circuit; ``by_link``: link -> circ_id -> that key."""

    name: str
    params: SystemParams
    keypair: KeyPair
    entries: dict[tuple[str, int], CircuitEntry] = field(default_factory=dict)
    by_link: dict[str, dict[int, tuple[str, int]]] = field(default_factory=dict)
    circ_seq: int = 1


@dataclass(frozen=True)
class NodeDelta:
    """What one relay transition changes: entries to put and to forget, and a new ``circ_seq``."""

    put: tuple[CircuitEntry, ...] = ()
    forget: tuple[CircuitEntry, ...] = ()
    circ_seq: int | None = None


_NOOP = NodeDelta()


def _apply(state: NodeState, delta: NodeDelta) -> NodeState:
    """The one rule that changes a relay's maps, in place: both ends of each
    entry are read off it, and a new ``circ_seq`` shares the maps."""
    for entry in delta.forget:
        del state.entries[entry.key]
        for link, circ_id in (entry.key, (entry.next_link, entry.next_circ_id)):
            if link is not None:
                del state.by_link[link][circ_id]
                if not state.by_link[link]:
                    del state.by_link[link]
    for entry in delta.put:
        state.entries[entry.key] = entry
        state.by_link.setdefault(entry.prev_link, {})[entry.circ_id] = entry.key
        if entry.next_link is not None:
            state.by_link.setdefault(entry.next_link, {})[entry.next_circ_id] = entry.key
    return state if delta.circ_seq is None else replace(state, circ_seq=delta.circ_seq)


def node_handle_cell(state: NodeState, from_link: str,
                     cell: Cell) -> tuple[NodeDelta, list[Action]]:
    """Feed one inbound cell to the relay machine."""
    if cell.command == CREATE:
        return _node_handle_create(state, from_link, cell)
    entry = state.entries.get((from_link, cell.circ_id))
    if entry is not None:
        if cell.command == RELAY:
            return _node_forward_relay(state, entry, cell)
        if cell.command == DESTROY:
            return _teardown(entry, "destroyed by peer", back=False)
        return _NOOP, []
    key = state.by_link.get(from_link, {}).get(cell.circ_id)  # the next hop's side
    if key is not None:
        entry = state.entries[key]
        if cell.command == CREATED:
            return _node_handle_created(state, entry, cell)
        if cell.command == RELAY:
            return _NOOP, [_toward_client(state, entry, cell.payload)]
        return _teardown(entry, "destroyed by peer", onward=False)  # DESTROY
    if cell.command == DESTROY:
        return _NOOP, []
    return _refuse(from_link, cell.circ_id, "unknown circuit")


def node_reply_data(state: NodeState, circ_id: int, prev_link: str,
                    stream_id: int, data: bytes) -> SendCell:
    """Exit-side response: one backward DATA frame under this node's key."""
    entry = state.entries.get((prev_link, circ_id))
    if entry is None:
        raise NotReady(f"no circuit {circ_id} from {prev_link}")
    frame = encode_relay_frame(RelayFrame(DATA, stream_id, data))
    return _toward_client(state, entry, frame)


def node_drop_link(state: NodeState, link: str) -> NodeDelta:
    """Forget every circuit riding on a lost link, in either direction, once.
    No DESTROY goes to the other neighbour, so relays further along keep them."""
    keys = dict.fromkeys(state.by_link.get(link, {}).values())
    return NodeDelta(forget=tuple(state.entries[key] for key in keys))


def _node_handle_create(state: NodeState, from_link: str,
                        cell: Cell) -> tuple[NodeDelta, list[Action]]:
    existing = state.entries.get((from_link, cell.circ_id))
    if existing is not None:
        return _teardown(existing, "duplicate CREATE")
    if cell.circ_id in state.by_link.get(from_link, ()):
        return _refuse(from_link, cell.circ_id, "circuit id in use")
    width = state.params.residue_width
    try:
        v, eph_p, eph_q = parse_create_payload(cell.payload, width)
        session = derive_session_key(state.params, v, state.keypair.private.k)
    except OnionKepError:
        return _refuse(from_link, cell.circ_id, "malformed CREATE handshake")
    reply = mix(state.params, PublicConstructor(P=eph_p, Q=eph_q), state.keypair.private)
    payload = build_created_payload(reply, key_digest(session), width)
    entry = CircuitEntry(circ_id=cell.circ_id, prev_link=from_link, session=session)
    send = SendCell(from_link, Cell(cell.circ_id, CREATED, payload))
    return NodeDelta(put=(entry,)), [send]


def _node_forward_relay(state: NodeState, entry: CircuitEntry,
                        cell: Cell) -> tuple[NodeDelta, list[Action]]:
    try:
        payload = chunk_decrypt(cell.payload, entry.session, state.params)
    except OnionKepError:
        return _teardown(entry, "malformed relay payload")
    if entry.next_pending:
        return _teardown(entry, "relay before extension completed")
    if entry.next_link is not None:
        return _NOOP, [SendCell(entry.next_link, Cell(entry.next_circ_id, RELAY, payload))]
    try:
        frame = decode_relay_frame(payload)
    except OnionKepError:
        return _teardown(entry, "unparseable relay frame")
    if frame.subcommand == EXTEND:
        try:
            name, create = parse_extend_data(frame.data, state.params.residue_width)
        except OnionKepError:
            return _teardown(entry, "malformed EXTEND data")
        if name == state.name:
            return _teardown(entry, "extend to self")
        next_circ = state.circ_seq  # skip the ids the link carries, drawn by either end
        while next_circ in state.by_link.get(name, ()):
            next_circ = next_circ % MAX_CIRC_ID + 1
        updated = CircuitEntry(entry.circ_id, entry.prev_link, entry.session, name, next_circ, True)
        return (NodeDelta(put=(updated,), circ_seq=next_circ % MAX_CIRC_ID + 1),
                [SendCell(name, Cell(next_circ, CREATE, create))])
    if frame.subcommand == DATA:
        return _NOOP, [DeliverLocal(frame.stream_id, frame.data)]
    if frame.subcommand == END:
        return _teardown(entry, "stream ended")
    return _NOOP, []


def _node_handle_created(state: NodeState, entry: CircuitEntry,
                         cell: Cell) -> tuple[NodeDelta, list[Action]]:
    if not entry.next_pending:
        return _NOOP, []
    try:
        parse_created_payload(cell.payload, state.params.residue_width)
    except OnionKepError:
        return _teardown(entry, "malformed CREATED from next hop")
    frame = encode_relay_frame(RelayFrame(EXTENDED, 0, cell.payload))
    extended = _toward_client(state, entry, frame)
    done = CircuitEntry(entry.circ_id, entry.prev_link, entry.session, entry.next_link,
                        entry.next_circ_id)
    return NodeDelta(put=(done,)), [extended]


def _toward_client(state: NodeState, entry: CircuitEntry, payload: bytes) -> SendCell:
    """A RELAY cell back along ``entry``'s circuit, under this relay's layer."""
    payload = chunk_encrypt(payload, entry.session, state.params)
    return SendCell(entry.prev_link, Cell(entry.circ_id, RELAY, payload))


def _teardown(entry: CircuitEntry, reason: str, back: bool = True,
              onward: bool = True) -> tuple[NodeDelta, list[Action]]:
    """Forget ``entry`` and send DESTROY back toward the client and/or
    onward to the next hop. The sides are chosen by direction, never by
    link name: ``prev_link`` may equal ``next_link``."""
    actions: list[Action] = [TearDown(entry.circ_id, reason)]
    if back:
        actions.append(SendCell(entry.prev_link, Cell(entry.circ_id, DESTROY)))
    if onward and entry.next_link is not None:
        actions.append(SendCell(entry.next_link, Cell(entry.next_circ_id, DESTROY)))
    return NodeDelta(forget=(entry,)), actions


def _refuse(link: str, circ_id: int, reason: str) -> tuple[NodeDelta, list[Action]]:
    """Answer a cell that no circuit takes with DESTROY on its own link."""
    return _NOOP, [TearDown(circ_id, reason), SendCell(link, Cell(circ_id, DESTROY))]


# -- relay host --------------------------------------------------------------

class Relay:
    """The relay host of both runtimes: owns one NodeState, keeps its latest
    exit deliveries and, unless ``echo_data`` is false, echoes each one back.
    It changes ``state.entries`` and ``state.by_link`` in place, so a TCP relay
    calls it, and reads them beyond ``len()``, on its loop thread alone."""

    def __init__(self, name: str, params: SystemParams, keypair: KeyPair, echo_data: bool = True):
        self.name = name
        self.state = NodeState(name, params, keypair)
        self.echo_data = echo_data
        self.delivered: list[tuple[int, bytes]] = []

    def handle(self, link: str, cell: Cell) -> list[SendCell]:
        delta, actions = node_handle_cell(self.state, link, cell)
        if delta is not _NOOP:
            self.state = _apply(self.state, delta)
        sends = [a for a in actions if isinstance(a, SendCell)]
        for action in actions:
            if isinstance(action, DeliverLocal):
                self.delivered.append((action.stream_id, action.data))
                del self.delivered[:-_RECORDS_KEPT]
                if self.echo_data:
                    sends.append(node_reply_data(self.state, cell.circ_id, link,
                                                 action.stream_id, action.data))
        return sends

    def drop_link(self, link: str) -> None:
        self.state = _apply(self.state, node_drop_link(self.state, link))


# -- client host -------------------------------------------------------------

class Client:
    """The client host of both runtimes: resolves the path through
    ``directory`` (anything with ``lookup(name)``), drives the build through
    ``client_step`` and keeps its latest deliveries. It refuses a descriptor
    under other parameters, before it draws or sends anything. Each resolved
    constructor is noted on ``params``, which tabulates it for ``mix`` from
    the second time on, so every client host sharing ``params`` reads the tables."""

    def __init__(self, name: str, params: SystemParams, directory, rng: random.Random):
        self.name = name
        self.params = params
        self.params_digest = params_digest(params)
        self.directory = directory
        self.rng = rng
        self.state: CircuitState | None = None
        self.path: list = []
        self.received: list[tuple[int, bytes]] = []

    def start_build(self, circ_id: int, path: list[str]) -> SendCell:
        descs = [self.directory.lookup(name) for name in path]
        for desc in descs:
            if desc.params_digest != self.params_digest:
                raise ParamsMismatch(f"descriptor for {desc.name} uses foreign parameters")
            self.params.note_resolved(desc.public)
        self.path = descs
        entry = descs[0]
        self.state, send = client_create(self.params, circ_id, entry.name,
                                         entry.public, self.rng)
        return send

    def handle(self, from_name: str, cell: Cell) -> list[SendCell]:
        self.state, actions = client_step(self.state, cell, self.path, self.rng)
        self.received += [(a.stream_id, a.data) for a in actions if isinstance(a, DeliverLocal)]
        del self.received[:-_RECORDS_KEPT]
        return [a for a in actions if isinstance(a, SendCell)]

    def drop_link(self, link: str) -> None:
        self.state, _ = client_drop_link(self.state, link)
