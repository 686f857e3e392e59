"""The benchmark's three workloads and the world each one runs in.

Every workload is closed-loop: a client sends its next request only after
the previous one completed. Inputs (relay keys, client ephemeral keys and
payloads) come from the workload seed. The system parameters come from
one fixed seed, PARAM_SEED, in every set-up: the safe-prime search cost
varies about seventy-fold between seeds at 256 bits, so drawing the
parameters from the workload seed would make ``setup_s`` measure the luck
of the seed rather than the code. With one parameter seed every set-up
of every run repeats the same prime search.

* ``circuit_churn`` (simulator, r = 256 bits): a new client host per
  circuit builds B->C->D and echoes 64 B, then the oldest circuit is closed
  with a DESTROY. Relays hold a standing population of open circuits.
  Handshakes (nikep) and relay state lookups (protocol) dominate.
* ``bulk_echo`` (simulator, r = 64 bits): one long-lived circuit echoes
  payloads cycling through 1, 4 and 16 KB; the chunk cipher (onioncrypt)
  dominates. Between echo rounds, eight short-lived circuits are built on
  otherwise empty relays and closed, timed apart from the echoes, so build
  figures exist at this width too and sample the whole timed phase.
* ``tcp_echo`` (TCP over loopback, r = 64 bits): an in-process directory
  server and three relay servers serve concurrent clients, each looping on
  build, echoes, close. Framing, reader threads, the relay lock and
  directory round trips dominate. It is run by hand only, not listed in
  BENCHMARK.json, while the relays' duplicate-link race makes a few of
  its first builds fail at random (see README.md, "Known defects").
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import random
import resource
import statistics
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

from onionkep import nikep, simnet, transport
from onionkep.directory import Directory, NodeDescriptor
from onionkep.onioncrypt import Cell, CellCommand
from onionkep.protocol import Phase

from tracing import CountingRandom

RELAYS = ("B", "C", "D")
STREAM_ID = 1
# Seeds the system parameters of every set-up. At 256 bits its safe-prime
# search draws 28116 candidates (about 1 s on the 2-CPU virtual machine
# this benchmark was written on); seeds 0-11 draw from 205 to 65523.
PARAM_SEED = 4
# Socket timeout of a TCP client; an echo normally returns within 10 ms.
TCP_TIMEOUT_S = 2.0


@dataclass(frozen=True)
class Config:
    runtime: str                      # "sim" or "tcp"
    r_bits: int
    setup_reps: int                   # set-ups per run; setup_s is their median
    echo_sizes: tuple[int, ...]
    rss_rounds: int                   # timed rounds after which peak RSS is read
    population: int = 0               # circuit_churn: standing open circuits
    builds_per_round: int = 0         # bulk_echo: short-lived builds per echo round
    clients: int = 0                  # tcp_echo: concurrent client threads
    echoes_per_build: int = 0         # tcp_echo: echoes per circuit
    calibration_iters: int = 0        # tcp_echo, traced: single-client iterations
    walk_weight: float = 0.0          # share of the walk in the speed probe


WORKLOADS = {
    "circuit_churn": Config(runtime="sim", r_bits=256, setup_reps=3, echo_sizes=(64,),
                            rss_rounds=1000, population=500, walk_weight=0.5),
    "bulk_echo": Config(runtime="sim", r_bits=64, setup_reps=20,
                        echo_sizes=(1024, 4096, 16384), rss_rounds=40, builds_per_round=8),
    "tcp_echo": Config(runtime="tcp", r_bits=64, setup_reps=40, echo_sizes=(512,),
                       rss_rounds=200, clients=2, echoes_per_build=20, calibration_iters=5),
}

# Tiny versions for the benchmark's own smoke tests; not for measurement.
SMOKE = {
    "circuit_churn": Config(runtime="sim", r_bits=32, setup_reps=1, echo_sizes=(64,),
                            rss_rounds=1, population=5, walk_weight=0.5),
    "bulk_echo": Config(runtime="sim", r_bits=32, setup_reps=1, echo_sizes=(64, 128, 256),
                        rss_rounds=1, builds_per_round=1),
    "tcp_echo": Config(runtime="tcp", r_bits=32, setup_reps=1, echo_sizes=(64,),
                       rss_rounds=1, clients=2, echoes_per_build=2, calibration_iters=2),
}


class _Node:
    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _walk_nodes(count: int = 3000) -> tuple[_Node, ...]:
    """Objects scattered through the heap and walked in shuffled order,
    like a relay's scan of its circuit entries."""
    rng = random.Random(0)
    nodes, spacers = [], []
    for i in range(count):
        nodes.append(_Node(i, i))
        spacers.append([_Node(i, i) for _ in range(rng.randrange(1, 4))])
    rng.shuffle(nodes)
    return tuple(nodes)


class SpeedProbe:
    """Times fixed work between requests, to put timings on one host speed.

    The host this benchmark was written on ran each CPU at speeds up to
    1.7x apart, changing within milliseconds to seconds and sometimes
    holding the fast speed for a whole run, and its memory access slowed
    and sped up on its own as well. ``tick`` times two things in CPU time
    of the calling thread, which leaves out time spent waiting for other
    threads or the interpreter lock: a loop of additions (about 0.3 ms,
    arithmetic speed) and a walk over the attributes of objects scattered
    through the heap (about 0.1 ms, speed of object access). The walk is
    timed on its second pass, after a first pass has loaded the objects,
    so that what the program did just before does not change it. The
    probe is loop ** (1 - w) * walk ** w, with w the workload's
    ``walk_weight``: handshakes and the chunk cipher follow the loop, so w
    is 0 where they dominate, while the relays' entry scans follow the
    walk, so w is 0.5 on circuit_churn, whose echoes are mostly scans.
    The simulator workloads tick before each build and each echo, so
    that a probe sits on either side of every timing; the TCP workload
    ticks from a thread of its own (``running``). ``level`` gives the probe
    over a stretch of the run, and run.py scales each timing by
    ``reference_s`` / level.
    """

    LOOPS = 5_000
    # About the loop's and the walk's times at the slower speed of the host
    # this benchmark was written on: every timing is put on that speed.
    REFERENCE_LOOP_S = 0.3e-3
    REFERENCE_WALK_S = 0.1e-3
    WALK = _walk_nodes()
    THREAD_INTERVAL_S = 0.02

    def __init__(self, walk_weight: float = 0.0):
        self.walk_weight = walk_weight
        self.times: list[float] = []
        self.seconds: list[float] = []
        # (loop, walk) CPU seconds of each tick, which seconds combines.
        self.parts: list[tuple[float, float]] = []
        # Wall seconds spent in tick, to be taken out of the round timings.
        self.spent = 0.0

    def tick(self) -> None:
        now = time.perf_counter()
        cpu = time.thread_time()
        x = 0
        for i in range(self.LOOPS):
            x += i & 7
        loop = time.thread_time() - cpu
        for _ in range(2):  # the first pass loads the objects, the second is timed
            cpu = time.thread_time()
            for node in self.WALK:
                if node.a < 0 and node.b < 0:
                    x += 1
        walk = time.thread_time() - cpu
        self.parts.append((loop, walk))
        self.seconds.append(loop ** (1 - self.walk_weight) * walk ** self.walk_weight)
        self.times.append(now)
        self.spent += time.perf_counter() - now

    @property
    def reference_s(self) -> float:
        w = self.walk_weight
        return self.REFERENCE_LOOP_S ** (1 - w) * self.REFERENCE_WALK_S ** w

    def level(self, start: float, end: float) -> float:
        """Median probe time from the latest probe before ``start`` through
        the first one after ``end``."""
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return statistics.median(self.seconds[lo:max(hi, lo) + 1])

    @contextlib.contextmanager
    def running(self):
        """Tick every THREAD_INTERVAL_S from a thread of its own while the block runs."""
        stop = threading.Event()

        def loop():
            while not stop.is_set():
                self.tick()
                stop.wait(self.THREAD_INTERVAL_S)

        thread = threading.Thread(target=loop, name="speed-probe")
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()


class Stopwatch:
    """Wall seconds since it was made, less the time spent in probe ticks.

    On TCP the ticks run on the probe's own thread, which holds the
    interpreter lock while it ticks, so every client waits for them too.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.start = time.perf_counter()
        self._spent = probe.spent

    def seconds(self) -> float:
        return time.perf_counter() - self.start - (self.probe.spent - self._spent)


@dataclass
class Tally:
    """Everything one run measured. Client threads record through the lock."""

    rss_rounds: int = 1
    # Every timing is stored with the time its round started, so that it can
    # be put on the scale of the CPU speed probed then (see SpeedProbe).
    setup_s: list[tuple[float, float]] = field(default_factory=list)
    prime_draws: list[int] = field(default_factory=list)
    # Timed samples: (start, ms) and (start, size, ms).
    build_ms: list[tuple[float, float]] = field(default_factory=list)
    echo_ms: list[tuple[float, int, float]] = field(default_factory=list)
    builds_attempted: int = 0
    builds_failed: int = 0
    echoes_attempted: int = 0
    echoes_failed: int = 0
    echo_mismatches: int = 0
    bad_ready: int = 0
    # Timed rounds whose every operation succeeded: (start, seconds), and
    # for echo rounds also the echoes and payload bytes it carried.
    build_rounds: list[tuple[float, float]] = field(default_factory=list)
    echo_rounds: list[tuple[float, float, int, int]] = field(default_factory=list)
    # Every timed round, failed or not, counts towards the peak RSS reading.
    timed_rounds: int = 0
    peak_rss_mb: float | None = None
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    concurrency: int = 1
    window: tuple[float, float] = (0.0, 0.0)
    entries_max: dict[str, int] = field(default_factory=lambda: dict.fromkeys(RELAYS, 0))
    transcript_bytes: list[int] = field(default_factory=list)
    relay_addresses: dict[str, str] = field(default_factory=dict)
    world_start: float = 0.0
    failures: list[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def build(self, state, ms: float, phase: str) -> bool:
        """Count one build; it succeeded iff it ended READY with three confirmed hops."""
        ok = state is not None and state.phase == Phase.READY
        confirmed = ok and len(state.hops) == len(RELAYS) and all(h.confirmed for h in state.hops)
        with self.lock:
            self.builds_attempted += 1
            if confirmed:
                if phase == "timed":
                    self.build_ms.append((time.perf_counter() - ms / 1e3, ms))
                return True
            self.builds_failed += 1
            if ok:
                self.bad_ready += 1
            reason = "not built" if state is None else (state.failure or state.phase.value)
            self._note(phase, f"build: {reason}")
        return False

    def echo(self, sent: bytes, got: bytes | None, ms: float, phase: str) -> bool:
        """Count one echo; it succeeded iff the reply equals what was sent."""
        with self.lock:
            self.echoes_attempted += 1
            if got == sent:
                if phase == "timed":
                    self.echo_ms.append((time.perf_counter() - ms / 1e3, len(sent), ms))
                return True
            self.echoes_failed += 1
            if got is not None:
                self.echo_mismatches += 1
                self._note(phase, f"echo: {len(got)} bytes back differ from {len(sent)} sent")
            else:
                self._note(phase, "echo: no reply")
        return False

    def error(self, op: str, exc: BaseException, phase: str) -> None:
        """Count an operation that raised instead of completing."""
        with self.lock:
            if op == "build":
                self.builds_attempted += 1
                self.builds_failed += 1
            else:
                self.echoes_attempted += 1
                self.echoes_failed += 1
            self._note(phase, f"{op}: "
                       + "".join(traceback.format_exception_only(exc)).strip())

    def build_round(self, watch: Stopwatch) -> None:
        with self.lock:
            self.build_rounds.append((watch.start, watch.seconds()))

    def echo_round(self, watch: Stopwatch, echoes: int, nbytes: int) -> None:
        with self.lock:
            self.echo_rounds.append((watch.start, watch.seconds(), echoes, nbytes))

    def setup_done(self, watch: Stopwatch) -> None:
        self.setup_s.append((watch.start, watch.seconds()))

    def round_done(self) -> None:
        """Count a timed round; after ``rss_rounds`` of them, read peak RSS.

        Read after a fixed amount of work, peak RSS does not grow with the
        number of rounds a faster program fits into the timed phase.
        """
        with self.lock:
            self.timed_rounds += 1
            if self.timed_rounds == self.rss_rounds:
                self.read_peak_rss()

    def read_peak_rss(self) -> None:
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def sample_entries(self, counts: dict[str, int]) -> None:
        with self.lock:
            for name, n in counts.items():
                self.entries_max[name] = max(self.entries_max[name], n)

    def _note(self, phase: str, text: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(f"{phase} {text}")


def _inputs_rng(workload: str, seed: int, *parts) -> random.Random:
    return random.Random("/".join(map(str, (workload, seed) + parts)))


def _params(cfg: Config, tracer, tally: Tally):
    rng = CountingRandom(PARAM_SEED) if tracer.enabled else random.Random(PARAM_SEED)
    params = nikep.gen_params(cfg.r_bits, rng)
    if tracer.enabled:
        tally.prime_draws.append(rng.draws)
    return params


# -- simulator ---------------------------------------------------------------

class SimWorld:
    """Parameters, a directory, three echoing relays and fresh client hosts."""

    def __init__(self, params, rng: random.Random):
        self.params = params
        self.rng = rng
        digest = nikep.params_digest(params)
        self.directory = Directory(digest)
        self.net = simnet.SimNet(step_budget=10**12)
        self.nodes: dict[str, simnet.SimNode] = {}
        for name in RELAYS:
            keypair = nikep.gen_keypair(params, rng)
            node = simnet.SimNode(name, params, keypair, echo_data=True)
            self.nodes[name] = node
            self.net.add_host(name, node)
            self.directory.register(NodeDescriptor(name=name, address=f"sim://{name}",
                                                   public=keypair.public,
                                                   params_digest=digest))
        self._seq = 0

    def new_client(self) -> simnet.SimClient:
        self._seq += 1
        client = simnet.SimClient(f"A{self._seq}", self.params, self.directory, self.rng)
        self.net.add_host(client.name, client)
        return client

    def build(self, client, tracer, tally: Tally, phase: str) -> bool:
        tally.probe.tick()
        with tracer.request("build", phase=phase):
            start = time.perf_counter()
            try:
                state = simnet.run_build(self.net, client, list(RELAYS))
            except Exception as exc:  # counted, the client loop goes on
                tally.error("build", exc, phase)
                return False
            ms = (time.perf_counter() - start) * 1e3
        return tally.build(state, ms, phase)

    def echo(self, client, data: bytes, tracer, tally: Tally, phase: str) -> bool:
        client.received.clear()  # kept short, so memory does not grow with rounds
        tally.probe.tick()
        with tracer.request("echo", phase=phase, size=len(data)):
            start = time.perf_counter()
            try:
                simnet.run_send(self.net, client, STREAM_ID, data)
            except Exception as exc:  # counted, the client loop goes on
                tally.error("echo", exc, phase)
                return False
            ms = (time.perf_counter() - start) * 1e3
        got = client.received[-1][1] if client.received else None
        return tally.echo(data, got, ms, phase)

    def destroy(self, client, tracer, phase: str) -> None:
        """Close a client's circuit from its entry relay onwards, drop the host."""
        with tracer.request("destroy", phase=phase):
            self.net.post(client.name, RELAYS[0],
                          Cell(client.state.circ_id, CellCommand.DESTROY))
            self.net.run()
        self.net.hosts.pop(client.name)

    def entries(self) -> dict[str, int]:
        return {name: len(node.state.entries) for name, node in self.nodes.items()}

    def take_transcript(self) -> int:
        """Bytes of the cells captured since the last call; the simulator
        then starts a fresh transcript, so memory does not grow with rounds."""
        nbytes = sum(len(e.data) for e in self.net.transcript.entries)
        self.net.transcript = simnet.Transcript()
        return nbytes


def _churn_step(world: SimWorld, open_circuits: deque, cfg: Config, rng: random.Random,
                tracer, tally: Tally, phase: str) -> None:
    """One round: build a circuit, echo on it, close the oldest open one."""
    watch = Stopwatch(tally.probe)
    client = world.new_client()
    if not world.build(client, tracer, tally, phase):
        world.net.hosts.pop(client.name)
        return
    data = rng.randbytes(cfg.echo_sizes[0])
    echoed = world.echo(client, data, tracer, tally, phase)
    open_circuits.append(client)
    if len(open_circuits) > cfg.population:
        world.destroy(open_circuits.popleft(), tracer, phase)
    if phase == "timed":
        tally.build_round(watch)
        if echoed:
            tally.echo_round(watch, 1, len(data))


def run_circuit_churn(cfg: Config, seed: int, seconds: float, tracer, tally: Tally) -> None:
    for rep in range(cfg.setup_reps):
        tally.probe.tick()
        watch = Stopwatch(tally.probe)
        rng = _inputs_rng("circuit_churn", seed, rep)
        world = SimWorld(_params(cfg, tracer, tally), rng)
        open_circuits: deque = deque()
        for _ in range(cfg.population):
            _churn_step(world, open_circuits, cfg, rng, tracer, tally, "setup")
            world.take_transcript()
        tally.setup_done(watch)
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        _churn_step(world, open_circuits, cfg, rng, tracer, tally, "timed")
        tally.transcript_bytes.append(world.take_transcript())
        tally.sample_entries(world.entries())
        tally.round_done()
    tally.window = (start, time.perf_counter())


def run_bulk_echo(cfg: Config, seed: int, seconds: float, tracer, tally: Tally) -> None:
    for rep in range(cfg.setup_reps):
        tally.probe.tick()
        watch = Stopwatch(tally.probe)
        rng = _inputs_rng("bulk_echo", seed, rep)
        world = SimWorld(_params(cfg, tracer, tally), rng)
        carrier = world.new_client()
        if not world.build(carrier, tracer, tally, "setup"):
            raise RuntimeError("bulk_echo: the set-up circuit failed to build: "
                               + "; ".join(tally.failures))
        for size in cfg.echo_sizes:
            world.echo(carrier, rng.randbytes(size), tracer, tally, "setup")
        world.take_transcript()
        tally.setup_done(watch)
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        # One round: builds_per_round builds, then each echo size once.
        for _ in range(cfg.builds_per_round):
            watch = Stopwatch(tally.probe)
            client = world.new_client()
            if world.build(client, tracer, tally, "timed"):
                world.destroy(client, tracer, "timed")
                tally.build_round(watch)
            else:
                world.net.hosts.pop(client.name)
            tally.sample_entries(world.entries())
        payloads = [rng.randbytes(size) for size in cfg.echo_sizes]
        watch = Stopwatch(tally.probe)
        echoed = []
        for data in payloads:
            echoed.append(world.echo(carrier, data, tracer, tally, "timed"))
        if all(echoed):
            tally.echo_round(watch, len(payloads), sum(map(len, payloads)))
        tally.transcript_bytes.append(world.take_transcript())
        tally.sample_entries(world.entries())
        tally.round_done()
        if time.perf_counter() >= deadline:
            break
    tally.window = (start, time.perf_counter())


# -- TCP over loopback -------------------------------------------------------

class TcpWorld:
    """A directory server and three echoing relay servers on 127.0.0.1."""

    def __init__(self, params, rng: random.Random):
        self.params = params
        digest = nikep.params_digest(params)
        self.dir_server = transport.DirectoryServer(Directory(digest)).start()
        self.dir_client = transport.DirectoryClient(self.dir_server.address)
        self.nodes: dict[str, transport.NodeServer] = {}
        try:
            for name in RELAYS:
                keypair = nikep.gen_keypair(params, rng)
                self.nodes[name] = transport.NodeServer(name, params, keypair,
                                                        self.dir_client).start()
        except BaseException:
            self.close()
            raise

    def entries(self) -> dict[str, int]:
        return {name: len(node.state.entries) for name, node in self.nodes.items()}

    def close(self) -> None:
        for node in self.nodes.values():
            node.stop()
        self.dir_server.stop()


def _tcp_iteration(world: TcpWorld, cfg: Config, rng: random.Random, tracer,
                   tally: Tally, phase: str, everywhere: bool = False) -> None:
    """One round of a client: build, echo ``echoes_per_build`` times, close."""
    watch = Stopwatch(tally.probe)
    client = transport.StreamCircuitClient(world.params, world.dir_client, rng)
    echoed = 0
    try:
        with tracer.request("build", phase=phase, everywhere=everywhere):
            start = time.perf_counter()
            try:
                state = client.build(list(RELAYS), timeout=TCP_TIMEOUT_S)
            except Exception as exc:  # counted, the client loop goes on
                tally.error("build", exc, phase)
                return
            ms = (time.perf_counter() - start) * 1e3
        if not tally.build(state, ms, phase):
            return
        for _ in range(cfg.echoes_per_build):
            data = rng.randbytes(cfg.echo_sizes[0])
            with tracer.request("echo", phase=phase, size=len(data), everywhere=everywhere):
                start = time.perf_counter()
                try:
                    got = client.send_data(STREAM_ID, data)
                except Exception as exc:  # counted; this circuit is abandoned
                    tally.error("echo", exc, phase)
                    return
                ms = (time.perf_counter() - start) * 1e3
            echoed += tally.echo(data, got, ms, phase)
    finally:
        client.close()
        tally.sample_entries(world.entries())
    if phase == "timed" and echoed == cfg.echoes_per_build:
        tally.build_round(watch)
        tally.echo_round(watch, echoed, echoed * cfg.echo_sizes[0])


def _run_clients(world: TcpWorld, cfg: Config, rngs, tracer, tally: Tally,
                 phase: str, deadline: float | None) -> None:
    """Run one client thread per rng; each loops until the deadline (or once)."""
    def loop(rng):
        while True:
            _tcp_iteration(world, cfg, rng, tracer, tally, phase)
            if phase == "timed":
                tally.round_done()
            if deadline is None or time.perf_counter() >= deadline:
                return

    threads = [threading.Thread(target=loop, args=(rng,)) for rng in rngs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run_tcp_echo(cfg: Config, seed: int, seconds: float, tracer, tally: Tally) -> None:
    world = None
    try:
        # Client and relay threads hold the interpreter lock in turn, so the
        # CPU speed is probed from a thread of its own, in its CPU time.
        with tally.probe.running():
            for rep in range(cfg.setup_reps):
                if world is not None:
                    world.close()
                watch = Stopwatch(tally.probe)
                tally.world_start = watch.start
                world = TcpWorld(_params(cfg, tracer, tally),
                                 _inputs_rng("tcp_echo", seed, rep))
                tally.setup_done(watch)
            tally.relay_addresses = {world.nodes[n].address: n for n in RELAYS}
            # The first concurrent iteration is where relays race to open links
            # (a known defect); it is counted, but kept out of setup_s, whose
            # time would otherwise jump by a whole timeout when an echo hangs.
            rngs = [_inputs_rng("tcp_echo", seed, f"client{j}") for j in range(cfg.clients)]
            _run_clients(world, cfg, rngs, tracer, tally, "warmup", deadline=None)
            gc.collect()
            start = time.perf_counter()
            _run_clients(world, cfg, rngs, tracer, tally, "timed", deadline=start + seconds)
            tally.window = (start, time.perf_counter())
            tally.concurrency = cfg.clients
            if tracer.enabled:
                # Relay threads cannot tell which of two concurrent clients a cell
                # serves, so exact per-build counts come from one client alone.
                for _ in range(cfg.calibration_iters):
                    _tcp_iteration(world, cfg, rngs[0], tracer, tally, "calibration",
                                   everywhere=True)
    finally:
        if world is not None:
            world.close()


RUNNERS = {"circuit_churn": run_circuit_churn, "bulk_echo": run_bulk_echo,
           "tcp_echo": run_tcp_echo}


def run(workload: str, cfg: Config, seed: int, seconds: float, tracer) -> Tally:
    tally = Tally(rss_rounds=cfg.rss_rounds, probe=SpeedProbe(cfg.walk_weight))
    RUNNERS[workload](cfg, seed, seconds, tracer, tally)
    if tally.peak_rss_mb is None:  # fewer timed rounds than rss_rounds
        tally.read_peak_rss()
    return tally
