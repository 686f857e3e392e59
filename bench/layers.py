"""Which public functions the traced run wraps, and the per-layer metrics.

Each wrapper sits on the attribute the caller looks the function up on at
call time: ``protocol`` imported ``mix`` by name, so ``protocol.mix`` is
wrapped; ``simnet`` and ``transport`` call ``protocol.node_handle_cell``
through the module, so that attribute is wrapped.

Timings are medians over spans that start inside the timed phase. Exact
counts are medians over "exact" requests, whose every span is known: the
timed requests on the simulator, which is single-threaded, and on TCP the
single-client calibration requests that follow the timed phase.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from onionkep import directory, nikep, onioncrypt, protocol, simnet, transport

from tracing import (END, ID, INFO, NAME, PARENT, REQUEST, START, by_request, layer_time,
                     percentile, self_times)
from workloads import RELAYS


def _sizes(args, result):
    return len(args[0]), len(result)


def _address(args, result):
    return "%s:%d" % args[0][:2]


def install(tracer, runtime: str) -> None:
    t = tracer.install
    t(nikep, "gen_prime_with_two_primitive", "modmath.gen_prime")
    for fn in ("gen_keypair", "mix", "derive_session_key"):
        t(protocol, fn, "nikep." + fn)
    for owner in (protocol, onioncrypt):
        t(owner, "chunk_encrypt", "onioncrypt.chunk_encrypt", note=_sizes)
        t(owner, "chunk_decrypt", "onioncrypt.chunk_decrypt", note=_sizes)
    for fn in ("onion_wrap", "encode_relay_frame", "decode_relay_frame", "key_digest"):
        t(protocol, fn, "onioncrypt." + fn)
    for fn in ("node_handle_cell", "client_handle_cell"):
        t(protocol, fn, "protocol." + fn)
    if runtime == "sim":
        t(simnet, "encode_cell", "onioncrypt.encode_cell")
        t(simnet.SimNet, "run", "simnet.run")
        t(simnet.SimNode, "handle", "simnet.host_handle")
        t(simnet.SimClient, "handle", "simnet.host_handle")
        t(directory.Directory, "lookup", "directory.lookup")
    else:
        t(transport, "encode_cell", "onioncrypt.encode_cell")
        t(transport, "decode_cell", "onioncrypt.decode_cell")
        t(transport, "send_frame", "transport.send_frame")
        t(transport, "recv_frame", "transport.recv_frame")
        t(transport.DirectoryClient, "lookup", "directory.lookup")
        t(transport.socket, "create_connection", "transport.connect", note=_address)


# name -> (unit, better); the order is the report's.
PER_LAYER = {
    "modmath.prime_gen_ms": ("ms", "lower"),
    "modmath.prime_candidates": ("count", "lower"),
    "nikep.gen_keypair_us": ("us", "lower"),
    "nikep.mix_us": ("us", "lower"),
    "nikep.derive_session_key_us": ("us", "lower"),
    "nikep.calls_per_build": ("count", "lower"),
    "nikep.share_of_build": ("ratio", "lower"),
    "onioncrypt.chunk_encrypt_MBps": ("MB/s", "higher"),
    "onioncrypt.chunk_decrypt_MBps": ("MB/s", "higher"),
    **{f"onioncrypt.chunk_{op}_MBps.{kb}KB": ("MB/s", "higher")
       for op in ("encrypt", "decrypt") for kb in (1, 4, 16)},
    "onioncrypt.layer_expansion": ("ratio", "lower"),
    "onioncrypt.cell_codec_us": ("us", "lower"),
    "onioncrypt.share_of_rtt": ("ratio", "lower"),
    "protocol.node_cell_us": ("us", "lower"),
    "protocol.node_cell_self_us": ("us", "lower"),
    "protocol.client_cell_self_us": ("us", "lower"),
    "protocol.cells_per_build": ("count", "lower"),
    **{f"protocol.relay_entries_max.{n}": ("count", "lower") for n in RELAYS},
    "directory.lookups_per_build": ("count", "lower"),
    "directory.lookup_us": ("us", "lower"),
    "simnet.steps_per_build": ("count", "lower"),
    "simnet.loop_self_us": ("us", "lower"),
    "simnet.transcript_KB_per_round": ("KB", "lower"),
    "transport.frames_per_build": ("count", "lower"),
    "transport.recv_wait_ms": ("ms", "lower"),
    "transport.recv_wait_ms_p95": ("ms", "lower"),
    "transport.send_frame_us": ("us", "lower"),
    "transport.connects_per_build": ("count", "lower"),
    **{f"transport.relay_inbound_conns.{n}": ("count", "lower") for n in RELAYS},
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, tally, runtime: str) -> dict[str, float]:
    """Derive every PER_LAYER metric from the spans; 0 where a layer is absent."""
    spans = tracer.spans
    t0, t1 = tally.window
    timed = [s for s in spans if t0 <= s[START] <= t1]
    durations = defaultdict(list)
    for s in timed:
        durations[s[NAME]].append(s[END] - s[START])
    selfs = self_times(timed)

    exact_phase = "timed" if runtime == "sim" else "calibration"
    groups = by_request(spans)
    exact = defaultdict(list)
    for rid, info in tracer.requests.items():
        if info["phase"] == exact_phase:
            exact[info["kind"]].append(rid)
    builds, echoes = exact["build"], exact["echo"]

    def per_build(*names) -> float:
        return _median([sum(s[NAME] in names for s in groups[rid]) for rid in builds])

    request_s = {s[ID]: s[END] - s[START] for s in spans if s[ID] in tracer.requests}

    def share(rids, layer) -> float:
        total = sum(request_s[rid] for rid in rids)
        return sum(layer_time(groups[rid], layer) for rid in rids) / total if total else 0.0

    def us(name) -> float:
        return _median(durations[name]) * 1e6

    def self_us(name) -> float:
        return _median([selfs[s[ID]] for s in timed if s[NAME] == name]) * 1e6

    def mbps(op, size=None) -> float:
        moved = elapsed = 0
        for s in timed:
            if s[NAME] != f"onioncrypt.chunk_{op}" or s[INFO] is None:
                continue
            if size is not None and tracer.requests.get(s[REQUEST], {}).get("size") != size:
                continue
            moved += s[INFO][0] if op == "encrypt" else s[INFO][1]
            elapsed += s[END] - s[START]
        return moved / elapsed / 1e6 if elapsed else 0.0

    m: dict[str, float] = {}
    gens = [s[END] - s[START] for s in spans if s[NAME] == "modmath.gen_prime"]
    m["modmath.prime_gen_ms"] = _median(gens) * 1e3
    m["modmath.prime_candidates"] = _median(tally.prime_draws)

    m["nikep.gen_keypair_us"] = us("nikep.gen_keypair")
    m["nikep.mix_us"] = us("nikep.mix")
    m["nikep.derive_session_key_us"] = us("nikep.derive_session_key")
    m["nikep.calls_per_build"] = per_build("nikep.gen_keypair", "nikep.mix",
                                           "nikep.derive_session_key")
    m["nikep.share_of_build"] = share(builds, "nikep")

    m["onioncrypt.chunk_encrypt_MBps"] = mbps("encrypt")
    m["onioncrypt.chunk_decrypt_MBps"] = mbps("decrypt")
    for op in ("encrypt", "decrypt"):
        for kb in (1, 4, 16):
            m[f"onioncrypt.chunk_{op}_MBps.{kb}KB"] = mbps(op, kb * 1024)
    first_echo = [s[INFO] for s in groups[echoes[0]]
                  if s[NAME] == "onioncrypt.chunk_encrypt" and s[INFO]] if echoes else []
    m["onioncrypt.layer_expansion"] = (sum(o for _, o in first_echo) / sum(i for i, _ in first_echo)
                                       if first_echo else 0.0)
    m["onioncrypt.cell_codec_us"] = _median(durations["onioncrypt.encode_cell"]
                                            + durations["onioncrypt.decode_cell"]) * 1e6
    m["onioncrypt.share_of_rtt"] = share(echoes, "onioncrypt")

    m["protocol.node_cell_us"] = us("protocol.node_handle_cell")
    m["protocol.node_cell_self_us"] = self_us("protocol.node_handle_cell")
    m["protocol.client_cell_self_us"] = self_us("protocol.client_handle_cell")
    m["protocol.cells_per_build"] = per_build("protocol.node_handle_cell",
                                              "protocol.client_handle_cell")
    for name in RELAYS:
        m[f"protocol.relay_entries_max.{name}"] = tally.entries_max[name]

    m["directory.lookups_per_build"] = per_build("directory.lookup")
    m["directory.lookup_us"] = us("directory.lookup")

    m["simnet.steps_per_build"] = per_build("simnet.host_handle")
    runs = {s[ID] for s in timed if s[NAME] == "simnet.run"}
    handled = [s[END] - s[START] for s in timed
               if s[NAME] == "simnet.host_handle" and s[PARENT] in runs]
    loop = sum(durations["simnet.run"]) - sum(handled)
    m["simnet.loop_self_us"] = loop / len(handled) * 1e6 if handled else 0.0
    m["simnet.transcript_KB_per_round"] = _median(tally.transcript_bytes) / 1e3

    m["transport.frames_per_build"] = per_build("transport.send_frame")
    waits = [s[END] - s[START] for s in timed
             if s[NAME] == "transport.recv_frame" and s[REQUEST] is not None]
    m["transport.recv_wait_ms"] = _median(waits) * 1e3
    m["transport.recv_wait_ms_p95"] = percentile(waits, 95) * 1e3 if waits else 0.0
    m["transport.send_frame_us"] = us("transport.send_frame")
    m["transport.connects_per_build"] = per_build("transport.connect")
    inbound = defaultdict(int)
    for s in spans:
        if (s[NAME] == "transport.connect" and s[START] >= tally.world_start
                and s[INFO] in tally.relay_addresses):
            inbound[tally.relay_addresses[s[INFO]]] += 1
    for name in RELAYS:
        m[f"transport.relay_inbound_conns.{name}"] = inbound[name]
    return m
