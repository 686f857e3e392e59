"""Acceptance gate: one test and one printed verdict line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines
inline; under plain `pytest` they appear for failing tests only.
"""

import contextlib
import functools
import io
import math
import random
import time

import pytest

from onionkep import (
    decode_cell,
    derive_session_key,
    encrypt_block,
    decrypt_block,
    gen_keypair,
    gen_params,
    key_sizes,
    keypair_from_secrets,
    make_params,
    mix,
    prefix_recover,
    reduce_key,
    strip,
)
from onionkep.cli import main as cli_main
from onionkep.modmath import mod_inv
from onionkep.nikep import SystemParams
from onionkep.onioncrypt import CellCommand, RelaySubcommand
from onionkep.protocol import Phase
from onionkep.simnet import build_simulation, run_build, run_send
from conftest import on_link, serialize, session_keys


def criterion(num, text):
    """Print one PASS/FAIL line per criterion, win or lose."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num:2d}: {text}")
                raise
            print(f"PASS criterion {num:2d}: {text}")
        return run
    return wrap


def oracle_shared_key(params, a, b):
    return (pow(params.p, 2 * a.private.x * b.private.x, params.n)
            * pow(params.q, a.private.y * b.private.y, params.n)) % params.n


@pytest.fixture(scope="module")
def sized_params():
    rng = random.Random(0xACCE97)
    return {bits: gen_params(bits, rng) for bits in (4, 16, 64, 256, 512)}


@criterion(1, "key agreement matches the direct oracle over 1000 trials")
def test_criterion_01_key_agreement(sized_params):
    start = time.monotonic()
    rng = random.Random(101)
    for bits, params in sized_params.items():
        for _ in range(200):
            a = gen_keypair(params, rng)
            b = gen_keypair(params, rng)
            a_side = strip(params, mix(params, a.public, b.private), a.private.k)
            b_side = strip(params, mix(params, b.public, a.private), b.private.k)
            assert a_side == b_side == oracle_shared_key(params, a, b)
    assert time.monotonic() - start < 60


@criterion(2, "toy worked instance reproduces every frozen value exactly")
def test_criterion_02_toy_regression():
    params = make_params(2, 2, 11)
    alice = keypair_from_secrets(params, 3, 13)
    bob = keypair_from_secrets(params, 5, 15)
    assert (alice.public.P, alice.public.Q) == (40, 28)
    assert (bob.public.P, bob.public.Q) == (4, 36)
    assert mix(params, bob.public, alice.private) == 12
    assert mix(params, alice.public, bob.private) == 28
    assert strip(params, 12, 15) == strip(params, 28, 13) == 36
    key = reduce_key(params, 36)
    assert (key.reduced, key.reduced_inv) == (9, 5)
    assert encrypt_block(7, key, params) == 8


@criterion(3, "k^phi == 1 mod n for 1000 invertible k on both profiles")
def test_criterion_03_euler_invariant():
    rng = random.Random(103)
    for params in (make_params(2, 2, 11), make_params(3, 5, 11)):
        done = 0
        while done < 500:
            k = rng.randrange(1, params.n)
            if math.gcd(k, params.n) != 1:
                continue
            assert pow(k, params.phi, params.n) == 1
            done += 1


@criterion(4, "block cipher round-trips exhaustively at r=11 and at 256 bits")
def test_criterion_04_cipher_correctness(sized_params):
    toy = make_params(2, 2, 11)
    key = reduce_key(toy, 36)
    for m in range(toy.r):
        assert decrypt_block(encrypt_block(m, key, toy), key, toy) == m
    params = sized_params[256]
    rng = random.Random(104)
    a = gen_keypair(params, rng)
    b = gen_keypair(params, rng)
    key = derive_session_key(params, mix(params, a.public, b.private), a.private.k)
    for _ in range(500):
        m = rng.randrange(0, params.r)
        assert decrypt_block(encrypt_block(m, key, params), key, params) == m


@criterion(5, "multiplicative homomorphism identities hold for 500 key pairs")
def test_criterion_05_homomorphism():
    params = make_params(2, 2, 11)
    r = params.r
    rng = random.Random(105)
    for _ in range(500):
        ka, kb = rng.randrange(1, r), rng.randrange(1, r)
        w = rng.randrange(0, r)
        both = w * ka % r * kb % r
        assert both * mod_inv(ka, r) % r == w * kb % r
        assert both * mod_inv(kb, r) % r == w * ka % r


@criterion(6, "prefix attack: 100/100 full recovery unmitigated, 0/100 mitigated")
def test_criterion_06_prefix_attack(sized_params):
    params = sized_params[16]
    rng = random.Random(106)
    for _ in range(100):
        x = rng.randrange(1, params.r)
        k_m = rng.randrange(1, params.r)
        k_n = rng.randrange(2, params.r)
        c1 = 4 * x * k_m % params.n
        c2 = c1 * k_n % params.n
        assert prefix_recover(params, c1, c2) == k_n
    for _ in range(100):
        x = rng.randrange(1, params.r)
        k_m = rng.randrange(1, params.r)
        k_n = rng.randrange(params.r + 1, params.n)
        c1 = 4 * x * k_m % params.n
        c2 = c1 * k_n % params.n
        recovered = prefix_recover(params, c1, c2)
        assert recovered != k_n
        assert recovered < params.r


@criterion(7, "public key size is 0.256 KB at 1024-bit n and 0.512 KB at 2048")
def test_criterion_07_key_sizes():
    for n_bits, expected_kb in ((1024, 0.256), (2048, 0.512)):
        r = (1 << (n_bits - 3)) | 1
        params = SystemParams(p=2, q=2, r=r, n=4 * r, phi=0)
        assert params.n.bit_length() == n_bits
        sizes = key_sizes(params)
        assert sizes["public_bytes"] / 1000 == expected_kb
        assert sizes["private_bytes"] > 0  # reported; MATCH not required


@criterion(8, "three-hop build reaches READY with matching keys and cell order")
def test_criterion_08_circuit_build():
    start = time.monotonic()
    sim, client, nodes = build_simulation(64, 108)
    state = run_build(sim, client, ["B", "C", "D"])
    assert state.phase == Phase.READY
    client_keys = [h.session.raw for h in state.hops]
    assert [session_keys(nodes[n]) for n in ("B", "C", "D")] \
        == [[client_keys[0]], [client_keys[1]], [client_keys[2]]]
    assert sim.transcript.commands() == [
        "CREATE", "CREATED", "RELAY",
        "CREATE", "CREATED", "RELAY", "RELAY",
        "RELAY",
        "CREATE", "CREATED", "RELAY", "RELAY",
    ]
    assert time.monotonic() - start < 5


@criterion(9, "each relay holds exactly its own key; extension plaintext stays off the entry link")
def test_criterion_09_knowledge_confinement():
    sim, client, nodes = build_simulation(64, 109)
    state = run_build(sim, client, ["B", "C", "D"])
    k_bx, k_cy, k_dz = (h.session.raw for h in state.hops)
    assert session_keys(nodes["B"]) == [k_bx] and k_bx not in (k_cy, k_dz)
    assert session_keys(nodes["C"]) == [k_cy]
    assert session_keys(nodes["D"]) == [k_dz]
    # The handshake D receives in the clear on the C-D link must never be
    # visible inside anything that crossed the A-B link.
    cd_creates = [decode_cell(e.data).payload
                  for e in on_link(sim.transcript, "C", "D")
                  if decode_cell(e.data).command == CellCommand.CREATE]
    assert cd_creates
    ab_bytes = b"".join(e.data for e in on_link(sim.transcript, "A", "B"))
    for payload in cd_creates:
        assert payload not in ab_bytes


@criterion(10, "100/100 randomized response corruptions end in CircuitIntegrityFailure")
def test_criterion_10_integrity():
    for trial in range(100):
        rng = random.Random(trial)
        sim, client, _ = build_simulation(16, 110)
        target = rng.randrange(0, 3)  # CREATED or one of two EXTENDED replies
        seen = [0]

        def tamper(src, dst, cell, _t=target, _s=seen, _r=rng):
            if dst != "A" or not cell.payload:
                return cell
            idx, _s[0] = _s[0], _s[0] + 1
            if idx != _t:
                return cell
            raw = bytearray(cell.payload)
            raw[_r.randrange(len(raw))] ^= 1 << _r.randrange(8)
            return type(cell)(cell.circ_id, cell.command, bytes(raw))

        sim.tamper = tamper
        state = run_build(sim, client, ["B", "C", "D"])
        assert state.phase == Phase.FAILED
        assert "CircuitIntegrityFailure" in (state.failure or "")


@criterion(11, "payloads up to 4 KB arrive intact over simnet and TCP transport")
def test_criterion_11_end_to_end():
    rng = random.Random(111)
    sim, client, nodes = build_simulation(64, 111)
    run_build(sim, client, ["B", "C", "D"])
    sent = []
    for stream_id in range(1, 6):
        payload = rng.randbytes(rng.randrange(0, 4097))
        sent.append((stream_id, payload))
        run_send(sim, client, stream_id, payload)
    assert nodes["D"].delivered == sent

    from onionkep import params_digest
    from onionkep.directory import Directory
    from onionkep.transport import (
        DirectoryClient, DirectoryServer, NodeServer, StreamCircuitClient)
    params = gen_params(16, rng)
    dir_server = DirectoryServer(Directory(params_digest(params))).start()
    dir_client = DirectoryClient(dir_server.address)
    servers = [NodeServer(name, params, gen_keypair(params, rng), dir_client).start()
               for name in ("B", "C", "D")]
    tcp_client = StreamCircuitClient(params, dir_client, rng)
    try:
        state = tcp_client.build(["B", "C", "D"])
        assert state.phase == Phase.READY
        payload = rng.randbytes(4096)
        assert tcp_client.send_data(7, payload) == payload
        assert servers[2].delivered[-1] == (7, payload)
    finally:
        tcp_client.close()
        for server in servers:
            server.stop()
        dir_server.stop()


@criterion(12, "seeded attack demo and simulator runs are byte-identical")
def test_criterion_12_determinism():
    demo_outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["demo-prefix-attack", "--seed", "12", "--r-bits", "16"])
        assert code == 0
        demo_outputs.append(buf.getvalue())
    assert demo_outputs[0] == demo_outputs[1]

    transcripts = []
    for _ in range(2):
        sim, client, _ = build_simulation(16, 112)
        run_build(sim, client, ["B", "C", "D"])
        run_send(sim, client, 1, b"determinism probe")
        transcripts.append(serialize(sim.transcript))
    assert transcripts[0] == transcripts[1]
