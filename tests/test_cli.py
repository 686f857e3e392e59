"""Command line: outputs, exit codes and seeded determinism."""

import random
import re
from dataclasses import replace

import pytest

from onionkep import cli, decode_cell, errors, gen_keypair, gen_params, params_digest, tlv
from onionkep.cli import main
from onionkep.directory import Directory, NodeDescriptor, encode_descriptor
from onionkep.nikep import (PublicConstructor, decode_private_file, decode_public_file,
                            encode_public_file)
from onionkep.transport import DirectoryClient, DirectoryServer, NodeServer
from conftest import MALFORMED_ANSWERS, fake_directory


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKeygen:
    def test_toy_seeded_run(self, tmp_path, capsys):
        stem = str(tmp_path / "alice")
        code, out, _ = run_cli(capsys, "keygen", "--r-bits", "4",
                               "--seed", "1", "--out", stem)
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.splitlines())
        assert lines["r_bits"] == "4"
        assert lines["n"] == "0x2c"  # 44
        assert lines["public_bytes"] == "2"
        with open(stem + ".pub", "rb") as fh:
            params, pub = decode_public_file(fh.read())
        assert (params.p, params.q, params.r) == (2, 2, 11)
        assert lines["P"] == f"0x{pub.P:x}" and lines["Q"] == f"0x{pub.Q:x}"
        with open(stem + ".priv", "rb") as fh:
            priv_params, pair = decode_private_file(fh.read())
        assert priv_params == params and pair.public == pub
        assert pair.private.k > params.r  # prefix-safe by default

    def test_seeded_files_are_byte_identical(self, tmp_path, capsys):
        blobs = []
        for name in ("one", "two"):
            stem = str(tmp_path / name)
            code, _, _ = run_cli(capsys, "keygen", "--r-bits", "16",
                                 "--seed", "9", "--out", stem)
            assert code == 0
            with open(stem + ".priv", "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]

    def test_allow_small_k(self, tmp_path, capsys):
        # Seed chosen so the unconstrained draw lands below r.
        for seed in range(30):
            stem = str(tmp_path / f"k{seed}")
            code, _, _ = run_cli(capsys, "keygen", "--r-bits", "4",
                                 "--seed", str(seed), "--out", stem,
                                 "--allow-small-k")
            assert code == 0
            with open(stem + ".priv", "rb") as fh:
                _, pair = decode_private_file(fh.read())
            if pair.private.k <= 11:
                return
        pytest.fail("no small k observed across 30 seeds")

    def test_reuse_params(self, tmp_path, capsys):
        base = str(tmp_path / "base")
        run_cli(capsys, "keygen", "--r-bits", "16", "--seed", "2", "--out", base)
        other = str(tmp_path / "other")
        code, _, _ = run_cli(capsys, "keygen", "--params", base + ".pub",
                             "--seed", "3", "--out", other)
        assert code == 0
        with open(base + ".pub", "rb") as fh:
            base_params, base_pub = decode_public_file(fh.read())
        with open(other + ".pub", "rb") as fh:
            other_params, other_pub = decode_public_file(fh.read())
        assert other_params == base_params
        assert other_pub != base_pub

    def test_impossible_size_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "keygen", "--r-bits", "3",
                               "--seed", "0", "--out", str(tmp_path / "x"))
        assert code == 2
        assert err.startswith("error=")


class TestServers:
    def test_directory_and_node_listen_until_interrupted(self, tmp_path, capsys,
                                                         monkeypatch):
        def interrupt(seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr("onionkep.cli.time.sleep", interrupt)
        stem = str(tmp_path / "relay")
        run_cli(capsys, "keygen", "--r-bits", "16", "--seed", "2", "--out", stem)
        code, out, _ = run_cli(capsys, "directory", "--params", stem + ".pub",
                               "--listen", "127.0.0.1:0")
        assert code == 0
        assert re.fullmatch(r"directory_listening=127\.0\.0\.1:\d+\n", out)
        with open(stem + ".pub", "rb") as fh:
            params, _ = decode_public_file(fh.read())
        dir_server = DirectoryServer(Directory(params_digest(params))).start()
        try:
            code, out, _ = run_cli(capsys, "node", "--name", "B", "--keys", stem,
                                   "--listen", "127.0.0.1:0", "--dir", dir_server.address)
        finally:
            dir_server.stop()
        assert code == 0
        assert re.fullmatch(r"node=B listening=127\.0\.0\.1:\d+\n", out)


class TestClientSim:
    def test_build(self, capsys):
        code, out, _ = run_cli(capsys, "client", "build", "--sim",
                               "--hops", "B,C,D", "--seed", "5")
        assert code == 0
        lines = out.splitlines()
        assert [l.split()[1] for l in lines] == ["name=B", "name=C", "name=D"]
        assert all(l.startswith("confirmed ") for l in lines)

    def test_send_echoes(self, capsys):
        code, out, _ = run_cli(capsys, "client", "send", "ping", "--sim",
                               "--hops", "B,C,D", "--seed", "5")
        assert code == 0
        assert "exit_delivered stream=1 data=ping" in out
        assert "response stream=1 data=ping" in out

    def test_corrupt_created_exits_3(self, capsys):
        code, out, _ = run_cli(capsys, "client", "build", "--sim",
                               "--hops", "B,C,D", "--seed", "5",
                               "--corrupt-created")
        assert code == 3
        assert "failed reason=CircuitIntegrityFailure" in out

    def test_repeated_hops_echo(self, capsys):
        code, out, _ = run_cli(capsys, "client", "send", "hi", "--sim",
                               "--hops", "B,C,B", "--seed", "1")
        assert code == 0
        assert [l.split()[1] for l in out.splitlines()[:3]] == ["name=B", "name=C", "name=B"]
        assert "response stream=1 data=hi" in out

    @pytest.mark.parametrize("hops", ["A", "B,A,D"])
    def test_relay_named_like_the_client_exits_2(self, capsys, hops):
        # The simulated client host is "A", so no simulated relay may be.
        code, out, err = run_cli(capsys, "client", "build", "--sim", "--hops", hops,
                                 "--seed", "1")
        assert (code, out) == (2, "")
        assert err == "error=relay name 'A' clashes with the client host 'A'\n"

    def test_seeded_output_deterministic(self, capsys):
        outs = [run_cli(capsys, "client", "send", "msg", "--sim",
                        "--hops", "B,C,D", "--seed", "12")[1] for _ in range(2)]
        assert outs[0] == outs[1]


@pytest.fixture
def tcp_relays(tmp_path):
    """A directory and relays B, C and D on loopback: yields the directory's
    address and a public key file carrying their parameters."""
    rng = random.Random(41)
    params = gen_params(16, rng)
    params_file = tmp_path / "params.pub"
    params_file.write_bytes(encode_public_file(params, gen_keypair(params, rng).public))
    dir_server = DirectoryServer(Directory(params_digest(params))).start()
    dir_client = DirectoryClient(dir_server.address)
    nodes = [NodeServer(name, params, gen_keypair(params, rng), dir_client).start()
             for name in ("B", "C", "D")]
    yield dir_server.address, str(params_file)
    for node in nodes:
        node.stop()
    dir_server.stop()


class TestClientTcp:
    def test_send_echoes(self, capsys, tcp_relays):
        address, params_file = tcp_relays
        code, out, _ = run_cli(capsys, "client", "send", "hi there", "--hops", "B,C,D",
                               "--dir", address, "--params", params_file)
        assert code == 0
        lines = out.splitlines()
        assert [l.split()[:2] for l in lines[:3]] == [
            ["confirmed", "name=B"], ["confirmed", "name=C"], ["confirmed", "name=D"]]
        assert lines[3:] == ["response=hi there"]

    def test_unregistered_hop_exits_2(self, capsys, tcp_relays):
        address, params_file = tcp_relays
        code, out, err = run_cli(capsys, "client", "send", "hi", "--hops", "B,Z",
                                 "--dir", address, "--params", params_file)
        assert code == 2
        assert out == ""
        assert err == "error=directory returned status 1\n"

    def test_descriptor_under_other_parameters_exits_3(self, tmp_path, capsys, tcp_relays):
        address, _ = tcp_relays
        stem = str(tmp_path / "other")
        run_cli(capsys, "keygen", "--r-bits", "16", "--seed", "2", "--out", stem)
        code, out, err = run_cli(capsys, "client", "build", "--hops", "B,C,D",
                                 "--dir", address, "--params", stem + ".pub")
        assert (code, out, err) == (3, "", "error=descriptor for B uses foreign parameters\n")

    def test_corrupt_created_exits_3(self, capsys, tcp_relays):
        address, params_file = tcp_relays
        code, out, _ = run_cli(capsys, "client", "build", "--hops", "B,C,D",
                               "--dir", address, "--params", params_file,
                               "--seed", "5", "--corrupt-created")
        assert code == 3
        assert "failed reason=CircuitIntegrityFailure" in out


    @pytest.mark.parametrize("answer", MALFORMED_ANSWERS.values(), ids=MALFORMED_ANSWERS)
    def test_malformed_directory_answer_exits_3(self, tmp_path, capsys, answer):
        stem = str(tmp_path / "params")
        run_cli(capsys, "keygen", "--r-bits", "16", "--seed", "2", "--out", stem)
        with fake_directory(lambda request: answer) as address:
            code, out, err = run_cli(capsys, "client", "build", "--hops", "B,C,D",
                                     "--dir", address, "--params", stem + ".pub")
        assert code == 3
        assert out == ""
        assert err.startswith("error=")

    @pytest.mark.parametrize("action", ["build", "send"])
    def test_missing_params_exits_2(self, capsys, action):
        code, out, err = run_cli(capsys, "client", action, "--hops", "B",
                                 "--dir", "127.0.0.1:1")
        assert code == 2
        assert out == ""
        assert err.startswith("error=") and "--params" in err

    def test_missing_directory_address_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("ONIONKEP_DIR", raising=False)
        code, out, err = run_cli(capsys, "client", "build", "--hops", "B",
                                 "--params", str(tmp_path / "unread.pub"))
        assert code == 2
        assert out == ""
        assert err.startswith("error=") and "--dir" in err and "ONIONKEP_DIR" in err


ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, errors.OnionKepError)
                 and c is not errors.OnionKepError]


class TestExitCodes:
    # The scripting contract: a usage, lookup or generation error exits 2,
    # any other error of this package 3, each with its message on stderr.
    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_every_error_class(self, capsys, monkeypatch, error):
        def fail(args):
            raise error("stubbed failure")
        monkeypatch.setattr(cli, "cmd_sim", fail)
        code, out, err = run_cli(capsys, "sim")
        expected = 2 if error in (errors.GenerationFailed, errors.NotFound) else 3
        assert (code, out, err) == (expected, "", "error=stubbed failure\n")


class TestDirectorySnapshot:
    @pytest.mark.parametrize("name, cut", [(b"B", 1), (b"\xff", 0)],
                             ids=["truncated", "non-utf8-name"])
    def test_malformed_snapshot_exits_3(self, tmp_path, capsys, monkeypatch, name, cut):
        def interrupt(seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr("onionkep.cli.time.sleep", interrupt)
        stem = str(tmp_path / "params")
        run_cli(capsys, "keygen", "--r-bits", "16", "--seed", "2", "--out", stem)
        with open(stem + ".pub", "rb") as fh:
            params, pub = decode_public_file(fh.read())
        blob = (tlv.encode_record(tlv.TAG_NAME, name)
                + tlv.encode_record(tlv.TAG_ADDRESS, b"127.0.0.1:1")
                + tlv.encode_int_record(tlv.TAG_PUB_P, pub.P)
                + tlv.encode_int_record(tlv.TAG_PUB_Q, pub.Q)
                + tlv.encode_record(tlv.TAG_PARAMS_DIGEST, params_digest(params)))
        snapshot = tmp_path / "dir.tlv"
        snapshot.write_bytes(blob[:len(blob) - cut])
        code, out, err = run_cli(capsys, "directory", "--params", stem + ".pub",
                                 "--snapshot", str(snapshot))
        assert (code, out) == (3, "")
        assert err.startswith("error=")

    @pytest.mark.parametrize("refused, reason", [
        ("foreign-params", "uses foreign parameters"),
        ("name-taken", "already registered with a different key"),
    ])
    def test_snapshot_record_that_register_refuses_exits_3(self, tmp_path, capsys,
                                                           monkeypatch, refused, reason):
        def interrupt(seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr("onionkep.cli.time.sleep", interrupt)
        stem = str(tmp_path / "params")
        run_cli(capsys, "keygen", "--r-bits", "16", "--seed", "2", "--out", stem)
        with open(stem + ".pub", "rb") as fh:
            params, pub = decode_public_file(fh.read())
        desc = NodeDescriptor("B", "127.0.0.1:1", pub, params_digest(params))
        if refused == "foreign-params":
            records = [replace(desc, params_digest=bytes(32))]
        else:
            records = [desc, replace(desc, public=PublicConstructor(pub.Q, pub.P))]
        snapshot = tmp_path / "dir.tlv"
        snapshot.write_bytes(b"".join(encode_descriptor(d) for d in records))
        code, out, err = run_cli(capsys, "directory", "--params", stem + ".pub",
                                 "--snapshot", str(snapshot))
        assert (code, out) == (3, "")
        assert err.startswith("error=") and reason in err


class TestSim:
    def test_default_run(self, capsys):
        code, out, _ = run_cli(capsys, "sim", "--message", "hi")
        assert code == 0
        assert out.count("confirmed ") == 3
        cells_line = next(l for l in out.splitlines() if l.startswith("cells="))
        commands = cells_line[len("cells="):].split(",")
        assert commands[:12] == ["CREATE", "CREATED", "RELAY",
                                 "CREATE", "CREATED", "RELAY", "RELAY",
                                 "RELAY",
                                 "CREATE", "CREATED", "RELAY", "RELAY"]
        assert "exit_delivered stream=1 data=hi" in out

    def test_deterministic_across_runs(self, capsys):
        outs = [run_cli(capsys, "sim", "--seed", "3")[1] for _ in range(2)]
        assert outs[0] == outs[1]


class TestDemoPrefixAttack:
    def test_unmitigated_recovers_key(self, capsys):
        code, out, _ = run_cli(capsys, "demo-prefix-attack")
        assert code == 0
        assert "true_k_n=7" in out
        assert "recovered=7" in out
        assert "full_recovery=True" in out

    def test_mitigated_leaks_residue_only(self, capsys):
        code, out, _ = run_cli(capsys, "demo-prefix-attack", "--mitigated")
        assert code == 0
        assert "true_k_n=13" in out
        assert "recovered=2" in out
        assert "mitigated=True leak_is_residue_only=True" in out

    def test_seeded_runs(self, capsys):
        for seed in range(5):
            code, out, _ = run_cli(capsys, "demo-prefix-attack",
                                   "--seed", str(seed), "--r-bits", "16")
            assert code == 0
            assert "full_recovery=True" in out
            code, out, _ = run_cli(capsys, "demo-prefix-attack", "--mitigated",
                                   "--seed", str(seed), "--r-bits", "16")
            assert code == 0
            assert "mitigated=True" in out


class TestBenchKeysizes:
    def test_1024(self, capsys):
        code, out, _ = run_cli(capsys, "bench-keysizes", "--n-bits", "1024")
        assert code == 0
        assert "public_kb=0.256 claimed=0.256 verdict=MATCH" in out

    def test_2048(self, capsys):
        code, out, _ = run_cli(capsys, "bench-keysizes", "--n-bits", "2048")
        assert code == 0
        assert "public_kb=0.512 claimed=0.512 verdict=MATCH" in out
