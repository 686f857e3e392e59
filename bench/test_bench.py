"""The benchmark's own tests: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from onionkep import nikep, protocol  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("circuit_churn", "bulk_echo", "tcp_echo")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def smoke(workload: str, trace: int, cwd: str = ROOT, seed: int = 7):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (result(smoke(w, 1)), result(smoke(w, 1))) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_emits_every_end_to_end_metric(workload):
    out = result(smoke(workload, 0))
    expected = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] <= out["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_emits_every_per_layer_metric(workload, traced_twice):
    out = traced_twice[workload][0]
    expected = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert out["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_between_traced_runs(workload, traced_twice):
    first, second = traced_twice[workload]
    exact = [name for name in first["metrics"]
             if name.endswith("_per_build") or name in ("modmath.prime_candidates",
                                                        "onioncrypt.layer_expansion")]
    assert first["metrics"]["nikep.calls_per_build"]["value"] == 15
    assert [first["metrics"][n]["value"] for n in exact] == \
        [second["metrics"][n]["value"] for n in exact]


def test_corrupted_echo_is_counted_as_a_failure(monkeypatch):
    original = protocol.node_reply_data
    calls = []

    def corrupt_second_reply(state, circ_id, prev_link, stream_id, data):
        calls.append(1)
        if len(calls) == 2:
            data = bytes([data[0] ^ 1]) + data[1:]
        return original(state, circ_id, prev_link, stream_id, data)

    monkeypatch.setattr(protocol, "node_reply_data", corrupt_second_reply)
    tally = workloads.run("bulk_echo", workloads.SMOKE["bulk_echo"], 1, 0.2,
                          tracing.NullTracer())
    assert tally.echoes_failed == 1
    assert tally.echo_mismatches == 1
    assert tally.echoes_attempted > 1
    assert any("differ" in f for f in tally.failures)


def test_self_time_subtracts_the_union_of_children():
    # (id, name, start, end, parent, request, info)
    spans = [
        (1, "protocol.node_handle_cell", 0.0, 10.0, None, 1, None),
        (2, "nikep.mix", 1.0, 4.0, 1, 1, None),
        (3, "onioncrypt.chunk_encrypt", 3.0, 6.0, 1, 1, None),
        (4, "modmath.mod_inv", 2.0, 3.0, 2, 1, None),
        (5, "onioncrypt.chunk_decrypt", 3.5, 5.0, 3, 1, None),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 10.0 - 5.0, 2: 3.0 - 1.0, 3: 3.0 - 1.5, 4: 1.0, 5: 1.5}
    # Nested spans of one layer count once.
    assert tracing.layer_time(spans, "onioncrypt") == 3.0
    assert tracing.layer_time(spans, "nikep") == 3.0


def test_counting_random_keeps_the_stream_and_counts_candidates():
    counting = tracing.CountingRandom(5)
    assert nikep.gen_params(32, counting) == nikep.gen_params(32, random.Random(5))
    assert counting.draws >= 1
    before = counting.draws
    counting.randrange(1 << 40)  # rejection sampling inside random is not counted
    assert counting.draws == before
    counting.getrandbits(8)
    assert counting.draws == before + 1


def test_speed_probe_level_is_the_median_probe_over_a_stretch():
    probe = workloads.SpeedProbe()
    probe.times = [0.0, 1.0, 2.0, 3.0]
    probe.seconds = [1.0, 2.0, 9.0, 3.0]
    assert probe.level(0.5, 0.6) == 1.5    # the probes on either side
    assert probe.level(-1.0, -0.5) == 1.0  # before the first probe: the first
    assert probe.level(1.5, 2.5) == 3.0    # median of 2, 9 and 3
    assert probe.level(3.5, 4.0) == 3.0    # after the last probe: the last


@pytest.mark.parametrize("walk_weight", (0.0, 0.5))
def test_speed_probe_weighs_loop_and_walk(walk_weight):
    probe = workloads.SpeedProbe(walk_weight)
    probe.tick()
    (loop, walk), = probe.parts
    assert loop > 0 and walk > 0
    assert probe.seconds == [pytest.approx(loop ** (1 - walk_weight) * walk ** walk_weight)]
    assert probe.spent >= loop + walk


def test_scaled_timings_cancel_a_change_of_cpu_speed():
    tally = workloads.Tally()
    # The probe loop takes 2 ms until t = 10 s, then 1 ms: the CPU doubled
    # its speed, and the same work took half as long.
    tally.probe.times = [0.0, 5.0, 10.0, 15.0]
    tally.probe.seconds = [0.002, 0.002, 0.001, 0.001]
    tally.setup_s = [(1.0, 4.0), (11.0, 2.0)]
    tally.build_ms = [(1.0, 8.0), (11.0, 4.0)]
    tally.echo_ms = [(2.0, 64, 6.0), (12.0, 64, 3.0)]
    tally.build_rounds = [(1.0, 0.008), (11.0, 0.004)]
    tally.echo_rounds = [(2.0, 0.006, 1, 64), (12.0, 0.003, 1, 64)]
    tally.peak_rss_mb = 10.0
    scaled, _ = run.end_to_end(tally)
    k = tally.probe.reference_s / 0.001  # every timing as if the probe took reference_s
    assert scaled["setup_s"] == pytest.approx(2.0 * k)
    assert scaled["build_ms_p50"] == scaled["build_ms_p95"] == pytest.approx(4.0 * k)
    assert scaled["rtt_ms_p50"] == scaled["rtt_ms_p95"] == pytest.approx(3.0 * k)
    assert scaled["builds_per_s"] == pytest.approx(250.0 / k)
    unscaled, _ = run.end_to_end(tally, scaled=False)
    assert unscaled["build_ms_p95"] == 8.0


def test_peak_rss_is_read_after_a_fixed_number_of_rounds():
    tally = workloads.Tally(rss_rounds=3)
    tally.round_done()
    tally.round_done()
    assert tally.peak_rss_mb is None
    tally.round_done()
    first = tally.peak_rss_mb
    assert first > 0
    tally.round_done()
    assert tally.peak_rss_mb == first


def test_tracing_overhead_needs_an_untraced_record_of_the_same_sources(tmp_path):
    provenance = {"src_sha256": "a", "seconds": 30.0, "smoke": False}
    path = str(tmp_path / "untraced.json")
    for theirs, expected in ((provenance, {"rtt_ms_p50": 1.5}),
                             (dict(provenance, src_sha256="b"), {}),
                             (dict(provenance, seconds=10.0), {})):
        with open(path, "w") as fh:
            json.dump({"provenance": theirs, "end_to_end": {"rtt_ms_p50": 2.0}}, fh)
        assert run.tracing_overhead(path, {"rtt_ms_p50": 3.0}, provenance) == expected
    assert run.tracing_overhead(str(tmp_path / "missing.json"), {}, provenance) == {}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("circuit_churn", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
