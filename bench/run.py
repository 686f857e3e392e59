"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload circuit_churn --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Every metric is printed as ``name value unit``, followed by a provenance
line. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
A full record, and with ``--trace 1`` the spans, go to ``.bench_out/``.
See ``bench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing
from tracing import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "build_ms_p50": ("ms", "lower"),
    "build_ms_p95": ("ms", "lower"),
    "builds_per_s": ("1/s", "higher"),
    "rtt_ms_p50": ("ms", "lower"),
    "rtt_ms_p95": ("ms", "lower"),
    "msgs_per_s": ("1/s", "higher"),
    "goodput_MBps": ("MB/s", "higher"),
    "peak_rss_MB": ("MB", "lower"),
}

PROBE_LOOPS = 1_000_000


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop; context for host drift only."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i & 7
    return time.perf_counter() - start


def pin_to_one_cpu() -> int | None:
    """Confine this process, and every thread it starts later, to one CPU.

    On the 2-CPU virtual machine this benchmark was written on, each CPU
    ran at one of two speeds about 1.7x apart, switching every few seconds.
    Spread over both CPUs, tcp_echo's interpreter lock moved between
    threads on different CPUs and its p95 latencies jumped between about 4
    and 11 ms from run to run, and a single-threaded run that moved between
    CPUs paid for cold caches. On one CPU both spread by about a tenth.
    Returns the CPU, or None where affinity cannot be set.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError, ValueError):
        return None
    return cpu


def src_digest() -> str:
    """SHA-256 over the program's sources, which also names code outside git."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            digest.update(os.path.relpath(path, SRC).encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def end_to_end(tally, scaled: bool = True) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metrics and the sample count behind each.

    With ``scaled``, each timing t of a stretch of the run becomes
    t * probe.reference_s / probe level over that stretch, so that it reads
    as if the host had run at one fixed speed throughout: the host's own speed
    changes then cancel out, while a change in the program's work shows
    in full. A rate is the number of clients times the work of the timed
    rounds divided by their summed (scaled) duration: completed work per
    second of the timed phase, leaving out rounds that failed.
    """
    probe = tally.probe

    def scale(start: float, seconds: float) -> float:
        return probe.reference_s / probe.level(start, start + seconds) if scaled else 1.0

    setups = [s * scale(t, s) for t, s in tally.setup_s]
    builds = [ms * scale(t, ms / 1e3) for t, ms in tally.build_ms]
    rtts = [ms * scale(t, ms / 1e3) for t, _, ms in tally.echo_ms]
    build_s = sum(s * scale(t, s) for t, s in tally.build_rounds)
    echo_s = sum(s * scale(t, s) for t, s, _, _ in tally.echo_rounds)
    n = tally.concurrency
    metrics = {
        "setup_s": statistics.median(setups),
        "build_ms_p50": percentile(builds, 50),
        "build_ms_p95": percentile(builds, 95),
        "builds_per_s": n * len(tally.build_rounds) / build_s,
        "rtt_ms_p50": percentile(rtts, 50),
        "rtt_ms_p95": percentile(rtts, 95),
        "msgs_per_s": n * sum(e for _, _, e, _ in tally.echo_rounds) / echo_s,
        "goodput_MBps": n * sum(b for _, _, _, b in tally.echo_rounds) / echo_s / 1e6,
        "peak_rss_MB": tally.peak_rss_mb,
    }
    samples = {"setup_s": len(setups), "build_ms": len(builds), "rtt_ms": len(rtts),
               "build_rounds": len(tally.build_rounds), "echo_rounds": len(tally.echo_rounds),
               "rss_after_rounds": min(tally.timed_rounds, tally.rss_rounds)}
    return metrics, samples


def speed_summary(probe) -> dict:
    """What the speed probe saw, in seconds of CPU time per probe."""
    loops, walks = zip(*probe.parts)
    return {"probes": len(probe.seconds), "loops": probe.LOOPS, "walk_nodes": len(probe.WALK),
            "walk_weight": probe.walk_weight, "reference_s": probe.reference_s,
            "min_s": min(probe.seconds), "median_s": statistics.median(probe.seconds),
            "max_s": max(probe.seconds), "median_loop_s": statistics.median(loops),
            "median_walk_s": statistics.median(walks)}


def rtt_by_size(tally) -> dict[str, float]:
    sizes = sorted({size for _, size, _ in tally.echo_ms})
    return {f"rtt_ms_p50.{size}B": percentile([ms for _, s, ms in tally.echo_ms if s == size], 50)
            for size in sizes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "onionkep", "__init__.py")):
        print(f"error: no onionkep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import onionkep
    if not os.path.abspath(onionkep.__file__).startswith(SRC + os.sep):
        print(f"error: onionkep imported from {onionkep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads

    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(table)}")
    cfg = table[args.workload]

    cpu = pin_to_one_cpu()
    probe_before = host_probe()
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        layers.install(tracer, cfg.runtime)
    try:
        tally = workloads.run(args.workload, cfg, args.seed, args.seconds, tracer)
    finally:
        tracer.restore()
    probe_after = host_probe()
    if not tally.build_rounds or not tally.echo_rounds:
        print("error: no build or no echo succeeded in the timed phase: "
              + "; ".join(tally.failures), file=sys.stderr)
        return 1

    e2e, samples = end_to_end(tally)
    wall, _ = end_to_end(tally, scaled=False)
    attempted = tally.builds_attempted + tally.echoes_attempted
    failed = tally.builds_failed + tally.echoes_failed
    correct = tally.echo_mismatches == 0 and tally.bad_ready == 0
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "network": ("TCP over loopback 127.0.0.1, not a real link" if cfg.runtime == "tcp"
                    else "in-process simulator"),
        "host_probe_s": {"before": probe_before, "after": probe_after, "loops": PROBE_LOOPS},
        "pinned_cpu": cpu,
        "speed_probe": speed_summary(tally.probe),
        "config": vars(cfg),
    }
    by_size = rtt_by_size(tally)
    report = dict(e2e, fail_frac=failed / attempted, **by_size)
    units = {name: unit for name, (unit, _) in END_TO_END.items()}
    units.update(fail_frac="ratio", **dict.fromkeys(by_size, "ms"))
    for name, value in report.items():
        print(f"{name} {value:.6g} {units[name]}")
    print("unscaled " + json.dumps(wall))
    print("samples " + json.dumps(samples))
    print(f"attempted {attempted} failed {failed} "
          f"(builds {tally.builds_failed}/{tally.builds_attempted}, "
          f"echoes {tally.echoes_failed}/{tally.echoes_attempted}, "
          f"echo mismatches {tally.echo_mismatches})")
    for reason in tally.failures:
        print("failure: " + reason)

    t0 = tally.window[0]
    record = {"provenance": provenance, "end_to_end": report, "unscaled": wall,
              "samples": samples,
              "attempted": attempted, "failed": failed, "correct": correct,
              "setup_s": [(t - t0, s) for t, s in tally.setup_s],
              "build_ms": [(t - t0, ms) for t, ms in tally.build_ms],
              "echo_ms": [(t - t0, size, ms) for t, size, ms in tally.echo_ms],
              "speed_probe_s": [(t - t0, s, loop, walk) for t, s, (loop, walk)
                                in zip(tally.probe.times, tally.probe.seconds, tally.probe.parts)]}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}_seed{args.seed}_trace")
    stem, untraced_path = stem + str(args.trace), stem + "0.json"
    if args.trace:
        per_layer = layers.layer_metrics(tracer, tally, cfg.runtime)
        for name, value in per_layer.items():
            print(f"{name} {value:.6g} {layers.PER_LAYER[name][0]}")
        record["per_layer"] = per_layer
        record["tracing_overhead"] = tracing_overhead(untraced_path, e2e, provenance)
        for name, ratio in record["tracing_overhead"].items():
            print(f"tracing overhead {name} traced/untraced {ratio:.4g}")
        tracer.write(stem + "_spans.jsonl.gz")
        metrics = {name: {"value": value, "unit": layers.PER_LAYER[name][0]}
                   for name, value in per_layer.items()}
    else:
        metrics = {name: {"value": value, "unit": units[name]} for name, value in e2e.items()}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("provenance " + json.dumps(provenance))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def tracing_overhead(path: str, traced: dict[str, float], provenance: dict) -> dict[str, float]:
    """Traced / untraced for each end-to-end metric, if an untraced run of
    the same workload and seed, on the same sources and run length, left
    its record at ``path``."""
    try:
        with open(path) as fh:
            record = json.load(fh)
        untraced, theirs = record["end_to_end"], record["provenance"]
    except (OSError, ValueError, KeyError):
        return {}
    if any(theirs.get(k) != provenance[k] for k in ("src_sha256", "seconds", "smoke")):
        return {}
    return {name: traced[name] / untraced[name] for name in traced if untraced.get(name)}


if __name__ == "__main__":
    sys.exit(main())
