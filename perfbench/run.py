#!/usr/bin/env python3
"""btpolicy benchmark: one workload, one seed, a closed loop for a fixed time.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
same checkout. One client sends the next request only when the previous
one has returned (a planning worker waiting for its policy), and checks
every response; a request that fails a check or raises counts as failed.

Timings are reported at a reference speed: a speed probe runs between
requests, and each request's time is scaled by how fast the probe ran
around it (``speed.py``), so that the host's changing speed does not move
the figures.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` serves every
request twice, untraced and then with spans recorded around the program's
layers, and prints the per-layer metrics plus the tracing overhead. The
last line of output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 0 means every request
passed its checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

SETUP_REPEATS = 3       # setup_s is the median of at least this many full set-ups,
SETUP_SECONDS = 2.0     # and of more while they have taken less than this together
SETUP_PROBES = 5        # speed probes before and after each set-up
MIN_SAMPLES = 100       # fewer leaves under 10 samples beyond p90
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import btpolicy; "
                "print(time.perf_counter() - start)")

_now = time.perf_counter


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["bundled", "tower-scale", "deploy", "remote-stub"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Time to import the program, in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Tally:
    """Latencies, failures and running sums of what requests served; of
    each request only its end, latency, fixed wait and replay time are kept,
    so the benchmark's own memory stays small however many requests a run
    makes."""

    SUMMED = ("llm_calls", "prompt_chars", "policy_nodes", "rounds", "rejected",
              "replay_ticks")

    def __init__(self):
        self.ends: list[float] = []
        self.latencies: list[float] = []
        self.waits: list[float] = []
        self.replay_s: list[float] = []
        self.sums = dict.fromkeys(self.SUMMED, 0)
        self.failed = 0

    def add(self, latency: float, served, wait_s: float = 0.0) -> None:
        self.ends.append(_now())
        self.latencies.append(latency)
        self.waits.append(wait_s)
        self.replay_s.append(served.replay_s)
        for key in self.SUMMED:
            self.sums[key] += getattr(served, key)
        if served.error is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED: {served.error}", file=sys.stderr)

    def mean(self, key: str) -> float:
        return self.sums[key] / len(self.latencies)

    def p50_ms(self) -> float:
        return statistics.median(self.latencies) * 1000

    def scaled(self, probe) -> tuple[list[float], float]:
        """Latencies and total replay time at the probe's reference speed.
        A request's fixed wait (the stub's stated delay) is not scaled."""
        latencies, replay_s = [], 0.0
        for end, latency, wait, replay in zip(self.ends, self.latencies, self.waits,
                                              self.replay_s):
            scale = probe.scale_at(end)
            latencies.append((latency - wait) * scale + wait)
            replay_s += replay * scale
        return latencies, replay_s


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "btpolicy" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'btpolicy'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import btpolicy
    if Path(btpolicy.__file__).resolve().parent != SRC / "btpolicy":
        print(f"error: imported btpolicy from {btpolicy.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, SetupError, request_order
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the clean-ups

    workdir = WORK / args.workload
    imports, loads, scaled = [], [], []
    try:
        setup_start = _now()
        while len(scaled) < SETUP_REPEATS or _now() - setup_start < SETUP_SECONDS:
            probe = SpeedProbe()
            for _ in range(SETUP_PROBES):
                probe.probe()
            imports.append(import_seconds())
            start = _now()
            workload = WORKLOADS[args.workload](args.seed, workdir)
            info = workload.setup()
            loads.append(_now() - start)
            for _ in range(SETUP_PROBES):
                probe.probe()
            scaled.append((imports[-1] + loads[-1]) * probe.scale())
    except (SetupError, subprocess.SubprocessError) as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    for line in info:
        print(line)
    setup_s = statistics.median(scaled)
    print(f"setup: {setup_s:.3f} s at reference speed (median of {len(scaled)}: "
          f"{' '.join(f'{s:.3f}' for s in scaled)}; measured: import "
          f"{statistics.median(imports):.3f} s, load {statistics.median(loads):.3f} s)")

    try:
        workload.start()
        if args.trace:
            result = traced_run(workload, args, request_order(workload.items, args.seed),
                                imports, loads)
        else:
            result = untraced_run(workload, args, request_order(workload.items, args.seed),
                                  setup_s)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def untraced_run(workload, args, order, setup_s: float) -> dict:
    from workloads import serve
    tally = Tally()
    probe = SpeedProbe()
    probe.probe()
    start = _now()
    deadline = start + args.seconds
    while True:
        latency, served = serve(workload, next(order))
        tally.add(latency, served, served.llm_calls * workload.wait_per_call_s)
        probe.due()
        if _now() >= deadline:
            break
    probe.probe()
    elapsed = _now() - start
    n = len(tally.latencies)
    latencies, replay_s = tally.scaled(probe)
    p90 = percentile(latencies, 90)
    beyond = sum(1 for x in latencies if x > p90)
    print(f"samples: {n} requests in {elapsed:.2f} s, {beyond} beyond p90, "
          f"{tally.failed} failed")
    print(f"speed: {len(probe.took)} probes, median {statistics.median(probe.took) * 1000:.3f} ms "
          f"(reference {REFERENCE_S * 1000:g} ms); measured request p50 {tally.p50_ms():.4f} ms, "
          f"p90 {percentile(tally.latencies, 90) * 1000:.4f} ms, {n / elapsed:.4f} requests/s")
    if n < MIN_SAMPLES:
        print(f"warning: fewer than {MIN_SAMPLES} requests; p90 rests on few samples",
              file=sys.stderr)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "request_ms.p50": metric(statistics.median(latencies) * 1000, "ms"),
        "request_ms.p90": metric(p90 * 1000, "ms"),
        "requests_per_s": metric(n / sum(latencies), "1/s"),
        "success_ratio": metric((n - tally.failed) / n, "ratio"),
        "llm_calls_per_policy": metric(tally.mean("llm_calls"), "count"),
        "prompt_kchars_per_policy": metric(tally.mean("prompt_chars") / 1000, "kchars"),
        "policy_nodes_per_request": metric(tally.mean("policy_nodes"), "count"),
        "ticks_per_s": metric(tally.sums["replay_ticks"] / replay_s
                              if replay_s else 0.0, "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, entry in metrics.items():
        print(f"{name:28s} {entry['value']:14.4f} {entry['unit']}")
    return {"correct": tally.failed == 0, "attempted": n, "failed": tally.failed,
            "metrics": metrics}


def traced_run(workload, args, order, imports: list[float], loads: list[float]) -> dict:
    from layers import REQUEST_SPAN, TARGETS, layer_metrics
    from spans import Instrumentation, Tracer, summarize
    from workloads import STUB_DELAY_MS, serve

    tracer = Tracer()
    instrumentation = Instrumentation(tracer, TARGETS)
    request_span = tracer.name_id(REQUEST_SPAN)
    plain, traced = Tally(), Tally()
    probe = SpeedProbe()
    probe.probe()
    deadline = _now() + args.seconds
    while True:
        item = next(order)
        plain.add(*serve(workload, item))
        tracer.request_id = len(traced.latencies)
        instrumentation.install()
        span = tracer.begin(request_span)
        try:
            outcome = serve(workload, item)
        finally:
            tracer.finish(span)
            instrumentation.uninstall()
        traced.add(*outcome)
        probe.due()
        if _now() >= deadline:
            break
    probe.probe()

    n = len(traced.latencies)
    stats = summarize(tracer)
    connections = posts_delay_s = 0.0
    stub = getattr(workload, "stub", None)
    if stub is not None:
        counters = stub.stats()
        connections = counters["connections"] / (2 * n)
        posts_delay_s = stats["backends.post"].calls * STUB_DELAY_MS / 1000
    metrics = layer_metrics(stats, tracer.counts, requests=n,
                            rounds=traced.sums["rounds"], rejected=traced.sums["rejected"],
                            connections=connections, posts_delay_s=posts_delay_s)
    metrics["setup.import_s"] = (statistics.median(imports), "s")
    metrics["setup.load_s"] = (statistics.median(loads), "s")
    metrics["trace.overhead_ms"] = (traced.p50_ms() - plain.p50_ms(), "ms")
    metrics["trace.spans_per_request"] = (len(tracer) / n, "count")
    scale = probe.scale()   # per-layer times at the reference speed, as request_ms is
    for name, (value, unit) in metrics.items():
        if unit == "ms":
            metrics[name] = (value * scale, unit)

    WORK.mkdir(parents=True, exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}.tsv"
    tracer.write(spans_path)
    print(f"traced: {n} requests, {len(tracer)} spans written to "
          f"{spans_path.relative_to(ROOT)}")
    print(f"request p50: untraced {plain.p50_ms():.3f} ms, traced {traced.p50_ms():.3f} ms "
          f"(tracing overhead {traced.p50_ms() - plain.p50_ms():.3f} ms)")
    print(f"{'span':42s} {'calls/req':>12s} {'self ms/req':>12s} {'total ms/req':>12s}")
    for name, entry in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        if entry.calls:
            print(f"{name:42s} {entry.calls / n:12.2f} {entry.self_s * 1000 / n:12.4f} "
                  f"{entry.total_s * 1000 / n:12.4f}")
    for name, count in sorted(tracer.counts.items()):
        print(f"{'count ' + name:42s} {count / n:12.2f}")
    failed = plain.failed + traced.failed
    return {"correct": failed == 0, "attempted": 2 * n, "failed": failed,
            "metrics": {name: metric(value, unit) for name, (value, unit) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
