"""One benchmark operation: build and run one workload cell, check it.

Run as a script, it measures one cell in this fresh process and prints
one JSON line (host timings, peak RSS, simulated outcomes, deterministic
counts, the result digest and, with ``--trace 1``, the per-layer spans)::

    PYTHONPATH=src python3 perfbench/bench_cell.py --workload paper-static --seed 1

``perfbench/run.py`` calls it once per operation; it is not meant to be the
user-facing command.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import random
import resource
import sys
import time
from typing import Any

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SimulationResult, SOCSimulation
from repro.experiments.scenarios import scenario_configs
from repro.experiments.store import result_to_dict

from bench_trace import LAYERS, PHASES, SpanTracer, install

#: name -> (scenario, scale, grid label, overrides).  Only population,
#: horizon and churn are overridden, so renamed knobs travel with the
#: scenario builders.  Sizes keep one repeat at a few host seconds.
WORKLOADS: dict[str, tuple[str, str, str, dict[str, Any]]] = {
    # The path every paper figure runs: per-node ticks, no levers, static.
    "paper-static": ("fig5", "paper", "hid-can", {"n_nodes": 2000, "duration": 1200.0}),
    # Every coalescing lever on at 10^4 nodes; setup is a large share.
    "mega-coalesced": ("mega", "small", "hid-can", {"n_nodes": 10_000, "duration": 300.0}),
    # Cache + replication reads beside membership writes (the only
    # workload that reaches core.cache).
    "hotrange-churn": (
        "hotrange", "paper", "ttl+repl",
        {"n_nodes": 800, "duration": 1500.0, "churn_degree": 0.5},
    ),
}

#: Message kinds reported one by one; any other kind sums into ``msgs.other``.
MSG_KINDS = (
    "completion-ack", "dropped", "duty-query", "found-notify", "index-agent",
    "index-diffusion", "index-jump", "index-replica", "maintenance",
    "placement", "query-end", "state-update",
)


#: Seconds :func:`calibrate` takes at the reference host speed.
CALIBRATION_REF_S = 0.15


def calibrate() -> float:
    """Seconds a fixed interpreter + NumPy kernel takes right now.

    Shared hosts drift by up to 2x over tens of seconds, so each phase's
    host seconds are scaled by the speed this kernel measures on either
    side of it (see README).  The kernel uses no simulator code, so a
    change to the simulator cannot move it; it mixes heap, dict,
    integer-arithmetic and small-array work like the simulator's event
    loop.
    """
    started = time.perf_counter()
    rng = random.Random(7)
    heap: list[tuple[float, int]] = []
    seen: dict[int, tuple[float, int]] = {}
    for i in range(120_000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 64:
            when, j = heapq.heappop(heap)
            seen[j & 4095] = (when, i)
    x = 0
    for i in range(200_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFF
        seen[x & 1023] = (0.0, i)
    a = np.arange(64.0)
    acc = 0.0
    for _ in range(6000):
        acc += float((a * 0.5).sum())
    return time.perf_counter() - started


def workload_config(name: str, seed: int) -> ExperimentConfig:
    scenario, scale, label, overrides = WORKLOADS[name]
    return scenario_configs(scenario, scale, seed, **overrides)[label]


def digest(result: SimulationResult) -> str:
    """SHA-256 of the stored result document minus its host wall clock:
    equal digests mean bit-identical simulated results."""
    doc = result_to_dict(result)
    doc.pop("wall_clock_s")
    blob = json.dumps(doc, sort_keys=True, allow_nan=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def output_problems(sim: SOCSimulation, result: SimulationResult) -> list[str]:
    """Everything wrong with a finished run (empty = the output check passes)."""
    problems = []
    try:
        sim.ratios.check()
    except AssertionError as exc:
        problems.append(f"ratios.check failed: {exc}")
    if result.traffic_total != sum(result.traffic_by_kind.values()):
        problems.append(
            f"traffic_total {result.traffic_total} != "
            f"sum(traffic_by_kind) {sum(result.traffic_by_kind.values())}"
        )
    if result.generated < 1:
        problems.append("no query was generated")
    return problems


def _finite(x: float) -> float:
    return x if math.isfinite(x) else 0.0


def counts(sim: SOCSimulation, result: SimulationResult) -> dict[str, float]:
    """Deterministic counts and simulated outcomes of one run (no timers)."""
    delivery = sim.delivery
    deliveries = delivery.deliveries if delivery is not None else 0
    flushes = delivery.flushes if delivery is not None else 0
    out: dict[str, float] = {
        "sim.heap_events": sim.sim.event_serial,
        "sim.event_units": sim.sim.events_processed,
        "sim.delivery.deliveries": deliveries,
        "sim.delivery.flushes": flushes,
        "sim.delivery.per_flush": deliveries / flushes if flushes else 0.0,
        "core.lifecycle.timeouts": result.query_timeouts,
        "core.cache.lookups": result.cache_lookups,
        "core.cache.hits": result.cache_hits,
        "core.cache.relay_hits": result.cache_relay_hits,
        "core.cache.stale_hits": result.cache_stale_hits,
        "core.cache.replications": result.replications,
        "core.cache.hit_ratio": _finite(result.cache_hit_ratio),
        "cloud.engine.placements": result.placed,
        "cloud.engine.completions": result.finished,
        "result.generated": result.generated,
        "result.t_ratio": result.t_ratio,
        "result.f_ratio": result.f_ratio,
        "result.timeout_ratio": result.query_timeouts / result.generated,
        "result.query_latency_p95_s": _finite(result.query_latency.p95_s),
        "result.messages_per_query": _finite(result.messages_per_query),
        "result.query_latency_p50_s": _finite(result.query_latency.p50_s),
    }
    by_kind = result.traffic_by_kind
    for kind in MSG_KINDS:
        out[f"msgs.{kind}"] = by_kind.get(kind, 0)
    out["msgs.other"] = sum(n for k, n in by_kind.items() if k not in MSG_KINDS)
    return out


def peak_rss_mb() -> float:
    """This process's peak resident set.  ``VmHWM`` rather than
    ``ru_maxrss``: Linux carries ``ru_maxrss`` across ``exec``, so it would
    report the launching process's peak when that was larger."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(config: ExperimentConfig, trace: bool) -> dict[str, Any]:
    """Build and run ``config`` once; the report of one operation."""
    tracer = SpanTracer() if trace else None
    restore = install(tracer) if tracer is not None else None
    try:
        kernel_s = [calibrate()]
        started = time.perf_counter()
        sim = SOCSimulation(config)
        setup_s = time.perf_counter() - started
        if tracer is not None:
            tracer.phase = PHASES[1]
        kernel_s.append(calibrate())
        started = time.perf_counter()
        result = sim.run()
        run_s = time.perf_counter() - started
        kernel_s.append(calibrate())
    finally:
        if restore is not None:
            restore()
    report: dict[str, Any] = {
        "setup_s": setup_s,
        "run_s": run_s,
        # Host speed on either side of each phase (1 = the reference speed).
        "speed": {
            phase: 2 * CALIBRATION_REF_S / (kernel_s[i] + kernel_s[i + 1])
            for i, phase in enumerate(PHASES)
        },
        "peak_rss_mb": peak_rss_mb(),
        "digest": digest(result),
        "problems": output_problems(sim, result),
        "counts": counts(sim, result),
    }
    if tracer is not None:
        report["layers"] = layer_report(tracer, {"setup": setup_s, "run": run_s})
    return report


def layer_report(tracer: SpanTracer, walls: dict[str, float]) -> dict[str, float]:
    """``<phase>.<layer>.calls`` / ``.self_s`` for every layer, plus the
    ``<phase>.other.self_s`` residual that makes each phase sum to its wall."""
    out: dict[str, float] = {}
    for phase in PHASES:
        for layer in LAYERS:
            out[f"{phase}.{layer}.calls"] = tracer.calls.get((phase, layer), 0)
            out[f"{phase}.{layer}.self_s"] = tracer.self_s.get((phase, layer), 0.0)
        out[f"{phase}.other.self_s"] = tracer.residual(phase, walls[phase])
    for key in ("can.routing.paths", "can.routing.hops", "can.routing.failed"):
        out[key] = tracer.counts.get(key, 0)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = measure(workload_config(args.workload, args.seed), bool(args.trace))
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
