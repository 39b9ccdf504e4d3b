"""The simulator benchmark: one command per workload, from the outside.

    python3 perfbench/run.py --workload paper-static --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each operation is one cell (setup + run)
in a fresh ``perfbench/bench_cell.py`` process; operations run serially,
never two at once, until ``--seconds`` is spent (at least
``MIN_OPERATIONS``).  Every operation's output is checked and all of a
run's result digests must agree.  The last stdout line is one JSON
object: ``--trace 0`` gives the end-to-end metrics (host timings as
medians over the operations, scaled to a reference host speed),
``--trace 1`` alternates untraced and traced operations and gives the
per-layer metrics of the traced operation with the median wall.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent

#: Workload names (mirrors ``bench_cell.WORKLOADS``, which this process
#: does not import: the simulator runs only in the operation processes).
WORKLOADS = ("paper-static", "mega-coalesced", "hotrange-churn")

#: Operations a run makes even when they overrun ``--seconds``.
MIN_OPERATIONS = {0: 3, 1: 4}

#: An operation still running after this long is killed and fails.
OPERATION_TIMEOUT_S = 120.0

#: End-to-end metrics that are simulated outcomes (deterministic per
#: seed), by the ``bench_cell.counts`` key they are read from.
SIMULATED = {
    "messages_per_query": "result.messages_per_query",
    "query_latency_p50_s": "result.query_latency_p50_s",
}

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "messages_per_query": "msgs",
    "query_latency_p50_s": "s",
}

#: Units of the per-layer metrics that are not layer spans.
COUNT_UNITS = {
    "core.cache.hit_ratio": "ratio",
    "sim.delivery.per_flush": "ratio",
    "result.t_ratio": "ratio",
    "result.f_ratio": "ratio",
    "result.timeout_ratio": "ratio",
    "result.query_latency_p95_s": "s",
    "host.speed": "ratio",
    "trace_overhead": "ratio",
}


def operation_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(src),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_operation(
    workload: str, seed: int, trace: bool, env: dict[str, str]
) -> tuple[dict[str, Any] | None, float, str]:
    """One operation in a fresh process: ``(report or None, wall, error)``."""
    cmd = [
        sys.executable, str(HERE / "bench_cell.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
    ]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True,
            timeout=OPERATION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - started, "timed out"
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        return None, wall, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, wall, f"unparseable output: {proc.stdout[-500:]!r}"
    if report["problems"]:
        return None, wall, "output check: " + "; ".join(report["problems"])
    return report, wall, ""


def scaled(report: dict[str, Any], phase: str) -> float:
    """A phase's host seconds at the reference speed (``bench_cell.calibrate``)."""
    return report[f"{phase}_s"] * report["speed"][phase]


def end_to_end(reports: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    qps = statistics.median(
        r["counts"]["result.generated"] / (scaled(r, "setup") + scaled(r, "run"))
        for r in reports
    )
    metrics = {
        "setup_s": statistics.median(scaled(r, "setup") for r in reports),
        "run_s": statistics.median(scaled(r, "run") for r in reports),
        "queries_per_s": qps,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }
    for name, key in SIMULATED.items():
        metrics[name] = reports[0]["counts"][key]
    return {
        name: {"value": value, "unit": E2E_UNITS[name]}
        for name, value in metrics.items()
    }


def per_layer(
    traced: list[dict[str, Any]], untraced: list[dict[str, Any]]
) -> dict[str, dict[str, Any]]:
    # Scaled walls: with only a few operations of each kind, host drift
    # between them would otherwise swamp the overhead.
    def wall(r):
        return scaled(r, "setup") + scaled(r, "run")

    traced_wall = statistics.median(wall(r) for r in traced)
    pick = min(traced, key=lambda r: abs(wall(r) - traced_wall))
    metrics: dict[str, dict[str, Any]] = {}
    for name, value in pick["layers"].items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": value, "unit": unit}
    for name, value in pick["counts"].items():
        if name not in SIMULATED.values():
            metrics[name] = {"value": value, "unit": COUNT_UNITS.get(name, "count")}
    host = {
        # Unscaled: the traced operation's layers sum to this wall.
        "host.traced_wall_s": pick["setup_s"] + pick["run_s"],
        "host.untraced_wall_s": statistics.median(
            r["setup_s"] + r["run_s"] for r in untraced
        ),
        "host.speed": statistics.median(r["speed"]["run"] for r in untraced),
        "trace_overhead": (
            traced_wall / statistics.median(wall(r) for r in untraced) - 1.0
        ),
    }
    for name, value in host.items():
        metrics[name] = {"value": value, "unit": COUNT_UNITS.get(name, "s")}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no simulator sources at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = operation_env(src)

    # --trace 1 alternates untraced/traced operations (the overhead base).
    kinds = [False, True] if args.trace else [False]
    reports: dict[bool, list[dict[str, Any]]] = {False: [], True: []}
    walls: dict[bool, float] = {}
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        traced = kinds[attempted % len(kinds)]
        elapsed = time.perf_counter() - started
        if failed and elapsed > args.seconds:
            break
        if attempted >= MIN_OPERATIONS[args.trace] and (
            attempted % len(kinds) == 0
            and elapsed + sum(walls.values()) > args.seconds
        ):
            break
        report, wall, error = run_operation(
            args.workload, args.seed, traced, env
        )
        attempted += 1
        walls[traced] = wall
        if report is None:
            failed += 1
            print(f"operation {attempted} failed: {error}", file=sys.stderr)
            continue
        reports[traced].append(report)
        print(
            f"op {attempted} {'traced' if traced else 'untraced'}: "
            f"setup {report['setup_s']:.3f}s run {report['run_s']:.3f}s "
            f"speed {report['speed']['setup']:.3f}/{report['speed']['run']:.3f} "
            f"rss {report['peak_rss_mb']:.1f}MB digest {report['digest'][:16]}"
        )

    ok = reports[False] and (not args.trace or reports[True])
    if not ok:
        print("no operation succeeded", file=sys.stderr)
        return 1
    # Every operation must reproduce the first one's result bit for bit,
    # traced or not; one that does not fails.
    expected = reports[False][0]["digest"]
    mismatched = [
        r["digest"] for r in reports[False] + reports[True]
        if r["digest"] != expected
    ]
    if mismatched:
        print(f"result digests differ from {expected}: {mismatched}",
              file=sys.stderr)
    failed += len(mismatched)
    correct = failed == 0
    print(f"digest {expected}")
    print("counts " + json.dumps(reports[False][0]["counts"], sort_keys=True))
    untraced = reports[False]
    print(
        f"operations: {len(untraced)} untraced, {len(reports[True])} traced; "
        "unscaled medians: setup "
        f"{statistics.median(r['setup_s'] for r in untraced):.4f}s run "
        f"{statistics.median(r['run_s'] for r in untraced):.4f}s"
    )
    metrics = (
        per_layer(reports[True], reports[False]) if args.trace
        else end_to_end(reports[False])
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
