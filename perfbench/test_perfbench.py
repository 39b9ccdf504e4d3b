"""Self-tests of the benchmark harness (run with PYTHONPATH=src pytest perfbench)."""

from __future__ import annotations

import sys

import pytest

import bench_cell
import run
from bench_trace import LAYERS, PHASES, TARGETS, SpanTracer, install
from repro.experiments.scenarios import scenario_configs


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_spans_give_self_times():
    clock = FakeClock()
    tracer = SpanTracer(clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        wrapped_inner()
        wrapped_inner()
        clock.now += 3.0

    wrapped_inner = tracer.span("b", inner)
    tracer.span("a", outer)()
    assert tracer.self_s[("setup", "a")] == 4.0
    assert tracer.self_s[("setup", "b")] == 4.0
    assert tracer.calls[("setup", "a")] == 1
    assert tracer.calls[("setup", "b")] == 2
    assert tracer.residual("setup", 10.0) == 2.0


def test_span_closes_on_exception_and_observes_failure():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    seen = []

    def boom():
        clock.now += 1.5
        raise ValueError("x")

    wrapped = tracer.span("a", boom, lambda t, out: seen.append(out))
    with pytest.raises(ValueError):
        tracer.span("b", lambda: wrapped())()
    assert seen == [None]
    assert tracer.self_s[("setup", "a")] == 1.5
    assert tracer.self_s[("setup", "b")] == 0.0
    assert not tracer._stack


def _snapshot() -> dict[tuple[str, str], object]:
    """Every attribute of a loaded repro module or class that a target names."""
    names = {qualname.split(".")[-1] for _, _, qualname in TARGETS}
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for owner in [module, *vars(module).values()]:
            if owner is not module and not isinstance(owner, type):
                continue
            for name in names & set(vars(owner)):
                out[(f"{mod_name}:{getattr(owner, '__qualname__', '')}", name)] = (
                    vars(owner)[name]
                )
    return out


def test_install_wraps_every_target_and_restore_puts_back():
    bench_cell.workload_config("paper-static", 1)  # import every layer
    before = _snapshot()
    restore = install(SpanTracer())
    try:
        during = _snapshot()
        changed = {key for key in before if during[key] is not before[key]}
        wrapped_names = {name for _, name in changed}
        assert wrapped_names == {q.split(".")[-1] for _, _, q in TARGETS}
        # protocol.py imports inscan_paths by name: it must see the wrapper.
        import repro.core.protocol as protocol
        assert protocol.inscan_paths is not before[("repro.can.inscan:", "inscan_paths")]
    finally:
        restore()
    after = _snapshot()
    assert all(after[key] is before[key] for key in before)


def test_tiny_cell_same_digest_traced_and_untraced():
    config = scenario_configs(
        "hotrange", "tiny", 3, n_nodes=40, duration=900.0, churn_degree=0.5
    )["ttl+repl"]
    plain = bench_cell.measure(config, trace=False)
    traced = bench_cell.measure(config, trace=True)
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["digest"] == traced["digest"]
    assert plain["counts"] == traced["counts"]
    layers = traced["layers"]
    assert traced["counts"]["core.cache.lookups"] > 0
    assert layers["run.core.cache.calls"] > 0
    for phase in PHASES:
        wall = traced[f"{phase}_s"]
        total = sum(layers[f"{phase}.{layer}.self_s"] for layer in LAYERS)
        total += layers[f"{phase}.other.self_s"]
        assert total == pytest.approx(wall, rel=1e-9, abs=1e-9)
        assert layers[f"{phase}.other.self_s"] >= -1e-9
    assert layers["can.routing.paths"] > 0


def test_workloads_override_only_size_and_churn():
    assert set(run.WORKLOADS) == set(bench_cell.WORKLOADS)
    for name, (_, _, _, overrides) in bench_cell.WORKLOADS.items():
        assert set(overrides) <= {"n_nodes", "duration", "churn_degree"}, name
        assert bench_cell.workload_config(name, 7).seed == 7
