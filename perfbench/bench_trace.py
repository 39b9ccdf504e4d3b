"""Layer spans for the traced benchmark run.

The simulator has no timers of its own at its layer seams, so the traced
run wraps each layer's public functions from outside: every call opens a
span, spans nest, and a layer's *self* time is its spans' duration minus
the wrapped children they contain.  Time spent in no wrapped function
(runner glue, private callbacks) is the residual ``other``, so the
layers and ``other`` sum to the traced wall of each phase.

Every event callback the simulator runs is itself wrapped in an
``other`` span, so ``Simulator.run``'s self time is the event loop alone
(heap pops, dispatch) rather than everything the events do.

A function is patched wherever a module holds it: ``protocol.py`` does
``from repro.can.inscan import inscan_paths``, so patching only
``repro.can.inscan`` would miss its callers.  :func:`install` returns a
callable that puts every original back.

Wrappers read the clock and nothing else: they consume no RNG and do not
change event order, so a traced run gives the same result document as an
untraced one (the benchmark checks this by digest).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

__all__ = ["LAYERS", "PHASES", "TARGETS", "SpanTracer", "install"]

PHASES = ("setup", "run")

#: (layer, module, qualified name) of every wrapped function.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("sim.engine", "repro.sim.engine", "Simulator.run"),
    ("sim.engine", "repro.sim.engine", "Simulator.schedule"),
    ("sim.engine", "repro.sim.engine", "Simulator.schedule_at"),
    ("sim.delivery", "repro.sim.delivery", "DeliveryCalendar.deliver"),
    ("sim.delivery", "repro.sim.delivery", "DeliveryCalendar.deliver_at"),
    ("sim.network", "repro.sim.network", "NetworkModel.add_node"),
    ("sim.network", "repro.sim.network", "NetworkModel.remove_node"),
    ("sim.network", "repro.sim.network", "NetworkModel.delay"),
    ("sim.network", "repro.sim.network", "NetworkModel.path_delays"),
    ("can.overlay", "repro.can.overlay", "CANOverlay.bootstrap"),
    ("can.overlay", "repro.can.overlay", "CANOverlay.join"),
    ("can.overlay", "repro.can.overlay", "CANOverlay.leave"),
    ("can.inscan", "repro.can.inscan", "build_index_table"),
    ("can.inscan", "repro.can.inscan", "inscan_path"),
    ("can.inscan", "repro.can.inscan", "inscan_paths"),
    ("can.routing", "repro.can.routing", "greedy_path"),
    ("can.routing", "repro.can.routing", "greedy_paths"),
    ("can.geometry", "repro.can.geometry", "ZoneStore.adjacency"),
    ("can.geometry", "repro.can.geometry", "ZoneStore.squared_distances"),
    ("can.geometry", "repro.can.geometry", "ZoneStore.squared_distances_rows"),
    ("can.geometry", "repro.can.geometry", "ZoneStore.contains_mask"),
    ("core.diffusion", "repro.core.diffusion", "DiffusionEngine.diffuse"),
    ("core.diffusion", "repro.core.diffusion", "DiffusionEngine.diffuse_round"),
    ("core.diffusion", "repro.core.diffusion", "DiffusionEngine.replicate"),
    ("core.state", "repro.core.state", "StateCache.put"),
    ("core.state", "repro.core.state", "StateCache.qualified"),
    ("core.state", "repro.core.state", "StateCache.merge"),
    ("core.state", "repro.core.state", "StateCache.purge"),
    ("core.query", "repro.core.query", "QueryEngine.submit"),
    ("core.query", "repro.core.query", "QueryEngine.submit_burst"),
    ("core.query", "repro.core.lifecycle", "QueryLifecycle.begin"),
    ("core.query", "repro.core.lifecycle", "QueryLifecycle.finalize"),
    ("core.query", "repro.core.lifecycle", "QueryLifecycle.expire"),
    ("core.cache", "repro.core.cache", "PathCacheIndex.lookup"),
    ("core.cache", "repro.core.cache", "PathCacheIndex.store"),
    ("core.cache", "repro.core.cache", "PathCacheIndex.invalidate"),
    ("core.cache", "repro.core.cache", "PathCacheIndex.take_hot"),
    ("cloud.engine", "repro.cloud.engine", "HostEngine.add_hosts"),
    ("cloud.engine", "repro.cloud.engine", "HostEngine.place"),
    ("cloud.engine", "repro.cloud.engine", "HostEngine.complete"),
    ("cloud.engine", "repro.cloud.engine", "HostEngine.peek"),
    ("cloud.engine", "repro.cloud.engine", "HostEngine.availability_matrix"),
    ("cloud.workload", "repro.cloud.workload", "PoissonWorkload.start_node"),
    ("cloud.workload", "repro.cloud.tasks", "TaskFactory.create"),
    ("cloud.workload", "repro.cloud.tasks", "TaskFactory.sample_demand"),
    ("cloud.workload", "repro.cloud.tasks", "TaskFactory.sample_nominal_time"),
    ("cloud.workload", "repro.cloud.workload", "SkewedTaskFactory.sample_demand"),
    ("metrics", "repro.metrics.collector", "MetricsCollector.sample"),
    ("metrics", "repro.metrics.traffic", "TrafficMeter.charge"),
)

#: Layer names in report order; ``other`` is the residual.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

OTHER = "other"


class SpanTracer:
    """Nested-span accumulator: per (phase, layer) calls and self time,
    plus the extra counts the wrappers observe (routing outcomes)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.phase = PHASES[0]
        #: Open spans, innermost last: ``[start, time covered by children]``.
        self._stack: list[list[float]] = []
        self.self_s: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.calls: defaultdict[tuple[str, str], int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)

    def span(
        self,
        layer: str,
        fn: Callable[..., Any],
        observe: Optional[Callable[["SpanTracer", Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a ``layer`` span; ``observe(tracer, result)``
        runs after each call, with ``None`` for a call that raised."""
        return functools.update_wrapper(self._spanned(layer, fn, observe), fn)

    def _spanned(
        self,
        layer: str,
        fn: Callable[..., Any],
        observe: Optional[Callable[["SpanTracer", Any], None]] = None,
    ) -> Callable[..., Any]:
        stack = self._stack
        clock = self.clock
        self_s = self.self_s
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if observe is not None:
                    observe(self, None)
                raise
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                key = (self.phase, layer)
                self_s[key] += elapsed - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(self, out)
            return out

        return wrapper

    def residual(self, phase: str, wall_s: float) -> float:
        """``other`` self time: the phase's wall minus every named layer."""
        named = sum(
            v for (p, layer), v in self.self_s.items()
            if p == phase and layer != OTHER
        )
        return wall_s - named


def _observe_path(tracer: SpanTracer, path: Optional[list[int]]) -> None:
    if path is None:
        tracer.counts["can.routing.failed"] += 1
        return
    tracer.counts["can.routing.paths"] += 1
    tracer.counts["can.routing.hops"] += len(path) - 1


def _observe_paths(
    tracer: SpanTracer, paths: Optional[list[Optional[list[int]]]]
) -> None:
    for path in paths if paths is not None else [None]:
        _observe_path(tracer, path)


_OBSERVERS = {
    "repro.can.routing.greedy_path": _observe_path,
    "repro.can.routing.greedy_paths": _observe_paths,
}


def _wrap_scheduler(tracer: SpanTracer, original: Callable) -> Callable:
    """``Simulator.schedule_at`` that runs the scheduled callback inside
    an ``other`` span, so event work is not billed to the event loop."""
    # One closure per scheduled event: skip update_wrapper's copying.
    callback_span = tracer._spanned

    def schedule_at(sim, when, fn, *args, **kwargs):
        return original(sim, when, callback_span(OTHER, fn), *args, **kwargs)

    return functools.update_wrapper(schedule_at, original)


def install(tracer: SpanTracer) -> Callable[[], None]:
    """Wrap every :data:`TARGETS` function; returns the restore callable.

    Module-level functions are replaced in every loaded ``repro`` module
    that holds them; methods are replaced on their class.
    """
    patched: list[tuple[Any, str, Any]] = []

    def restore() -> None:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
        patched.clear()

    try:
        for layer, module_name, qualname in TARGETS:
            module = importlib.import_module(module_name)
            *owner_path, name = qualname.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            inner = original
            if qualname == "Simulator.schedule_at":
                inner = _wrap_scheduler(tracer, original)
            wrapped = tracer.span(
                layer, inner, _OBSERVERS.get(f"{module_name}.{qualname}")
            )
            if owner is module:
                holders = [
                    m for mod_name, m in list(sys.modules.items())
                    if (mod_name == "repro" or mod_name.startswith("repro."))
                    and getattr(m, name, None) is original
                ]
            else:
                holders = [owner]
            for holder in holders:
                patched.append((holder, name, original))
                setattr(holder, name, wrapped)
    except BaseException:
        restore()
        raise
    return restore
