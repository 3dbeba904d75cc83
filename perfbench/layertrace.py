"""Outside-in layer trace: ``perf_counter`` spans around each layer's entry points.

The tracer wraps methods at class level from the benchmark's own code, so no
file of the program changes.  A span covers one call of a wrapped method and
yields three numbers per name ``X``:

* ``X.calls``  -- every call, nested or not;
* ``X.s``      -- inclusive seconds, summed over the outermost calls of that
  name only (a re-entrant call, such as a bus publish from inside a handler,
  is not counted twice);
* ``X.self_s`` -- seconds inside ``X`` minus the seconds inside spans nested
  directly in it, so the self times of all spans partition the traced time.

Spans whose method returns a decision also count its outcome in
``X.outcome``: the calls that returned True for a flag, the items returned
for a list (placements, for the scheduler).  The
wrappers keep state only in the :class:`Tracer` and return whatever the
wrapped method returns, so a traced run executes the same control flow as an
untraced one (the benchmark checks that both give byte-identical results).
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from typing import Dict, List, Tuple

#: name -> (module, base class, method, outcome kind).  The method is wrapped
#: on the base class and on every subclass that overrides it.
SPANS: Dict[str, Tuple[str, str, str, str]] = {
    "sim.kernel.step": ("repro.sim.kernel", "SimulationKernel", "step", ""),
    "engine.bus.publish": ("repro.engine.bus", "EventBus", "publish", ""),
    "engine.bus.publish_many": ("repro.engine.bus", "EventBus", "publish_many", ""),
    "engine.drain_growth": ("repro.engine.core", "ExecutionEngine", "drain_growth", "true"),
    "engine.placement.schedule_ready": (
        "repro.engine.placement", "PlacementCoordinator", "schedule_ready", "true"),
    "engine.dispatch.dispatch_staged": (
        "repro.engine.dispatch", "DispatchCoordinator", "dispatch_staged", "true"),
    "faas.fabric.process": ("repro.faas.fabric", "ExecutionFabric", "process", ""),
    "sched.schedule": ("repro.sched.base", "Scheduler", "schedule", "items"),
    "sched.reschedule": ("repro.sched.base", "Scheduler", "reschedule", "items"),
    "sched.on_tasks_added": ("repro.sched.base", "Scheduler", "on_tasks_added", ""),
    "serving.arbitration.allocate": (
        "repro.serving.arbitration", "ArbitrationPolicy", "allocate", ""),
    "serving.manager.retire": ("repro.serving.manager", "WorkflowManager", "retire", ""),
    "authoring.drain": ("repro.authoring.runtime", "WorkflowRun", "drain", ""),
    "profiling.predict_execution_time": (
        "repro.profiling.execution", "ExecutionProfiler", "predict_execution_time", ""),
    "profiling.predict_time_matrix": (
        "repro.profiling.execution", "ExecutionProfiler", "predict_time_matrix", ""),
    "profiling.predict_output_mb": (
        "repro.profiling.execution", "ExecutionProfiler", "predict_output_mb", ""),
    "profiling.predict_transfer_time": (
        "repro.profiling.transfer", "TransferProfiler", "predict_transfer_time", ""),
    "profiling.update_models": (
        "repro.profiling.execution", "ExecutionProfiler", "update_models", ""),
    "profiling.update_models#transfer": (
        "repro.profiling.transfer", "TransferProfiler", "update_models", ""),
    "dataplane.stage": ("repro.data.manager", "DataManager", "stage", ""),
    "dataplane.prefetch": ("repro.dataplane.plane", "DataPlane", "prefetch", "true"),
    "dataplane.replica_store.admit": (
        "repro.dataplane.replica_store", "ReplicaStore", "admit", ""),
    "dataplane.transfer_scheduler.pump": (
        "repro.dataplane.transfer_scheduler", "TransferScheduler", "pump", ""),
    "placement.resolve": ("repro.placement.service", "PlacementService", "resolve", ""),
    "placement.maybe_resolve": (
        "repro.placement.service", "PlacementService", "maybe_resolve", ""),
    "monitor.synchronize": (
        "repro.monitor.endpoint_monitor", "EndpointMonitor", "synchronize", ""),
    "streaming.admission.pump": (
        "repro.streaming.admission", "AdmissionController", "pump", ""),
    "metrics.sample": ("repro.metrics.collector", "MetricsCollector", "sample", ""),
}


def span_names() -> List[str]:
    """Reported span names (targets sharing a name before ``#`` merge)."""
    return list(dict.fromkeys(name.split("#")[0] for name in SPANS))


class _Stat:
    __slots__ = ("calls", "inclusive", "self_time", "outcome", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.outcome = 0
        self.depth = 0


class Tracer:
    """Holds span statistics; :meth:`install` wraps every target in ``SPANS``."""

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = {name: _Stat() for name in span_names()}
        # One frame per open span: [seconds spent in directly nested spans].
        self._stack: List[list] = []

    def install(self) -> None:
        # Import every module first, so that subclasses the program would
        # import lazily later are found and wrapped too.
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        for key, (module, cls_name, method, outcome) in SPANS.items():
            base = getattr(importlib.import_module(module), cls_name)
            for cls in _with_subclasses(base):
                if method in vars(cls):
                    setattr(cls, method, self._wrap(key.split("#")[0], vars(cls)[method], outcome))

    def _wrap(self, name: str, fn, outcome: str):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_time += elapsed - frame[0]
                if not stat.depth:
                    stat.inclusive += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if outcome and result:
                stat.outcome += 1 if outcome == "true" else len(result)
            return result

        return traced

    def report(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.s"] = stat.inclusive
            out[f"{name}.self_s"] = stat.self_time
            out[f"{name}.outcome"] = stat.outcome
        return out


def _with_subclasses(base: type) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return found
