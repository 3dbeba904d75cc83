"""The multi-workflow serving layer (multi-tenant UniFaaS).

The paper's engine executes one workflow per client.  A production service
faces many users submitting many workflows against the *same* federation —
so :class:`WorkflowManager` runs N concurrent workflows over one shared
substrate:

* **shared** — the simulation kernel / clock, the execution fabric, the
  endpoint monitor's mocked real-time view, both profilers, the task
  monitor (history + reliability) and one data manager / data plane (so
  replica caching, pinning and eviction budgets are federation-wide);
* **per workflow** — the task graph, task index, event bus, metrics,
  coordinators and scheduler, with workflow-namespaced task ids so the
  shared replica store's pins, sole-replica licenses and per-ticket volume
  accounting never alias between tenants.

Each pump round the manager reads the federation's free capacity, asks its
:class:`~repro.serving.arbitration.ArbitrationPolicy` to split it between
the workflows that have demand (FIFO / fair-share weighted by owner /
strict-priority), hands every workflow's scheduler its slice (capacity-
slicing hook on :class:`~repro.sched.base.Scheduler`), pumps each workflow,
and dispatches each workflow's staged tasks within its slice — merging
placements deterministically by iterating workflows in arrival order.
Workflow arrivals may be staggered: an arrival is scheduled on the
simulation kernel (the same mechanism the dynamics layer uses), the
workflow's DAG is built when its arrival comes due, and endpoint-dynamics
events are forwarded from the manager's control bus to every tenant bus.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.core.config import Config
from repro.core.dag import TaskState
from repro.core.exceptions import SchedulingError
from repro.core.functions import FederatedFunction, set_current_client
from repro.data.manager import task_namespace
from repro.data.transfer import LocalCopyTransferBackend, TransferBackend
from repro.dataplane import DataPlane
from repro.elastic.scaling import EndpointView, NoScalingStrategy, ScalingStrategy
from repro.engine.bus import EventBus
from repro.engine.core import (
    PLACEMENT_DISABLED,
    ExecutionEngine,
    build_data_manager,
    build_scaling_strategy,
)
from repro.engine.events import (
    ColdStartWindow,
    EndpointCrashed,
    EndpointRejoined,
    NetworkDegraded,
    NetworkRestored,
    StatusStalenessChanged,
    WorkerChurn,
)
from repro.faas.fabric import ExecutionFabric
from repro.metrics.collector import MetricsCollector, WorkflowSummary, percentile
from repro.monitor.endpoint_monitor import EndpointMonitor
from repro.monitor.store import HistoryStore
from repro.monitor.task_monitor import TaskMonitor
from repro.profiling.execution import ExecutionProfiler
from repro.profiling.transfer import TransferProfiler
from repro.sched.base import Scheduler
from repro.serving.arbitration import (
    ArbitrationPolicy,
    ArbitrationSite,
    TenantShare,
    create_arbitration,
)

__all__ = ["ServingSummary", "WorkflowHandle", "WorkflowManager", "jain_index"]

#: Dynamics event types the manager's control bus forwards to tenant buses.
_DYNAMICS_EVENTS = (
    EndpointCrashed,
    EndpointRejoined,
    WorkerChurn,
    ColdStartWindow,
    NetworkDegraded,
    NetworkRestored,
    StatusStalenessChanged,
)

#: Task states that count as scaling pressure (mirrors the single-workflow
#: periodic coordinator).
_PENDING_STATES = (TaskState.SCHEDULED, TaskState.STAGING, TaskState.STAGED)


def jain_index(values: List[float]) -> float:
    """Jain's fairness index over ``values`` (1.0 = perfectly even).

    ``J = (Σx)² / (n · Σx²)``; an empty or all-zero vector is perfectly
    fair by convention.
    """
    if not values:
        return 1.0
    square_sum = sum(v * v for v in values)
    if square_sum == 0.0:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


class WorkflowHandle:
    """One tenant workflow under a :class:`WorkflowManager`.

    Behaves like a :class:`~repro.core.client.UniFaaSClient` for workflow
    composition — decorated-function invocations inside a ``with handle:``
    block register tasks on this workflow's engine — while the manager
    drives execution.
    """

    def __init__(
        self,
        manager: "WorkflowManager",
        workflow_id: str,
        engine: ExecutionEngine,
        *,
        owner: str,
        weight: float,
        priority: int,
        arrival_s: float,
        deadline_s: Optional[float] = None,
        builder: Optional[Callable[["WorkflowHandle"], object]],
    ) -> None:
        self._manager = manager
        self.workflow_id = workflow_id
        self.engine = engine
        self.owner = owner
        self.weight = weight
        self.priority = priority
        self.arrival_s = arrival_s
        #: Absolute SLO deadline on the simulation clock (EDF arbitration).
        self.deadline_s = float("inf") if deadline_s is None else float(deadline_s)
        self.builder = builder
        #: FIFO position among live tenants; stamped by the manager.
        self.arrival_index = 0
        #: What the arbitration policy sees of this tenant; rebuilt only when
        #: the manager restamps ``arrival_index``.
        self.share: Optional[TenantShare] = None
        self.started = False
        self.finished = False
        self.paused = False
        self.cancelled = False
        self.retired = False
        #: Attributed transfer volume, frozen at retirement (the shared data
        #: manager's per-namespace entry is released then).
        self._attributed_mb: Optional[float] = None

    # -------------------------------------------------- client-like facade
    def submit(self, fn: FederatedFunction, args: tuple, kwargs: Dict[str, object]):
        """Register one invocation of ``fn`` (called by the decorator)."""
        return self.engine.submit(fn, args, kwargs)

    def __enter__(self) -> "WorkflowHandle":
        set_current_client(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        set_current_client(None)
        if exc_type is not None:
            # An aborted composition block must not leave a half-built
            # workflow pending: cancel so its arrival event never fires it.
            self.cancel()

    # ------------------------------------------------------------ lifecycle
    def pause(self) -> None:
        """Stop pumping this workflow (in-flight fabric tasks still drain)."""
        self.paused = True

    def resume(self) -> None:
        self.paused = False

    def cancel(self) -> None:
        """Cancel this workflow.

        Before arrival: the workflow never activates (its pending arrival
        event becomes a no-op).  Mid-run: the manager stops placing and
        dispatching its work; tasks already on the fabric drain normally.
        Idempotent, and safe to call on a finished workflow.
        """
        if self.cancelled or self.finished:
            return
        self.cancelled = True
        if self.started:
            self.engine.finalize()
        self.finished = True

    @property
    def fabric(self) -> ExecutionFabric:
        return self.engine.fabric

    @property
    def graph(self):
        return self.engine.graph

    @property
    def bus(self) -> EventBus:
        return self.engine.bus

    @property
    def metrics(self) -> MetricsCollector:
        return self.engine.metrics

    @property
    def complete(self) -> bool:
        return self.started and self.engine.graph.is_complete()

    def summary(self) -> WorkflowSummary:
        """This workflow's summary, with its own attributed transfer volume."""
        if self._attributed_mb is not None:
            return self.engine.metrics.summary(self._attributed_mb)
        return self.engine.metrics.summary(
            self._manager.data_manager.volume_by_namespace_mb.get(self.workflow_id, 0.0)
        )


@dataclass
class ServingSummary:
    """End-of-run report of a multi-workflow serving run."""

    policy: str
    makespan_s: float
    total_tasks: int
    completed_tasks: int
    failed_tasks: int
    total_transferred_mb: float
    #: Jain's index over per-workflow mean wait times (1.0 = perfectly even).
    jain_fairness: float
    #: p95 across workflows of the per-workflow mean wait time (the worst
    #: tenants' experience — what fair-share arbitration compresses).
    wait_time_p95_s: float
    workflows: Dict[str, WorkflowSummary] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "makespan_s": self.makespan_s,
            "total_tasks": self.total_tasks,
            "completed_tasks": self.completed_tasks,
            "failed_tasks": self.failed_tasks,
            "total_transferred_mb": self.total_transferred_mb,
            "jain_fairness": self.jain_fairness,
            "wait_time_p95_s": self.wait_time_p95_s,
            "workflows": {
                wid: summary.as_dict() for wid, summary in self.workflows.items()
            },
        }


class WorkflowManager:
    """Run N concurrent workflows over one shared federation."""

    #: Consecutive no-progress rounds before forced dispatch is attempted.
    stall_soft_rounds: int = 10
    #: Hard ceiling on consecutive no-progress rounds.
    stall_hard_rounds: int = 1000

    def __init__(
        self,
        config: Config,
        fabric: ExecutionFabric,
        *,
        transfer_backend: Optional[TransferBackend] = None,
        arbitration: Union[str, ArbitrationPolicy] = "fair_share",
        scaling_strategy: Optional[ScalingStrategy] = None,
        history_store: Optional[HistoryStore] = None,
        scaling_check_interval_s: float = 10.0,
        profiler_sample_window: Optional[int] = None,
    ) -> None:
        self.config = config
        self.fabric = fabric
        self.clock = fabric.clock
        #: Control bus: the dynamics injector publishes here; the manager
        #: forwards to every tenant bus and runs shared-plane reactions once.
        self.bus = EventBus()
        self.policy = (
            arbitration
            if isinstance(arbitration, ArbitrationPolicy)
            else create_arbitration(
                arbitration,
                vectorized=getattr(config, "enable_columnar_engine", True),
            )
        )
        self.scaling_check_interval_s = scaling_check_interval_s

        # Shared substrate: one of each, federation-wide.
        store = history_store or HistoryStore(config.history_db_path or ":memory:")
        self.task_monitor = TaskMonitor(store)
        self.endpoint_monitor = EndpointMonitor(
            lambda name: fabric.endpoint_status(name),
            self.clock,
            sync_interval_s=config.endpoint_sync_interval_s,
        )
        self.execution_profiler = ExecutionProfiler(
            store if store.task_count() else None,
            max_samples_retained=profiler_sample_window,
        )
        self.transfer_profiler = TransferProfiler(store if store.transfer_count() else None)
        self.task_monitor.add_task_listener(self.execution_profiler.observe)
        backend = transfer_backend or LocalCopyTransferBackend(clock=self.clock)
        self.data_manager = build_data_manager(config, backend, self.clock)
        self.data_manager.add_transfer_callback(self._on_transfer_result)

        # Elasticity is a federation-level concern: tenant engines get a
        # no-op strategy and the manager aggregates pending pressure.
        self.scaling_strategy = scaling_strategy or build_scaling_strategy(config)

        # Global placement is federation-level too: one shared service, every
        # tenant engine attached, so demand and hot datasets are planned
        # across tenants and one RNG stream drives every solve.
        self.plan_service = None
        if config.enable_placement_plan:
            from repro.placement.service import PlacementService

            self.plan_service = PlacementService(config)
            if hasattr(self.scaling_strategy, "plan_provider"):
                self.scaling_strategy.plan_provider = self.plan_service.current_plan

        # Dynamics: forward to tenants first (their failure coordinators
        # re-place stranded tasks), then run the shared plane's quarantine —
        # the same relative order the single-workflow bus wiring has.  Every
        # subscription is recorded so :meth:`shutdown` can release it.
        self._subscriptions: List = []
        for event_type in _DYNAMICS_EVENTS:
            self.bus.subscribe(event_type, self._forward_dynamics)
            self._subscriptions.append((event_type, self._forward_dynamics))
        if isinstance(self.data_manager, DataPlane):
            plane = self.data_manager
            on_crashed = lambda e: plane.on_endpoint_crashed(e.endpoint)  # noqa: E731
            on_rejoined = lambda e: plane.on_endpoint_rejoined(e.endpoint)  # noqa: E731
            self.bus.subscribe(EndpointCrashed, on_crashed)
            self.bus.subscribe(EndpointRejoined, on_rejoined)
            self._subscriptions.append((EndpointCrashed, on_crashed))
            self._subscriptions.append((EndpointRejoined, on_rejoined))

        self._workflows: Dict[str, WorkflowHandle] = {}
        self._ordered: List[WorkflowHandle] = []
        self._arrival_handles: Dict[str, object] = {}
        self._running = False
        self._shut_down = False
        self._last_scaling_check = 0.0
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None
        #: Streaming hooks.  ``completion_hold`` keeps :meth:`run` alive while
        #: an external source (the admission controller) still owes arrivals
        #: even though every *registered* workflow has finished;
        #: ``on_workflow_finished`` fires once per workflow as it completes —
        #: the retirement trigger.
        self.completion_hold: Optional[Callable[[], bool]] = None
        self.on_workflow_finished: Optional[Callable[[WorkflowHandle], None]] = None
        #: All-time counters that survive retirement (summary aggregates).
        self.retired_count = 0
        #: The pump's two arbitration call sites: advisory placement slices
        #: (never counted as service) and dispatch budgets.
        self._placement_site = ArbitrationSite(self.policy, record_service=False)
        self._dispatch_site = ArbitrationSite(self.policy)

    def disable_placement(self) -> None:
        """Drop the shared placement plan; tenants admitted later run greedy.

        Open-loop streaming calls this before the first arrival: ephemeral
        tenants live and die well inside ``placement_interval_s``, so a
        federation-wide plan has nothing to amortise there.
        """
        self.plan_service = None
        if hasattr(self.scaling_strategy, "plan_provider"):
            self.scaling_strategy.plan_provider = None

    # ------------------------------------------------------------ workflows
    def add_workflow(
        self,
        workflow_id: Optional[str] = None,
        *,
        owner: str = "",
        weight: float = 1.0,
        priority: int = 0,
        arrival_s: float = 0.0,
        deadline_s: Optional[float] = None,
        builder: Optional[Callable[[WorkflowHandle], object]] = None,
        scheduler: Optional[Scheduler] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> WorkflowHandle:
        """Register one tenant workflow.

        ``builder`` (if given) composes the DAG when the workflow's
        ``arrival_s`` comes due — staggered multi-tenant arrivals; without
        one, compose eagerly through ``with handle: ...`` before ``run()``.
        ``weight`` feeds fair-share arbitration, ``priority`` the
        strict-priority policy, and ``deadline_s`` (an absolute simulation
        time; the streaming admission layer sets admit time + SLO) the
        earliest-deadline-first policy.
        """
        if weight <= 0:
            raise ValueError("workflow weight must be positive")
        if arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        workflow_id = workflow_id or f"wf{len(self._workflows)}"
        if workflow_id in self._workflows:
            raise ValueError(f"duplicate workflow id {workflow_id!r}")
        if "/" in workflow_id:
            raise ValueError("workflow ids must not contain '/' (the namespace separator)")
        engine = ExecutionEngine(
            self.config,
            self.fabric,
            scheduler=scheduler,
            scaling_strategy=NoScalingStrategy(),
            metrics=metrics,
            endpoint_monitor=self.endpoint_monitor,
            execution_profiler=self.execution_profiler,
            transfer_profiler=self.transfer_profiler,
            task_monitor=self.task_monitor,
            data_manager=self.data_manager,
            # The manager owns the placement decision for every tenant: the
            # shared service when the plan is on, explicitly disabled when it
            # is off — a tenant engine must never self-build a private plan.
            placement=(
                self.plan_service
                if self.plan_service is not None
                else PLACEMENT_DISABLED
            ),
            namespace=workflow_id,
        )
        engine.metrics.tenant = owner or workflow_id
        handle = WorkflowHandle(
            self,
            workflow_id,
            engine,
            owner=owner or workflow_id,
            weight=weight,
            priority=priority,
            arrival_s=arrival_s,
            deadline_s=deadline_s,
            builder=builder,
        )
        self._workflows[workflow_id] = handle
        # Deterministic tenant order regardless of registration interleaving.
        # Every live handle is (re)stamped with its position — the arbitration
        # policies' FIFO key.  The stamp, not a live ``enumerate``, is what
        # the pump uses, so retiring an early tenant cannot shift the relative
        # order of the survivors mid-run.
        self._ordered = sorted(
            self._workflows.values(), key=lambda h: (h.arrival_s, h.workflow_id)
        )
        for index, ordered_handle in enumerate(self._ordered):
            if ordered_handle.share is None or ordered_handle.arrival_index != index:
                ordered_handle.arrival_index = index
                ordered_handle.share = TenantShare(
                    workflow_id=ordered_handle.workflow_id,
                    weight=ordered_handle.weight,
                    priority=ordered_handle.priority,
                    arrival_index=index,
                    deadline=ordered_handle.deadline_s,
                )
        kernel = getattr(self.fabric, "kernel", None)
        if kernel is not None and arrival_s > self.clock.now():
            # A real (non-daemon) kernel event, like the dynamics layer's
            # timeline: the simulation advances to the arrival even when the
            # already-running workflows drain first.  The handle is kept so
            # :meth:`shutdown` can cancel arrivals a discarded manager owns.
            # Workflows arriving *now* (streaming admissions inside the run
            # loop) skip the event: ``_activate_due`` picks them up on the
            # current round.
            self._arrival_handles[workflow_id] = kernel.schedule_at(
                arrival_s,
                self._activate,
                handle,
                label=f"workflow-arrival-{workflow_id}",
            )
        return handle

    def workflow(self, workflow_id: str) -> WorkflowHandle:
        return self._workflows[workflow_id]

    def workflows(self) -> List[WorkflowHandle]:
        """Handles in deterministic arrival order."""
        return list(self._ordered)

    @property
    def arbitration_calls(self) -> int:
        """Pump arbitrations that ran the policy."""
        return self._placement_site.calls + self._dispatch_site.calls

    @property
    def arbitration_skips(self) -> int:
        """Pump arbitrations answered by the unchanged previous allocation."""
        return self._placement_site.skips + self._dispatch_site.skips

    # ------------------------------------------------------------------ run
    def run(self, max_wall_time_s: Optional[float] = None) -> None:
        """Drive every registered workflow to completion.

        Raises :class:`SchedulingError` when the federation stalls (no
        workflow can make progress and no arrival is pending).
        """
        if not self._workflows and self.completion_hold is None:
            return
        self._running = True
        for name in self.fabric.endpoint_names():
            if name not in self.endpoint_monitor.endpoint_names():
                self.endpoint_monitor.register(name)
        if self._started_at is None:
            self._started_at = self.clock.now()
        wall_start = _time.monotonic()
        stall_rounds = 0
        while not self._all_complete():
            if max_wall_time_s is not None and _time.monotonic() - wall_start > max_wall_time_s:
                raise SchedulingError(
                    f"serving run exceeded the wall-time budget of {max_wall_time_s} s"
                )
            activated = self._activate_due()
            records = self.fabric.process()
            if getattr(self.config, "enable_columnar_engine", True):
                # Columnar path: hand each engine its *consecutive* run of
                # records as one batch.  Batching only adjacent same-engine
                # records preserves the global record order every shared,
                # order-sensitive component (task monitor, profilers) sees.
                start = 0
                while start < len(records):
                    engine = self._engine_for_task(records[start].task_id)
                    stop = start + 1
                    while (
                        stop < len(records)
                        and self._engine_for_task(records[stop].task_id) is engine
                    ):
                        stop += 1
                    engine._handle_completions(records[start:stop])
                    start = stop
            else:
                for record in records:
                    self._engine_for_task(record.task_id)._handle_completion(record)
            for handle in self._active_workflows():
                handle.engine.periodic.check()
            self._check_scaling()
            progressed = self._pump()
            self._finish_completed()
            if activated or records or progressed or self.fabric.pending_work():
                stall_rounds = 0
                continue
            stall_rounds += 1
            if stall_rounds >= self.stall_hard_rounds:
                counts = {
                    h.workflow_id: h.engine.graph.counts() for h in self._ordered
                }
                raise SchedulingError(
                    f"serving run made no progress for {stall_rounds} rounds; "
                    f"task states: {counts}"
                )
            if stall_rounds > self.stall_soft_rounds:
                # Delay-mechanism deadlock on an empty pool: force the staged
                # queue heads out, in arrival order (the single-workflow
                # engine's stall diagnosis, across tenants).
                for handle in self._active_workflows():
                    if handle.engine.dispatch.dispatch_staged(force=True):
                        break
        self._finished_at = self.clock.now()
        self.fabric.flush()

    # ------------------------------------------------------------- teardown
    def shutdown(self) -> None:
        """Release this manager's shared-kernel footprint (idempotent).

        Cancels every pending workflow-arrival event and unsubscribes the
        control bus's dynamics/dataplane handlers, so a manager discarded
        mid-run — orchestrator crash recovery, an aborted ``with`` block, or
        a restore replacing it — never double-fires handlers or activates
        workflows alongside its successor.
        """
        if self._shut_down:
            return
        self._shut_down = True
        self._running = False
        for event_handle in self._arrival_handles.values():
            event_handle.cancel()
        self._arrival_handles.clear()
        for event_type, handler in self._subscriptions:
            self.bus.unsubscribe(event_type, handler)
        self._subscriptions.clear()

    # ------------------------------------------------------------- internals
    def _activate(self, handle: WorkflowHandle) -> None:
        if handle.started or handle.cancelled or self._shut_down:
            return
        handle.started = True
        if handle.builder is not None:
            handle.builder(handle)
        if len(handle.engine.graph) == 0:
            # An empty workflow is trivially complete.
            handle.engine.metrics.workflow_started(self.clock.now())
            handle.engine.finalize()
            handle.finished = True
            if self.on_workflow_finished is not None:
                self.on_workflow_finished(handle)
            return
        handle.engine.start()

    def _activate_due(self) -> bool:
        activated = False
        now = self.clock.now()
        for handle in self._ordered:
            if not handle.started and not handle.cancelled and handle.arrival_s <= now:
                self._activate(handle)
                activated = True
        return activated

    def _active_workflows(self) -> List[WorkflowHandle]:
        return [
            h for h in self._ordered if h.started and not h.finished and not h.paused
        ]

    def _all_complete(self) -> bool:
        if self.completion_hold is not None and self.completion_hold():
            # The arrival stream still owes work (pending arrivals, queued
            # admissions): an empty or fully-drained tenant set is not the
            # end of the run.
            return False
        return all(h.finished for h in self._ordered)

    def _engine_for_task(self, task_id: str) -> ExecutionEngine:
        return self._workflows[task_namespace(task_id)].engine

    def _finish_completed(self) -> None:
        for handle in self._active_workflows():
            if handle.engine.graph.is_complete():
                handle.engine.finalize()
                handle.finished = True
                if self.on_workflow_finished is not None:
                    self.on_workflow_finished(handle)

    # ------------------------------------------------------------ retirement
    def retire(self, handle: WorkflowHandle) -> None:
        """Release a finished tenant's footprint on the shared substrate.

        Open-loop serving admits workflows forever; without retirement every
        completed tenant keeps its task graph, columnar store, event bus,
        scheduler and staging records alive and the run is O(all-time tasks)
        in memory.  Retiring drops the manager's references, unhooks the
        tenant's staged callback from the shared data manager and releases
        its namespace's tickets and pins — after which the tenant's whole
        engine is garbage.  The handle itself stays valid (its summary is
        frozen) but is no longer known to the manager.
        """
        if handle.retired:
            return
        if not handle.finished:
            raise ValueError(
                f"workflow {handle.workflow_id!r} is not finished; only "
                "completed workflows can be retired"
            )
        wid = handle.workflow_id
        handle._attributed_mb = self.data_manager.volume_by_namespace_mb.get(wid, 0.0)
        handle.retired = True
        self.data_manager.remove_staged_callback(handle.engine.staging._on_ticket_done)
        self.data_manager.release_namespace(wid)
        if self.plan_service is not None:
            self.plan_service.detach(handle.engine)
        if self._workflows.get(wid) is handle:
            del self._workflows[wid]
        self._ordered = [h for h in self._ordered if h is not handle]
        arrival = self._arrival_handles.pop(wid, None)
        if arrival is not None:
            arrival.cancel()
        self.retired_count += 1

    def _free_capacity(self) -> Dict[str, int]:
        return {
            name: self.endpoint_monitor.free_capacity(name)
            for name in self.endpoint_monitor.endpoint_names()
        }

    def _pump(self) -> bool:
        """One arbitrated round of placement and dispatch across tenants."""
        active = self._active_workflows()
        if not active:
            return False
        tenants = tuple(h.share for h in active)
        progressed = False

        # Workflow growth first (authoring runtimes reacting to terminal
        # outcomes), in arrival order, so demand sizes below count the tasks
        # materialized this round and a tenant whose recovery branch just
        # appeared is not finished prematurely.
        for handle in active:
            progressed |= handle.engine.drain_growth()

        # Placement: slice the *unclaimed* free capacity (free workers minus
        # every tenant's not-yet-dispatched claims) between the workflows
        # with placeable work, so capacity-limited placement (Locality,
        # DHA's re-scheduling) cannot overcommit across tenants.  A tenant's
        # demand counts its ready tasks *and* its placed-but-undispatched
        # ones: the slice also bounds the next periodic re-scheduling pass,
        # which must keep seeing fresh capacity (a frozen stale slice would
        # pin mid-flight tenants to endpoints that have since browned out).
        # The allocation is advisory (an upper bound the tenant may not
        # consume), so fair-share must not count it as service rendered.
        demand_size = {
            h.workflow_id: h.engine.index.queued_count + h.engine.index.undispatched_count
            for h in active
        }
        if any(demand_size.values()):
            endpoints = self.endpoint_monitor.endpoint_names()
            free = self._free_capacity()
            claimed = {
                name: sum(h.engine.scheduler.claimed(name) for h in active)
                for name in endpoints
            }
            unclaimed = {name: max(0, free[name] - claimed[name]) for name in endpoints}
            placement_demand = {
                wid: dict.fromkeys(endpoints, size) for wid, size in demand_size.items()
            }
            placement_slices = self._placement_site.allocate(
                unclaimed, placement_demand, tenants
            )
            for handle in active:
                handle.engine.scheduler.set_capacity_slice(
                    placement_slices.get(handle.workflow_id, {})
                )
                progressed |= handle.engine.placement.schedule_ready()

        # Dispatch: slice the free workers between the workflows with staged
        # demand; each workflow dispatches only within its slice (merged
        # deterministically in arrival order).
        staged_demand = {
            h.workflow_id: h.engine.dispatch.staged_demand() for h in active
        }
        if any(staged_demand.values()):
            free_now = self._free_capacity()
            if any(free_now.values()):
                budgets = self._dispatch_site.allocate(free_now, staged_demand, tenants)
                for handle in active:
                    progressed |= handle.engine.dispatch.dispatch_staged(
                        budget=budgets.get(handle.workflow_id, {})
                    )
        self.fabric.flush()
        return progressed

    def _check_scaling(self) -> None:
        now = self.clock.now()
        if now - self._last_scaling_check < self.scaling_check_interval_s:
            return
        self._last_scaling_check = now
        pending = 0
        for handle in self._active_workflows():
            graph = handle.engine.graph
            pending += handle.engine.index.queued_count
            pending += sum(graph.state_count(state) for state in _PENDING_STATES)
        views = {}
        for name in self.fabric.endpoint_names():
            mock = self.endpoint_monitor.mock(name)
            views[name] = EndpointView(
                name=name,
                active_workers=mock.active_workers,
                idle_workers=mock.idle_workers,
                outstanding_tasks=mock.outstanding_tasks,
                max_workers=mock.max_workers,
            )
        decision = self.scaling_strategy.decide(pending, views)
        for name, workers in decision.workers_to_request.items():
            if workers > 0:
                self.fabric.request_workers(name, workers)

    def _forward_dynamics(self, event) -> None:
        for handle in self._ordered:
            handle.engine.bus.publish(event)

    def _on_transfer_result(self, result, concurrency: int) -> None:
        self.task_monitor.observe_transfer(result, concurrency)
        self.transfer_profiler.observe(result, concurrency)

    # --------------------------------------------------------------- report
    def summary(self) -> ServingSummary:
        """Aggregate + per-tenant report of the serving run."""
        workflows = {h.workflow_id: h.summary() for h in self._ordered}
        mean_waits = [s.wait_time_mean_s for s in workflows.values()]
        start = self._started_at or 0.0
        finish = self._finished_at if self._finished_at is not None else self.clock.now()
        return ServingSummary(
            policy=self.policy.name,
            makespan_s=max(0.0, finish - start),
            total_tasks=sum(s.total_tasks for s in workflows.values()),
            completed_tasks=sum(s.completed_tasks for s in workflows.values()),
            failed_tasks=sum(s.failed_tasks for s in workflows.values()),
            total_transferred_mb=self.data_manager.total_transferred_mb,
            jain_fairness=jain_index(mean_waits),
            wait_time_p95_s=percentile(mean_waits, 0.95),
            workflows=workflows,
        )
