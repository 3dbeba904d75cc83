"""Array-backed scheduling structures — the vectorized DHA/HEFT hot path.

Two data structures turn the per-task × per-endpoint Python loops of the
scalar schedulers into dense array operations while keeping every decision
byte-identical to the scalar reference path:

* :class:`PredictionIndex` — stable integer ids for tasks (rows) and
  endpoints (columns) plus two float64 matrices holding the predicted
  execution time and predicted staging time of every pair.  Rows are filled
  lazily.  Execution rows are batched: one profiler call per function,
  deduplicated by input size.  Staging rows ask the transfer profiler once
  per cell, and its memo answers the repeated (source, destination, size)
  questions of a row without evaluating a model.  Both are
  generation-stamped exactly like the scalar memo cache: a
  profiler retrain, a hardware change, a transfer observation or a replica
  move invalidates lazily via version counters, and the engine's per-task
  invalidation clears single rows.  Every cell holds exactly the float the
  scalar :class:`~repro.sched.base.SchedulingContext` methods would return.

* :class:`EndpointStateVectors` — the incremental earliest-finish-time
  index: per-endpoint backlog accumulators (pending work, busy/idle workers
  and the scheduler's own not-yet-dispatched claims) that are updated on
  claim / dispatch / complete / capacity-change instead of being re-read
  from the mock endpoints for every candidate of every task.  DHA's
  endpoint selection then reduces to an argmin over one estimated-finish
  vector per task.

The vectorized path requires the endpoint monitor's mocking mechanism (with
mocking disabled every query re-reads the service, which arrays cannot
mirror); schedulers fall back to the scalar reference automatically.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data import remote_file as _remote_file

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dag import Task
    from repro.monitor.endpoint_monitor import EndpointMonitor
    from repro.sched.base import SchedulingContext

__all__ = ["EndpointStateVectors", "PredictionIndex"]

#: Row-capacity growth quantum of the prediction matrices.
_GROW = 1024


class PredictionIndex:
    """Dense, generation-stamped prediction matrices over tasks × endpoints."""

    def __init__(self, context: "SchedulingContext") -> None:
        self._context = context
        self.endpoint_names: List[str] = list(context.endpoint_names())
        self._endpoint_index: Dict[str, int] = {
            name: column for column, name in enumerate(self.endpoint_names)
        }
        width = max(1, len(self.endpoint_names))
        self._rows: Dict[str, int] = {}
        self._row_count = 0
        self._exec = np.zeros((_GROW, width))
        self._stag = np.zeros((_GROW, width))
        #: Per-row generation stamps; ``-1`` marks an invalidated row.
        self._exec_stamp = np.full(_GROW, -1, dtype=np.int64)
        self._stag_stamp = np.full(_GROW, -1, dtype=np.int64)
        # Version tuples collapsed into monotonic ints (stamp values).  The
        # staging generation is split in two streams sharing one counter:
        # rows of tasks *with* input files depend on replica locations (the
        # global location version moves on every registered output file),
        # while rows of tasks without files do not — keeping the latter,
        # the bulk of priority-time queries, cached across completions.
        self._exec_token: Optional[Tuple] = None
        self._exec_gen = 0
        self._stag_nofiles_token: Optional[Tuple] = None
        self._stag_files_token: Optional[Tuple] = None
        self._stag_gen_nofiles = 0
        self._stag_gen_files = 0
        self._stag_counter = 0
        #: Recycled rows of released (finished) tasks.
        self._free_rows: List[int] = []
        self._default: Optional[float] = None
        self._fallback_row: Optional[np.ndarray] = None
        self._hardware: Optional[np.ndarray] = None
        self._hardware_version = -1
        #: Matrix cells computed (the vector path's "misses") and matrix rows
        #: handed to consumers (its "hits") — benchmarks assert on these.
        self.cells_filled = 0
        self.rows_served = 0

    # ------------------------------------------------------------ generations
    def _current_exec_gen(self) -> int:
        context = self._context
        token = (
            context.execution_profiler.prediction_version,
            context.endpoint_monitor.hardware_version,
        )
        if token != self._exec_token:
            self._exec_token = token
            self._exec_gen += 1
        return self._exec_gen

    def _current_stag_gens(self) -> Tuple[int, int]:
        """Current staging generations ``(without files, with files)``."""
        context = self._context
        base = (
            getattr(context.transfer_profiler, "prediction_version", 0),
            context.execution_profiler.prediction_version,
        )
        if base != self._stag_nofiles_token:
            self._stag_nofiles_token = base
            self._stag_counter += 1
            self._stag_gen_nofiles = self._stag_counter
        files_token = base + (_remote_file.location_version(),)
        if files_token != self._stag_files_token:
            self._stag_files_token = files_token
            self._stag_counter += 1
            self._stag_gen_files = self._stag_counter
        return self._stag_gen_nofiles, self._stag_gen_files

    # ----------------------------------------------------------- invalidation
    def invalidate_task(self, task_id: str) -> None:
        row = self._rows.get(task_id)
        if row is not None:
            self._exec_stamp[row] = -1
            self._stag_stamp[row] = -1

    def invalidate_all(self) -> None:
        self._exec_stamp[: self._row_count] = -1
        self._stag_stamp[: self._row_count] = -1

    def release_task(self, task_id: str) -> None:
        """Forget a finished task and recycle its row.

        Keeps the matrices bounded by the live task set (the same invariant
        the scalar memo caches maintain through completion-time eviction)
        instead of growing with every task ever seen.
        """
        row = self._rows.pop(task_id, None)
        if row is not None:
            self._exec_stamp[row] = -1
            self._stag_stamp[row] = -1
            self._free_rows.append(row)

    # ---------------------------------------------------------------- queries
    @property
    def exec_matrix(self) -> np.ndarray:
        return self._exec

    @property
    def staging_matrix(self) -> np.ndarray:
        return self._stag

    def endpoint_index(self, name: str) -> Optional[int]:
        return self._endpoint_index.get(name)

    def rows(self, tasks: Sequence["Task"], default: float) -> np.ndarray:
        """Row indices for ``tasks`` with both matrices filled and fresh."""
        if list(self._context.endpoint_names()) != self.endpoint_names:
            self._rebuild()
        if self._default is None:
            self._default = default
        elif default != self._default:
            # A different scalar default parameterises the warm-up fallback
            # and the profiler query; treat it as a full exec invalidation.
            self._default = default
            self._fallback_row = None
            self._exec_stamp[: self._row_count] = -1
        exec_gen = self._current_exec_gen()
        stag_gen_nofiles, stag_gen_files = self._current_stag_gens()
        indices = np.empty(len(tasks), dtype=np.intp)
        stale_exec: List[Tuple["Task", int]] = []
        stale_stag: List[Tuple["Task", int, int]] = []
        rows = self._rows
        exec_stamp = self._exec_stamp
        stag_stamp = self._stag_stamp
        for position, task in enumerate(tasks):
            row = rows.get(task.task_id)
            if row is None:
                row = self._add_row(task.task_id)
                exec_stamp = self._exec_stamp
                stag_stamp = self._stag_stamp
            indices[position] = row
            if exec_stamp[row] != exec_gen:
                stale_exec.append((task, row))
            stag_gen = stag_gen_files if task.input_files else stag_gen_nofiles
            if stag_stamp[row] != stag_gen:
                stale_stag.append((task, row, stag_gen))
        if stale_exec:
            self._fill_exec(stale_exec, exec_gen)
        if stale_stag:
            self._fill_staging(stale_stag)
        self.rows_served += len(tasks)
        return indices

    def row_means(self, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row mean execution time ``w`` and mean staging time ``d``.

        Accumulates column by column (left to right, in endpoint order), the
        exact summation order of the scalar ``sum(times) / len(times)`` —
        pairwise-summation shortcuts would break bit-identity.
        """
        count = len(self.endpoint_names)
        w = np.zeros(len(indices))
        d = np.zeros(len(indices))
        exec_rows = self._exec[indices]
        stag_rows = self._stag[indices]
        for column in range(count):
            w += exec_rows[:, column]
            d += stag_rows[:, column]
        w /= count
        d /= count
        return w, d

    # --------------------------------------------------------------- internal
    def _rebuild(self) -> None:
        """The monitored endpoint set changed: restart with fresh columns.

        Endpoint *registration* is the only event that changes the column
        set (worker churn and elastic scaling change counts on existing
        endpoints); it happens at engine start-up and, rarely, when a
        dynamic topology grows — a full refill is the cold-start cost, not
        a steady-state one.
        """
        self.__init__(self._context)  # noqa: PLC2801 - deliberate reset

    def _add_row(self, task_id: str) -> int:
        if self._free_rows:
            row = self._free_rows.pop()
            self._rows[task_id] = row
            return row
        row = self._row_count
        if row >= len(self._exec_stamp):
            grow = len(self._exec_stamp) * 2
            width = self._exec.shape[1]
            for name in ("_exec", "_stag"):
                old = getattr(self, name)
                new = np.zeros((grow, width))
                new[:row] = old
                setattr(self, name, new)
            for name in ("_exec_stamp", "_stag_stamp"):
                old = getattr(self, name)
                new = np.full(grow, -1, dtype=np.int64)
                new[:row] = old
                setattr(self, name, new)
        self._rows[task_id] = row
        self._row_count = row + 1
        return row

    def _hardware_matrix(self) -> np.ndarray:
        monitor = self._context.endpoint_monitor
        if self._hardware is None or self._hardware_version != monitor.hardware_version:
            self._hardware = np.array(
                [monitor.mock(name).hardware_features() for name in self.endpoint_names],
                dtype=float,
            )
            self._hardware_version = monitor.hardware_version
        return self._hardware

    def _fallback(self) -> np.ndarray:
        """Warm-up prediction per endpoint: ``default / max(speed, 1e-9)``."""
        if self._fallback_row is None:
            context = self._context
            default = self._default if self._default is not None else 1.0
            self._fallback_row = np.array(
                [
                    default / max(context.speed_factors.get(name, 1.0), 1e-9)
                    for name in self.endpoint_names
                ]
            )
        return self._fallback_row

    def _fill_exec(self, stale: List[Tuple["Task", int]], generation: int) -> None:
        context = self._context
        by_function: Dict[str, List[Tuple["Task", int]]] = defaultdict(list)
        for task, row in stale:
            by_function[task.name].append((task, row))
        hardware = self._hardware_matrix()
        width = len(self.endpoint_names)
        for function_name, items in by_function.items():
            inputs = np.array(
                [context.estimated_input_mb(task) for task, _ in items], dtype=float
            )
            rows = np.fromiter((row for _, row in items), dtype=np.intp, count=len(items))
            matrix = context.execution_profiler.predict_time_matrix(
                function_name, inputs, hardware
            )
            if matrix is None:
                self._exec[rows] = self._fallback()
            else:
                self._exec[rows] = matrix
            self._exec_stamp[rows] = generation
            self.cells_filled += len(items) * width

    def _fill_staging(self, stale: List[Tuple["Task", int, int]]) -> None:
        for task, row, generation in stale:
            self._stag[row] = self._staging_row(task)
            self._stag_stamp[row] = generation
            self.cells_filled += len(self.endpoint_names)

    def _staging_row(self, task: "Task") -> np.ndarray:
        """One row of predicted staging times, mirroring the scalar method.

        The accumulation order (files outer, endpoints inner, contributions
        added in file order) matches
        :meth:`~repro.sched.base.SchedulingContext.predicted_staging_time`
        exactly so the cells are bit-identical — including the data-plane
        gate: multi-source (cheapest replica) predictions when the plane is
        enabled, primary-replica predictions when it is not.
        """
        context = self._context
        names = self.endpoint_names
        row = np.zeros(len(names))
        transfer = context.transfer_profiler
        multi_source = context.config.enable_dataplane
        if task.input_files:
            for file in task.input_files:
                size = file.size_mb
                if size <= 0:
                    continue
                if multi_source:
                    sources = context.staging_sources(file)
                    if not sources:
                        continue
                    for column, name in enumerate(names):
                        if file.available_at(name):
                            continue
                        row[column] += min(
                            transfer.predict_transfer_time(src, name, size)
                            for src in sources
                        )
                    continue
                source = file.primary_location
                if source is None:
                    continue
                for column, name in enumerate(names):
                    if file.available_at(name):
                        continue
                    row[column] += transfer.predict_transfer_time(source, name, size)
            return row
        size = context.estimated_input_mb(task)
        if size > 0 and len(names) > 1:
            for column, name in enumerate(names):
                source = names[0] if names[0] != name else names[1]
                row[column] = transfer.predict_transfer_time(source, name, size)
        return row


class EndpointStateVectors:
    """Incremental per-endpoint backlog accumulators for EFT selection."""

    def __init__(self, monitor: "EndpointMonitor", endpoint_names: Sequence[str]) -> None:
        self.names: List[str] = list(endpoint_names)
        self._index = {name: column for column, name in enumerate(self.names)}
        count = len(self.names)
        self.active = np.zeros(count, dtype=np.int64)
        self.busy = np.zeros(count, dtype=np.int64)
        self.pending = np.zeros(count, dtype=np.int64)
        self.claimed = np.zeros(count, dtype=np.int64)
        self._idle = np.zeros(count, dtype=np.int64)
        self._workers = np.ones(count, dtype=np.int64)
        self._seen_state_version = -1
        self.sync(monitor, force=True)

    # ----------------------------------------------------------------- update
    def sync(self, monitor: "EndpointMonitor", force: bool = False) -> None:
        """Re-read the mocks, but only when the monitor's state moved."""
        if not force and monitor.state_version == self._seen_state_version:
            return
        self._seen_state_version = monitor.state_version
        changed = False
        for column, name in enumerate(self.names):
            mock = monitor.mock(name)
            if (
                self.active[column] != mock.active_workers
                or self.busy[column] != mock.busy_workers
                or self.pending[column] != mock.pending_tasks
            ):
                self.active[column] = mock.active_workers
                self.busy[column] = mock.busy_workers
                self.pending[column] = mock.pending_tasks
                changed = True
        if changed or force:
            np.maximum(self.active - self.busy, 0, out=self._idle)
            np.maximum(self.active, 1, out=self._workers)

    def add_claim(self, endpoint: str, count: int) -> None:
        column = self._index.get(endpoint)
        if column is not None:
            self.claimed[column] += count

    # ---------------------------------------------------------------- queries
    def free_capacity(self) -> np.ndarray:
        """Mocked free workers per endpoint (``MockEndpoint.free_capacity``)."""
        return np.maximum(self.active - self.busy - self.pending, 0)

    def finish_row(self, exec_row: np.ndarray, stag_row: np.ndarray) -> np.ndarray:
        """Estimated finish time per endpoint for one task.

        Operation-for-operation the scalar ``DHAScheduler._estimated_finish``:
        ``max(staging, wait) + execution`` with the backlog wait term, so the
        argmin picks exactly the endpoint the scalar loop would.
        """
        idle = self._idle
        backlog = self.pending + self.claimed - idle
        wait = np.maximum(0, backlog) * exec_row / self._workers
        wait = np.where(idle <= 0, wait + 0.5 * exec_row, wait)
        return np.maximum(stag_row, wait) + exec_row
