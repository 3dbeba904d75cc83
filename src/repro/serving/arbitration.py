"""Cross-workflow arbitration policies for the multi-workflow serving layer.

With several tenants' workflows competing for one federation, the scheduler
layer (DHA/HEFT/Locality, unchanged) decides *where* each workflow's tasks
run, but somebody must decide *whose* tasks get the scarce free workers each
pump round.  That somebody is an :class:`ArbitrationPolicy`: given the
per-endpoint free capacity and every workflow's per-endpoint demand, it
returns each workflow's slice.  The allocation problem is the fractional
core of hard-capacitated facility assignment — demand from several owners
sharing capacity-bounded facilities without any owner exceeding or
monopolising them — solved here with deterministic integer apportionment.

Four policies ship:

* :class:`FifoArbitration` — workflows drain strictly in arrival order; the
  baseline (and exactly what naively pointing N clients at one federation
  degenerates into).
* :class:`FairShareArbitration` — capacity splits proportionally to owner
  weights by largest-remainder apportionment, with a cumulative-service
  deficit as the tie-break so rounding error cannot systematically favour
  any tenant across rounds (weighted deficit round-robin).
* :class:`StrictPriorityArbitration` — higher-priority workflows preempt all
  capacity; ties fall back to arrival order.
* :class:`EdfArbitration` — earliest deadline first: the workflow whose SLO
  deadline expires soonest drains before the others.  Deadlines come from
  the streaming admission layer (admit time + SLO); tenants without one sort
  last (``inf``), so EDF degrades to FIFO for deadline-free batches.

Every policy is deterministic: identical inputs (plus identical cumulative
history for fair-share) produce identical allocations, which is what makes
multi-workflow runs byte-reproducible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.rounding import largest_remainder_split

__all__ = [
    "ARBITRATION_POLICIES",
    "ArbitrationPolicy",
    "ArbitrationSite",
    "EdfArbitration",
    "FairShareArbitration",
    "FifoArbitration",
    "StrictPriorityArbitration",
    "TenantShare",
    "create_arbitration",
]


@dataclass(frozen=True)
class TenantShare:
    """What an arbitration policy may know about one workflow's owner."""

    workflow_id: str
    #: Fair-share weight of the owning tenant (> 0).
    weight: float = 1.0
    #: Strict-priority rank (higher preempts lower).
    priority: int = 0
    #: Position in arrival order (earlier = smaller).
    arrival_index: int = 0
    #: Absolute SLO deadline on the simulation clock (EDF); ``inf`` = none.
    deadline: float = float("inf")


Allocation = Dict[str, Dict[str, int]]


class ArbitrationPolicy(ABC):
    """Splits per-endpoint free capacity between competing workflows."""

    name: str = "base"
    #: Moves whenever the policy's own state changes what it would allocate
    #: for the same inputs.  Stateless policies stay at 0; the serving layer
    #: keys its reuse of an unchanged allocation on this.
    served_version: int = 0

    @abstractmethod
    def allocate(
        self,
        free: Mapping[str, int],
        demands: Mapping[str, Mapping[str, int]],
        tenants: Sequence[TenantShare],
        *,
        record_service: bool = True,
    ) -> Allocation:
        """Per-workflow, per-endpoint capacity slices.

        ``free`` is the capacity available per endpoint this round;
        ``demands`` maps workflow id to its per-endpoint demand (workers'
        worth of dispatchable tasks).  The result allocates at most ``free``
        per endpoint and at most the demand per (workflow, endpoint).

        ``record_service=False`` marks an *advisory* allocation (the serving
        layer's placement slices, whose demand is an upper bound the tenant
        may not consume): stateful policies must not count it as capacity
        actually served.  Only dispatch allocations — real workers granted —
        feed fair-share's cross-round deficit.
        """

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _ordered_drain(
        free: Mapping[str, int],
        demands: Mapping[str, Mapping[str, int]],
        ordered: List[TenantShare],
    ) -> Allocation:
        """Give each workflow, in order, everything it wants that is left."""
        remaining = {endpoint: max(0, count) for endpoint, count in free.items()}
        allocation: Allocation = {}
        for tenant in ordered:
            demand = demands.get(tenant.workflow_id, {})
            slice_: Dict[str, int] = {}
            for endpoint in sorted(demand):
                granted = min(demand[endpoint], remaining.get(endpoint, 0))
                if granted > 0:
                    slice_[endpoint] = granted
                    remaining[endpoint] -= granted
            allocation[tenant.workflow_id] = slice_
        return allocation


class FifoArbitration(ArbitrationPolicy):
    """First come, first served: earlier workflows drain before later ones."""

    name = "fifo"

    def allocate(self, free, demands, tenants, *, record_service: bool = True) -> Allocation:
        ordered = sorted(tenants, key=lambda t: (t.arrival_index, t.workflow_id))
        return self._ordered_drain(free, demands, ordered)


class StrictPriorityArbitration(ArbitrationPolicy):
    """Higher-priority owners preempt all capacity; ties serve FIFO."""

    name = "priority"

    def allocate(self, free, demands, tenants, *, record_service: bool = True) -> Allocation:
        ordered = sorted(
            tenants, key=lambda t: (-t.priority, t.arrival_index, t.workflow_id)
        )
        return self._ordered_drain(free, demands, ordered)


class EdfArbitration(ArbitrationPolicy):
    """Earliest deadline first: the most urgent workflow drains first.

    Workflows are served in ascending deadline order (ties fall back to
    arrival order, then workflow id), each taking everything it wants that is
    left — the classic dynamic-priority discipline that is optimal for
    meeting deadlines on a single preemptable resource.  Tenants with no
    deadline (``inf``) are served last, so mixing deadline-bearing streaming
    tenants with batch tenants starves neither determinism nor the batch.
    """

    name = "edf"

    def allocate(self, free, demands, tenants, *, record_service: bool = True) -> Allocation:
        ordered = sorted(
            tenants, key=lambda t: (t.deadline, t.arrival_index, t.workflow_id)
        )
        return self._ordered_drain(free, demands, ordered)


class FairShareArbitration(ArbitrationPolicy):
    """Weighted proportional sharing with a cross-round deficit correction.

    Per endpoint, the free capacity is water-filled over the workflows that
    still have unmet demand: each round of the fill splits the remaining
    capacity proportionally to tenant weights (largest-remainder rounding)
    and what a workflow cannot use spills to the others.  Single leftover
    units are tied-broken by *normalised cumulative service* (total workers
    granted so far divided by weight), so the tenant the rounding has
    shortchanged most is served first — without this, ties would always
    resolve by name and permanently bias low-sorting tenants.
    """

    name = "fair_share"

    def __init__(self, vectorized: bool = False) -> None:
        #: Workers *actually granted for dispatch* per workflow across the
        #: run (the deficit tie-break).  Advisory placement allocations
        #: (``record_service=False``) never touch it — their demand is an
        #: upper bound the tenant may not consume, and counting it would
        #: re-introduce exactly the systematic bias the deficit prevents.
        self._served: Dict[str, int] = {}
        self.served_version = 0
        #: Run the deficit round-robin over tenant demand / served / weight
        #: vectors (columnar serving path).  Allocations are identical to the
        #: scalar per-tenant-loop reference below, which stays on as the
        #: equivalence oracle.
        self.vectorized = vectorized

    def allocate(self, free, demands, tenants, *, record_service: bool = True) -> Allocation:
        if self.vectorized:
            return self._allocate_vectorized(
                free, demands, tenants, record_service=record_service
            )
        weights = {t.workflow_id: max(t.weight, 1e-9) for t in tenants}
        allocation: Allocation = {t.workflow_id: {} for t in tenants}
        for endpoint in sorted(free):
            remaining = max(0, free[endpoint])
            unmet = {
                t.workflow_id: demands.get(t.workflow_id, {}).get(endpoint, 0)
                for t in tenants
            }
            while remaining > 0 and any(count > 0 for count in unmet.values()):
                active = {wid: w for wid, w in weights.items() if unmet[wid] > 0}
                deficit = {
                    wid: self._served.get(wid, 0) / weights[wid] for wid in active
                }
                shares = largest_remainder_split(
                    remaining, active, caps=unmet, tiebreak=deficit
                )
                granted_any = False
                for wid in sorted(active):
                    granted = min(shares.get(wid, 0), unmet[wid])
                    if granted <= 0:
                        continue
                    allocation[wid][endpoint] = allocation[wid].get(endpoint, 0) + granted
                    if record_service:
                        self._served[wid] = self._served.get(wid, 0) + granted
                        self.served_version += 1
                    unmet[wid] -= granted
                    remaining -= granted
                    granted_any = True
                if not granted_any:
                    break
        return allocation

    # --------------------------------------------------- vectorized fast path
    def _allocate_vectorized(
        self, free, demands, tenants, *, record_service: bool
    ) -> Allocation:
        """Deficit round-robin over tenant vectors.

        The same water-fill as the scalar path, with the per-round state —
        unmet demand, cumulative service, weights, deficits, quotas and
        largest-remainder fractions — held in arrays over the tenant
        dimension and updated with array ops.  Every floating-point quota is
        computed with the identical operation order as the scalar reference
        (including the sequential weight sum), so allocations — and therefore
        serving digests — are byte-identical.
        """
        n = len(tenants)
        wids = [t.workflow_id for t in tenants]
        allocation: Allocation = {wid: {} for wid in wids}
        if n == 0:
            return allocation
        weights = np.array([max(t.weight, 1e-9) for t in tenants], dtype=np.float64)
        served = np.array(
            [float(self._served.get(wid, 0)) for wid in wids], dtype=np.float64
        )
        # Rank of each tenant in sorted-workflow-id order: the final sort key
        # of the largest-remainder leftover pass.
        key_rank = np.empty(n, dtype=np.int64)
        key_rank[sorted(range(n), key=lambda i: wids[i])] = np.arange(n)

        for endpoint in sorted(free):
            remaining = max(0, free[endpoint])
            unmet = np.array(
                [demands.get(wid, {}).get(endpoint, 0) for wid in wids],
                dtype=np.int64,
            )
            while remaining > 0 and bool((unmet > 0).any()):
                elig = np.nonzero(unmet > 0)[0]
                caps = unmet[elig]
                total = min(remaining, int(caps.sum()))
                # Sequential (left-to-right) sum, matching the scalar path's
                # Python ``sum`` over the eligible weights byte-for-byte.
                weight_sum = float(sum(weights[elig].tolist()))
                quotas = total * weights[elig] / weight_sum
                floors = np.floor(quotas).astype(np.int64)
                shares = np.minimum(floors, caps)
                leftover = total - int(shares.sum())
                if leftover > 0:
                    frac = quotas - np.floor(quotas)
                    deficit = served[elig] / weights[elig]
                    # sorted(key=(-frac, deficit, wid)) — lexsort's primary
                    # key is the last array.
                    order = np.lexsort((key_rank[elig], deficit, -frac)).tolist()
                    while leftover > 0 and order:
                        for j in list(order):
                            if leftover <= 0:
                                break
                            if shares[j] >= caps[j]:
                                order.remove(j)
                                continue
                            shares[j] += 1
                            leftover -= 1
                granted_total = int(shares.sum())
                if granted_total <= 0:
                    break
                for pos, i in enumerate(elig):
                    granted = int(shares[pos])
                    if granted <= 0:
                        continue
                    wid = wids[i]
                    allocation[wid][endpoint] = (
                        allocation[wid].get(endpoint, 0) + granted
                    )
                unmet[elig] -= shares
                if record_service:
                    served[elig] += shares
                    self.served_version += 1
                remaining -= granted_total
        if record_service:
            for i, wid in enumerate(wids):
                if served[i] > 0.0:
                    self._served[wid] = int(served[i])
        return allocation


class ArbitrationSite:
    """One call site of a policy that reuses its last allocation when unchanged.

    Policies are deterministic in their inputs and their service state, so
    equal ``(free, demands, tenants)`` at an equal ``served_version`` give an
    equal allocation, and the site returns the previous one without calling
    :meth:`ArbitrationPolicy.allocate`.  A call that records service moves
    ``served_version``, so an allocation that granted recorded service is
    never reused.  Callers must not mutate the inputs or the allocation.
    """

    def __init__(self, policy: ArbitrationPolicy, *, record_service: bool = True) -> None:
        self.policy = policy
        self.record_service = record_service
        #: Calls that ran the policy, and calls answered by the last allocation.
        self.calls = 0
        self.skips = 0
        self._fingerprint: Optional[tuple] = None
        self._allocation: Allocation = {}

    def allocate(
        self,
        free: Mapping[str, int],
        demands: Mapping[str, Mapping[str, int]],
        tenants: Sequence[TenantShare],
    ) -> Allocation:
        fingerprint = (free, demands, tuple(tenants), self.policy.served_version)
        if fingerprint == self._fingerprint:
            self.skips += 1
            return self._allocation
        self.calls += 1
        self._allocation = self.policy.allocate(
            free, demands, tenants, record_service=self.record_service
        )
        self._fingerprint = fingerprint
        return self._allocation


ARBITRATION_POLICIES = ("fifo", "fair_share", "priority", "edf")


def create_arbitration(name: str, *, vectorized: bool = False) -> ArbitrationPolicy:
    """Instantiate an arbitration policy by its configuration name.

    ``vectorized`` selects the columnar serving path's array-based
    implementation where one exists (fair-share); allocations are identical
    either way.
    """
    key = name.lower()
    if key == "fifo":
        return FifoArbitration()
    if key in ("fair_share", "fair-share", "fairshare"):
        return FairShareArbitration(vectorized=vectorized)
    if key in ("priority", "strict_priority", "strict-priority"):
        return StrictPriorityArbitration()
    if key in ("edf", "deadline", "earliest_deadline_first"):
        return EdfArbitration()
    raise ValueError(
        f"unknown arbitration policy {name!r}; expected one of {ARBITRATION_POLICIES}"
    )
