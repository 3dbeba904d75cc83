"""The benchmark's four workloads, built from the public scenario API.

Each workload is a :class:`repro.scenarios.ScenarioSpec` whose seed is the
benchmark's ``--seed``; nothing else about the inputs is random.  Why each
one is in the set is recorded in ``BENCHMARK.json``; in short:

* ``zoo-mixed``  -- two fair-share tenants of the authored zoo under churn:
  serving pump and arbitration, authoring growth, DHA priority recompute.
* ``zoo-array``  -- one 12k-wide authored array, no serving layer and almost
  no data movement: engine core, bus, kernel and vector DHA.
* ``hot-data``   -- the hot-dataset shape scaled up: data plane (replica
  admission and eviction), transfer prediction and the placement plan, with
  an endpoint crash and rejoin that land well inside the run.
* ``stream-45``  -- open-loop Poisson tenant arrivals at 45% of worker
  capacity: admission, EDF arbitration and retirement churn.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict

from repro.scenarios import ScenarioSpec, TimelineEvent, WorkloadSpec, get_scenario
from repro.streaming.spec import StreamingSpec

#: Array width of each zoo-mixed tenant.  The preset uses 10k; at that size
#: one scenario takes about 27 s on a 2-core machine, so a benchmark run
#: could time it only once.  At 2000 a scenario takes about 5 s.
ZOO_MIXED_ARRAY = 2000

#: Worker churn of zoo-mixed, at fixed times on all three endpoints, in
#: place of the preset's stochastic churn.  With stochastic churn the
#: outcome depends on where the churn happens to land: about one seed in
#: five moves 20 MB instead of 8 MB (9 of 50 seeds), the makespan ranges
#: 26-40 s, and even the median over seven seeds flipped to 20 MB in 2 of
#: 10 runs.  A fixed timeline churns in every run, and leaves zoo-mixed,
#: like zoo-array, independent of the seed.
ZOO_MIXED_CHURN = (
    TimelineEvent(at_s=8.0, action="churn", endpoint="qiming", value=-4.0),
    TimelineEvent(at_s=16.0, action="churn", endpoint="lab", value=4.0),
    TimelineEvent(at_s=20.0, action="churn", endpoint="taiyi", value=-6.0),
    TimelineEvent(at_s=26.0, action="churn", endpoint="qiming", value=4.0),
    TimelineEvent(at_s=32.0, action="churn", endpoint="taiyi", value=6.0),
)

#: Offered load of the stream, as a share of the federation's workers.  DHA
#: sends most tasks to taiyi, so the trio saturates well below its nominal
#: capacity: at 85% whether the admission queue pegs depends on the seed
#: (response p95 9-54 s over eight seeds), and even at 55% about one
#: 400-tenant stream in eight has a congestion episode in which tenants of
#: the loosest SLO class wait 40 s.  At 45% the response time repeats across
#: seeds and a tight SLO still misses now and then.
STREAM_LOAD = 0.45
#: Arrivals per stream.  Data movement builds up as a stream runs: at 45%
#: load the first 100 arrivals move 127 MB on average, 200 move 421 MB and
#: 600 move 1517 MB, and the seed-to-seed variation of bytes moved falls
#: from 0.53 to 0.23 to 0.08 (standard deviation / mean over 60, 70 and 20
#: seeds).  So a run takes two long streams rather than many short ones.
STREAM_ARRIVALS = 600
STREAM_TENANT = WorkloadSpec(
    kind="layered", task_count=8, duration_s=2.0, output_mb=2.0, layer_width=4
)


def _zoo_mixed() -> ScenarioSpec:
    spec = get_scenario("zoo-mixed")
    return dataclasses.replace(
        spec,
        workload=dataclasses.replace(spec.workload, task_count=ZOO_MIXED_ARRAY),
        dynamics=dataclasses.replace(spec.dynamics, churn=None, scripted=ZOO_MIXED_CHURN),
    )


def _zoo_array() -> ScenarioSpec:
    return get_scenario("zoo-array")


def _hot_data() -> ScenarioSpec:
    spec = get_scenario("hot-dataset")
    workload = dataclasses.replace(spec.workload, task_count=2400, shared_files=12)
    return dataclasses.replace(spec, name="hot-data", workload=workload)


def _stream_45() -> ScenarioSpec:
    topology = get_scenario("stream-steady").topology
    workers = sum(endpoint.workers for endpoint in topology)
    core_seconds = STREAM_TENANT.task_count * STREAM_TENANT.duration_s
    return ScenarioSpec(
        name="stream-45",
        description="Open-loop Poisson tenants at 45% of worker capacity",
        workload=STREAM_TENANT,
        topology=topology,
        scheduler="DHA",
        arbitration="edf",
        streaming=StreamingSpec(
            mean_interarrival_s=core_seconds / (STREAM_LOAD * workers),
            max_arrivals=STREAM_ARRIVALS,
            queue_limit=32,
            max_active=24,
            slo_choices=(6.0, 12.0, 48.0),
            patience_s=120.0,
            window_s=60.0,
        ),
    )


WORKLOADS: Dict[str, Callable[[], ScenarioSpec]] = {
    "zoo-mixed": _zoo_mixed,
    "zoo-array": _zoo_array,
    "hot-data": _hot_data,
    "stream-45": _stream_45,
}


def build(name: str, seed: int, mode: str = "default") -> ScenarioSpec:
    """The scenario of workload ``name`` for ``seed``, in engine ``mode``."""
    spec = WORKLOADS[name]().with_overrides(seed=seed)
    if mode == "no-columnar":
        spec = spec.with_overrides(columnar=False)
    elif mode == "no-vector":
        spec = spec.with_overrides(vectorized=False)
    elif mode == "no-placement":
        spec = spec.with_overrides(placement=False)
    elif mode != "default":
        raise ValueError(f"unknown mode {mode!r}")
    return spec
