"""Operation counts of the serving pump on a reduced zoo-mixed run.

The counts below do not depend on the machine, so they are gated exactly.
The digest, the number of arbitration rounds and the number of transfer
predictions asked for were taken from the code before the pump reused
unchanged allocations and the profilers memoized their predictions: both
are pure reuse, so the run must be byte-identical and ask the same questions,
while answering most of them without running the policy or the model.
"""

import dataclasses

import pytest

from repro.profiling.transfer import TransferProfiler
from repro.scenarios import TimelineEvent, get_scenario, run_scenario
from repro.serving.arbitration import FairShareArbitration
from repro.serving.manager import WorkflowManager

#: zoo-mixed with arrays of 200 (two tenants, 420 tasks) and worker churn at
#: fixed times, all inside the ~21 s makespan.
CHURN = (
    TimelineEvent(at_s=3.0, action="churn", endpoint="qiming", value=-4.0),
    TimelineEvent(at_s=6.0, action="churn", endpoint="lab", value=4.0),
    TimelineEvent(at_s=10.0, action="churn", endpoint="taiyi", value=-6.0),
    TimelineEvent(at_s=13.0, action="churn", endpoint="qiming", value=4.0),
    TimelineEvent(at_s=16.0, action="churn", endpoint="taiyi", value=6.0),
)
DIGEST = "a7c3b7bad6487f6a66eb7c6b120049db8aaafedf991ba3798c77679273615d84"
#: ``policy.allocate`` calls and ``predict_transfer_time`` calls of the run
#: before reuse: every one is now either run or answered from reuse.
ARBITRATION_ROUNDS = 2091
TRANSFER_PREDICTIONS = 8050


def reduced_zoo_mixed(columnar: bool):
    spec = get_scenario("zoo-mixed")
    spec = dataclasses.replace(
        spec,
        workload=dataclasses.replace(spec.workload, task_count=200),
        dynamics=dataclasses.replace(spec.dynamics, churn=None, scripted=CHURN),
    )
    return spec.with_overrides(columnar=columnar)


@pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "object"])
def test_reuse_keeps_the_run_and_skips_most_work(monkeypatch, columnar):
    managers = []
    counts = {"allocate": 0, "predict": 0}
    run = WorkflowManager.run
    allocate = FairShareArbitration.allocate
    predict = TransferProfiler.predict_transfer_time

    def recording_run(self, *args, **kwargs):
        managers.append(self)
        return run(self, *args, **kwargs)

    def counting_allocate(self, *args, **kwargs):
        counts["allocate"] += 1
        return allocate(self, *args, **kwargs)

    def counting_predict(self, *args, **kwargs):
        counts["predict"] += 1
        return predict(self, *args, **kwargs)

    monkeypatch.setattr(WorkflowManager, "run", recording_run)
    monkeypatch.setattr(FairShareArbitration, "allocate", counting_allocate)
    monkeypatch.setattr(TransferProfiler, "predict_transfer_time", counting_predict)

    result = run_scenario(reduced_zoo_mixed(columnar))

    assert result.determinism_digest == DIGEST
    assert len(result.dynamics_fired) == len(CHURN)
    (manager,) = managers
    calls, skips = manager.arbitration_calls, manager.arbitration_skips
    assert calls == counts["allocate"]
    assert calls + skips == ARBITRATION_ROUNDS
    assert skips >= 0.5 * ARBITRATION_ROUNDS
    assert counts["predict"] == TRANSFER_PREDICTIONS
    assert manager.transfer_profiler.model_evaluations <= 0.05 * TRANSFER_PREDICTIONS
    assert manager.execution_profiler.output_evaluations > 0
