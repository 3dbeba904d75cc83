"""The repository benchmark: end-to-end and per-layer metrics of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zoo-mixed --seed 1 --seconds 30 --trace 0

The workloads are defined in ``workloads.py`` and described, with the reason
each was chosen, in ``BENCHMARK.json`` and ``README.md``.  Every scenario
runs in a fresh interpreter (``child.py``), one at a time, so this process
only waits.  ``--seed`` determines the scenario seeds of the run.

``--trace 0`` runs each scenario seed once, and more runs while
``--seconds`` allows, with the speed probe of ``child.py`` on: set-up and
run seconds are at a fixed reference speed, so the host's drifting speed
does not show in them.  It reports the end-to-end metrics: the timed ones
as medians over the runs, the simulated-time ones pooled over the scenario
seeds.

``--trace 1`` alternates untraced and traced runs of the first scenario seed
and reports the per-layer metrics of ``layertrace.py``, plus the tracing
overhead.

Each run's outputs are checked (see :func:`audit`); a failed check prints
the result with ``"correct": false`` and exits with code 1.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scenario seeds per run, derived from ``--seed``: the simulated-time
#: metrics are taken over them (see :func:`end_to_end`).  One crash or
#: stream realisation varies too much from seed to seed to be compared
#: alone; zoo-mixed and zoo-array do not depend on the seed.
INSTANCES = {"zoo-mixed": 1, "zoo-array": 1, "hot-data": 3, "stream-45": 2}
#: Hard limit on one invocation's wall time; a run must end within 180 s.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "tasks_per_s": "tasks/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_makespan_s": "sim_s",
    "bytes_moved_mb": "MB",
    "completed_frac": "ratio",
    "response_mean_s": "sim_s",
    "deadline_met_frac": "ratio",
}


class BenchmarkError(Exception):
    """A scenario run failed or its outputs did not pass the checks."""


def spawn(workload: str, seed: int, mode: str, *, trace: bool = False,
          probe: bool = False, timeout: float = RUN_LIMIT_S) -> dict:
    """Run ``child.py`` in a fresh interpreter; return its JSON record."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if trace:
        cmd.append("--trace")
    if probe:
        cmd.append("--probe")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} run exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise BenchmarkError(f"{workload} run exited with {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scenario_seeds(workload: str, seed: int) -> List[int]:
    """The scenario seeds of one run: ``INSTANCES[workload]`` of them."""
    count = INSTANCES[workload]
    return [seed * count + k for k in range(count)]


def measure(workload: str, seed: int, seconds: float, mode: str, *, traced: bool,
            started: float) -> List[dict]:
    """Run scenarios for ``seconds``; return the runs.

    Untraced: one probed run of every scenario seed, then more, cycling
    through the seeds, while time allows.  Traced: pairs of an untraced and
    a traced run of the first scenario seed, unprobed, so that no probe
    time lands in a span.  A run starts only while it is expected to end
    within ``seconds``.
    """
    limit = started + RUN_LIMIT_S
    seeds = scenario_seeds(workload, seed)
    runs: List[dict] = []
    longest = 0.0
    while True:
        round_start = time.monotonic()
        for trace in (False, True) if traced else (False,):
            scenario_seed = seeds[0] if traced else seeds[len(runs) % len(seeds)]
            run = spawn(workload, scenario_seed, mode, trace=trace, probe=not traced,
                        timeout=limit - time.monotonic())
            runs.append(dict(run, seed=scenario_seed, traced=trace))
        longest = max(longest, time.monotonic() - round_start)
        done = traced or len(runs) >= len(seeds)
        if done and time.monotonic() + longest > min(started + seconds, limit):
            return runs


def audit(workload: str, runs: List[dict]) -> Dict[int, dict]:
    """Check every run's outputs; per scenario seed, what the metrics need.

    * every run of one scenario seed, traced or not, gives the same
      canonical scenario payload (determinism digest and every
      simulated-time metric), and every traced run the same span counts:
      counts must not depend on wall time;
    * every task of every finished tenant engine is terminal, the engines
      account for every task the scenario reports, and every admitted
      tenant finished;
    * streaming: arrivals = admitted + rejected + abandoned;
    * the workload's declared dynamics fired: churn on ``zoo-mixed``, the
      endpoint crash on ``hot-data``.
    """
    checked: Dict[int, dict] = {}
    for seed in dict.fromkeys(run["seed"] for run in runs):
        group = [run for run in runs if run["seed"] == seed]
        if len({run["payload"] for run in group}) != 1:
            raise BenchmarkError(f"{workload}: runs of seed {seed} gave different results")
        counts = {
            json.dumps({k: v for k, v in run["trace"].items()
                        if k.endswith((".calls", ".outcome"))}, sort_keys=True)
            for run in group if run["traced"]
        }
        if len(counts) > 1:
            raise BenchmarkError(f"{workload}: traced runs of seed {seed} differ in span counts")
        checked[seed] = audit_instance(f"{workload} seed {seed}", group[0])
        if workload == "zoo-mixed" and "churn" not in checked[seed]["fired"]:
            raise BenchmarkError(f"{workload} seed {seed}: no worker churn fired")
        if workload == "hot-data" and checked[seed]["payload"]["metrics"]["endpoint_crashes"] < 1:
            raise BenchmarkError(f"{workload} seed {seed}: the scripted endpoint crash did not fire")
    return checked


def audit_instance(label: str, run: dict) -> dict:
    """Conservation checks on one scenario run; its simulated-time metrics."""
    payload = json.loads(run["payload"])
    metrics = payload["metrics"]
    tenants = run["tenants"]
    states: Dict[str, int] = {}
    for tenant in tenants:
        for state, count in tenant["states"].items():
            states[state] = states.get(state, 0) + count
    total = sum(tenant["tasks"] for tenant in tenants)
    completed = states.get("completed", 0)
    failed = states.get("failed", 0) + states.get("cancelled", 0)
    if completed + failed != total:
        raise BenchmarkError(f"{label}: non-terminal tasks at the end: {states}")
    if total != metrics["total_tasks"] or completed != metrics["completed_tasks"]:
        raise BenchmarkError(
            f"{label}: engines hold {total} tasks, {completed} completed; the result "
            f"reports {metrics['total_tasks']}, {metrics['completed_tasks']}")

    stream = payload.get("streaming", {})
    if stream:
        refused = stream["rejected"] + stream["abandoned"]
        if stream["arrivals"] != stream["admitted"] + refused:
            raise BenchmarkError(f"{label}: arrivals do not add up: {stream}")
        if not stream["admitted"] == stream["completed"] == stream["retired"] == len(tenants):
            raise BenchmarkError(f"{label}: not every admitted tenant finished: {stream}")
        workflows = stream["arrivals"]
        tenant_tasks = {tenant["tasks"] for tenant in tenants}
        if len(tenant_tasks) != 1:
            raise BenchmarkError(f"{label}: tenants differ in size: {sorted(tenant_tasks)}")
        refused_tasks = refused * tenant_tasks.pop()
        missed = stream["deadline_misses"] + refused
        responses = stream["completed"]
        response_sum = stream["wait_mean_s"] * responses
        response_p95 = stream["wait_p95_s"]
    else:
        refused = refused_tasks = missed = 0
        workflows = payload.get("serving", {}).get("workflow_count", 1)
        if len(tenants) != workflows:
            raise BenchmarkError(f"{label}: {len(tenants)} of {workflows} workflows finished")
        if "serving" in payload:
            times = [wf["makespan_s"] for wf in payload["serving"]["workflows"].values()]
        else:
            times = [metrics["makespan_s"]]
        responses, response_sum = len(times), sum(times)
        response_p95 = percentile(times, 0.95)

    attempted_tasks = total + refused_tasks
    return {
        "payload": payload,
        "fired": [event["action"] for event in payload["dynamics"]["fired"]],
        "workflows": workflows,
        "refused": refused,
        "failed_frac": (failed + refused_tasks) / attempted_tasks,
        "deadline_miss_frac": missed / workflows,
        "response_p95_s": response_p95,
        "sim": {
            "sim_makespan_s": metrics["makespan_s"],
            "bytes_moved_mb": metrics["bytes_moved_mb"],
            "completed_frac": completed / attempted_tasks,
            "response_mean_s": response_sum / responses,
            "deadline_met_frac": 1.0 - missed / workflows,
        },
        # Sums that end_to_end() pools over the streams of a run.
        "pooled": {
            "makespan_s": metrics["makespan_s"],
            "bytes_moved_mb": metrics["bytes_moved_mb"],
            "completed": completed,
            "attempted_tasks": attempted_tasks,
            "response_sum": response_sum,
            "responses": responses,
            "missed": missed,
            "workflows": workflows,
        },
    }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, the definition the program's reports use."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def end_to_end(runs: List[dict], checked: Dict[int, dict]) -> Dict[str, float]:
    """Timed metrics from medians over the runs; simulated-time ones over
    the scenario seeds.

    A batch scenario is one whole workflow run, and a rare seed can flip an
    outcome (hot-data moves 1824 MB on most seeds, 1632 MB on a few), so
    batches take the median over the seeds.  The streams of a run
    together are one longer stream, whose outcomes vary with a long tail
    from stream to stream, so streams are pooled: mean makespan and bytes,
    ratios of summed counts.
    """
    pooled = {name: sum(instance["pooled"][name] for instance in checked.values())
              for name in next(iter(checked.values()))["pooled"]}
    # Throughput over one pass of the scenario seeds, each timed by the
    # median of its runs.
    run_s = {seed: statistics.median(r["run_s"] for r in runs if r["seed"] == seed)
             for seed in checked}
    out = {
        "tasks_per_s": pooled["completed"] / sum(run_s.values()),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
    }
    if "streaming" in next(iter(checked.values()))["payload"]:
        out.update({
            "sim_makespan_s": pooled["makespan_s"] / len(checked),
            "bytes_moved_mb": pooled["bytes_moved_mb"] / len(checked),
            "completed_frac": pooled["completed"] / pooled["attempted_tasks"],
            "response_mean_s": pooled["response_sum"] / pooled["responses"],
            "deadline_met_frac": 1.0 - pooled["missed"] / pooled["workflows"],
        })
    else:
        for name in END_TO_END_UNITS.keys() - out.keys():
            out[name] = statistics.median(instance["sim"][name] for instance in checked.values())
    return {name: out[name] for name in END_TO_END_UNITS}


def per_layer(runs: List[dict], checked: Dict[int, dict]) -> Dict[str, float]:
    """Span metrics of the traced runs (all of one scenario seed)."""
    from layertrace import span_names

    traced = [r["trace"] for r in runs if r["traced"]]
    first = traced[0]
    out: Dict[str, float] = {}
    for name in span_names():
        out[f"{name}.calls"] = first[f"{name}.calls"]
        for part in ("s", "self_s"):
            out[f"{name}.{part}"] = statistics.median(t[f"{name}.{part}"] for t in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    pumps = first["faas.fabric.process.calls"]
    out["engine.pumps"] = pumps
    out["serving.arbitration.calls_per_pump"] = ratio(
        first["serving.arbitration.allocate.calls"], pumps)
    out["engine.drain_growth.useful_frac"] = ratio(
        first["engine.drain_growth.outcome"], first["engine.drain_growth.calls"])
    out["placement.resolve_frac"] = ratio(
        first["placement.resolve.calls"], first["placement.maybe_resolve.calls"])
    out["dataplane.prefetch.accepted_frac"] = ratio(
        first["dataplane.prefetch.outcome"], first["dataplane.prefetch.calls"])
    out["sched.us_per_placement"] = 1e6 * ratio(
        out["sched.schedule.s"], first["sched.schedule.outcome"])
    stats = checked[runs[0]["seed"]]["payload"]["dataplane"]
    out["dataplane.evictions"] = stats.get("evictions", 0)
    out["dataplane.cache_hit_rate"] = stats.get("cache_hit_rate", 0.0)
    out["dataplane.prefetch_usefulness"] = stats.get("prefetch_usefulness", 0.0)
    out["trace.overhead_frac"] = (
        statistics.median(r["run_s"] for r in runs if r["traced"])
        / statistics.median(r["run_s"] for r in runs if not r["traced"]) - 1.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(INSTANCES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        runs = measure(args.workload, args.seed, args.seconds, "default",
                       traced=bool(args.trace), started=started)
        checked = audit(args.workload, runs)
        if args.trace:
            values = per_layer(runs, checked)
            units = {name: layer_unit(name) for name in values}
        else:
            values = end_to_end(runs, checked)
            units = END_TO_END_UNITS
    except BenchmarkError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    print(f"{args.workload} seed={args.seed}: {len(runs)} runs; wall s / machine slowdown: "
          + ", ".join(f"{r['wall_run_s']:.2f}/{r['slowdown']:.2f}" for r in runs))
    for seed, instance in checked.items():
        wait_p95 = instance["payload"].get("serving", {}).get("wait_p95_s")
        print(f"  scenario seed {seed}: digest {instance['payload']['determinism_digest'][:16]} "
              f"failed_frac {instance['failed_frac']:.6f} "
              f"deadline_miss_frac {instance['deadline_miss_frac']:.6f} "
              + (f"tenant_wait_p95_s {wait_p95:.6f} " if wait_p95 is not None else "")
              + f"response_p95_s {instance['response_p95_s']:.6f} "
              + " ".join(f"{k} {v:.6f}" for k, v in instance["sim"].items()))
    for name, value in values.items():
        print(f"  {name:44s} {value:16.6f} {units[name]}")
    result = {
        "correct": True,
        "attempted": sum(checked[r["seed"]]["workflows"] for r in runs),
        "failed": sum(checked[r["seed"]]["refused"] for r in runs),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("engine.pumps", "dataplane.evictions"):
        return "count"
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name == "sched.us_per_placement":
        return "us"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
