"""Run one scenario of a benchmark workload in this interpreter; print JSON.

``run.py`` starts a fresh interpreter per scenario, so the peak RSS is this
one run's high-water mark and no warm cache carries over between runs::

    python3 perfbench/child.py --workload zoo-array --seed 1 --spawned-at T --probe

``--spawned-at`` is the ``time.monotonic()`` reading the parent took just
before starting this process; set-up time runs from it to the first
``SimulationKernel.step`` call.  ``--trace`` wraps the layers' entry points
in spans (see ``layertrace.py``).

``--probe`` measures how fast the machine runs while the scenario runs and
reports times at a fixed reference speed.  A shared host's speed drifts by
a third or more within a minute, for the program as for any other code, so
raw seconds mostly measure the neighbours.  Every ``PROBE_INTERVAL_S`` of
run time, between two kernel steps, the probe times a fixed chunk of
interpreter work (no allocation, no program state).  The slowdown is the
chunk's mean time over ``REFERENCE_PROBE_S``; set-up and run seconds are
divided by it, and the probes' own time is left out of the run.  A slower
program still reads slower: only the machine's share of the time is
factored out.

The last line of standard output is one JSON object: ``setup_s`` and
``run_s`` (first kernel step until ``run_scenario`` returns), both at the
reference speed when probed, the raw ``wall_setup_s``, ``wall_run_s`` and
``slowdown``, ``rss_mb``, the scenario's canonical ``payload``, the task states
of every finished tenant engine, and the span report when traced.
"""

import os

# Pin the BLAS and OpenMP pools to one thread before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

#: Run time between two speed probes.
PROBE_INTERVAL_S = 0.005
#: Loop iterations of one probe chunk.
PROBE_ITERATIONS = 400
#: Time of one probe chunk on the reference machine (2-core Intel Xeon
#: at 2.1 GHz, median over its runs), the speed the reported times are at.
REFERENCE_PROBE_S = 1.2e-4


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = self.b = 0


_SLOTS = [_Slot() for _ in range(64)]
_TABLE = dict.fromkeys(range(256), 0)


def probe_chunk() -> None:
    """Fixed interpreter work: attribute, dict and integer operations on
    preallocated objects, so the collector and the program never see it."""
    slots, table = _SLOTS, _TABLE
    for i in range(PROBE_ITERATIONS):
        slot = slots[i & 63]
        slot.a = i
        slot.b = slot.a + table[i & 255]
        table[i & 255] = slot.b & 1023


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", default="default")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not from {SRC}")

    import workloads
    from repro.engine.core import ExecutionEngine
    from repro.scenarios import run_scenario
    from repro.sim.kernel import SimulationKernel

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    # Task states per tenant engine, taken when the engine finishes (a
    # streaming tenant's graph is released right after, at retirement).
    tenants = []
    finalize = ExecutionEngine.finalize

    def audited_finalize(engine):
        finalize(engine)
        tenants.append({"states": engine.graph.counts(), "tasks": len(engine.graph)})

    ExecutionEngine.finalize = audited_finalize

    # Installed after the tracer, so probes run outside every span.
    marks = {"probes": 0, "probe_s": 0.0}
    step = SimulationKernel.step
    clock = time.perf_counter

    def first_step(kernel):
        marks["first_step"] = time.monotonic()
        marks["next_probe"] = clock() + PROBE_INTERVAL_S
        SimulationKernel.step = probed_step if args.probe else step
        return step(kernel)

    def probed_step(kernel):
        now = clock()
        if now >= marks["next_probe"]:
            probe_chunk()
            done = clock()
            marks["probes"] += 1
            marks["probe_s"] += done - now
            marks["next_probe"] = done + PROBE_INTERVAL_S
        return step(kernel)

    SimulationKernel.step = first_step

    spec = workloads.build(args.workload, args.seed, args.mode)
    result = run_scenario(spec, max_wall_time_s=170.0)
    end = time.monotonic()
    SimulationKernel.step = step
    if "first_step" not in marks:
        raise SystemExit("the scenario finished without stepping the kernel")

    wall_setup = marks["first_step"] - args.spawned_at
    wall_run = end - marks["first_step"] - marks["probe_s"]
    slowdown = 1.0
    if marks["probes"]:
        slowdown = marks["probe_s"] / marks["probes"] / REFERENCE_PROBE_S
    out = {
        "setup_s": wall_setup / slowdown,
        "run_s": wall_run / slowdown,
        "wall_setup_s": wall_setup,
        "wall_run_s": wall_run,
        "slowdown": slowdown,
        "probes": marks["probes"],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "payload": result.to_json(),
        "tenants": tenants,
    }
    if tracer is not None:
        out["trace"] = tracer.report()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
