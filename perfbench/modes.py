"""Side report: one workload in the default mode next to an alternative mode.

Not part of the gated benchmark.  It runs a workload under ``no-columnar``,
``no-vector`` or ``no-placement`` and prints its throughput and layer trace
beside the default run's, the numbers that decide which of each layer's two
implementations to keep::

    python3 perfbench/modes.py --workload zoo-mixed --mode no-columnar --seed 1

Each mode gets one untraced and one traced scenario (more while
``--seconds`` allows), in fresh interpreters, with the same checks as the
benchmark.  The report also says whether the two modes reached the same
determinism digest.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from run import INSTANCES, BenchmarkError, audit, measure, per_layer

#: Engine modes with a second implementation of a layer (see workloads.build).
ALTERNATIVES = ("no-columnar", "no-vector", "no-placement")


def profile(workload: str, seed: int, seconds: float, mode: str):
    runs = measure(workload, seed, seconds, mode, traced=True, started=time.monotonic())
    checked = audit(workload, runs)
    (instance,) = checked.values()
    completed = instance["payload"]["metrics"]["completed_tasks"]
    layers = per_layer(runs, checked)
    layers["tasks_per_s"] = statistics.median(
        completed / r["run_s"] for r in runs if not r["traced"])
    return instance["payload"]["determinism_digest"], layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INSTANCES))
    parser.add_argument("--mode", required=True, choices=ALTERNATIVES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measuring time per mode (default: one run pair)")
    args = parser.parse_args()
    try:
        base_digest, base = profile(args.workload, args.seed, args.seconds, "default")
        alt_digest, alt = profile(args.workload, args.seed, args.seconds, args.mode)
    except BenchmarkError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1

    print(f"{args.workload} seed={args.seed}: default vs {args.mode}; digests "
          f"{'equal' if base_digest == alt_digest else 'differ'}")
    print(f"  {'metric':44s} {'default':>14s} {args.mode:>14s} {'ratio':>8s}")
    for name in ["tasks_per_s", "trace.overhead_frac", "engine.pumps"] + sorted(
        name for name in base if name.endswith((".calls", ".self_s"))
    ):
        if not (base[name] or alt[name]):
            continue
        ratio = f"{alt[name] / base[name]:8.3f}" if base[name] else f"{'-':>8s}"
        print(f"  {name:44s} {base[name]:14.6f} {alt[name]:14.6f} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
