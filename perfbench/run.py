#!/usr/bin/env python3
"""typefuse product benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a typefuse checkout. Builds the shipped `typefuse`
binary and the benchmark harness in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), generates the workload's input from the seed,
runs the workload for S seconds and checks every output against the
reference. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {NAME: {"value": ..., "unit": ...}}}

With `--trace 0` the metrics are the end-to-end ones (`END_TO_END`); with
`--trace 1` the per-layer ones (`traced.PER_LAYER`). A readable summary,
with the tail percentile and sample counts, goes to stderr. See
perfbench/README.md for the workloads and what each metric should move.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402

import measure  # noqa: E402
import system  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
# The timing bounds are wide because the machine they were set on drifts
# by up to 20% over tens of seconds (README.md, "Bounds and noise").
END_TO_END = [
    ("mb_per_s", "MB/s", "higher", 0.25),
    ("cpu_s_per_gb", "s/GB", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("success_ratio", "ratio", "higher", 0.01),
    ("visible_p50_ms", "ms", "lower", 0.25),
    ("visible_tail_ms", "ms", "lower", 0.25),
]
# Cached inputs kept per build; older entries are deleted.
CACHE_ENTRIES = 8
CACHE_BUILDS = 2


def prune(directory, keep):
    entries = sorted((os.path.join(directory, e) for e in os.listdir(directory)),
                     key=os.path.getmtime, reverse=True)
    for stale in entries[keep:]:
        shutil.rmtree(stale, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind so every daemon and child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    system.check_checkout(root)
    w = workloads.WORKLOADS[args.workload]
    bins = system.build(root)
    # Batch commands get one worker per available core, at most four.
    workers = max(1, min(len(os.sched_getaffinity(0)), 4))
    cache = os.path.join(root, ".perfbench-cache")
    builds = os.path.join(cache, "inputs")
    cache_root = os.path.join(builds, workloads.cache_key(bins))
    work = os.path.join(cache, f"work-{os.getpid()}")
    os.makedirs(cache_root, exist_ok=True)
    os.utime(cache_root)
    try:
        setups = 1 if args.trace else workloads.SETUPS
        inputs, setup_times = workloads.set_up(w, bins, args.seed, args.seconds, cache_root, work, setups)
        os.makedirs(work, exist_ok=True)
        if args.trace:
            metrics, tally, details = traced.run_traced(w, bins, inputs, work, workers)
            units = {name: unit for name, unit, _ in traced.PER_LAYER}
        else:
            if w.route == "serve":
                metrics, tally, details = workloads.run_serve(w, bins, inputs, work)
                # The daemon's launch, until its first answered health,
                # is set-up too.
                launch_s = measure.median(details["launch_s"])
            else:
                metrics, tally, details = workloads.run_batch(w, bins, inputs, work, workers, args.seconds)
                launch_s = 0.0
            metrics["setup_s"] = measure.median(setup_times) + launch_s
            metrics["success_ratio"] = tally.success_ratio()
            details["setup_s"] = setup_times
            units = {name: unit for name, unit, _, _ in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        prune(cache_root, CACHE_ENTRIES)
        prune(builds, CACHE_BUILDS)

    details["workers"] = workers
    details["failed_ratio"] = tally.failed_ratio()
    print(f"perfbench: {w.name} seed {args.seed}, {args.seconds} s, trace {args.trace}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:36} {metrics[name]:14.6g} {unit}", file=sys.stderr)
    for key, value in details.items():
        print(f"  ({key}: {value})", file=sys.stderr)
    for reason in tally.failures[:10]:
        print(f"perfbench: FAILED: {reason}", file=sys.stderr)
    verdict = "correct" if tally.failed == 0 else "INCORRECT"
    print(f"perfbench: {verdict}: {tally.attempted} operations, {tally.failed} failed", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
