"""Self-test of the benchmark's tracing, across all workloads.

    python3 perfbench/selftest.py [--seed N]

For each workload it runs two traced passes, each in its own process, and
fails unless:

- every pass's outputs are correct (gates, and goldens at seed 0);
- no pintlab binding site still holds an unwrapped original after install;
- the two processes report identical call counts and work counters;
- the metric names in BENCHMARK.json match what the benchmark prints.

It also lists the wrapped functions that no workload calls: a change to one
of them needs a new workload before it can claim a gain.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import ROOT, count_signature, run_worker
from worker import WORKLOADS

END_TO_END = {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    idle = None
    per_layer_names = None
    for workload in WORKLOADS:
        argv = ["run", "--workload", workload, "--seed", str(args.seed), "--trace"]
        deadline = time.monotonic() + 300
        first, second = run_worker(argv, deadline), run_worker(argv, deadline)
        for out in (first, second):
            problems += [f"{workload}: {line}" for line in out["failures"]]
            problems += [f"{workload}: unwrapped binding {b}" for b in out["unwrapped"]]
        same = count_signature(first) == count_signature(second)
        if not same:
            problems.append(f"{workload}: counts differ between two traced processes")
        zero = {name for name, row in first["table"].items() if row["calls"] == 0}
        idle = zero if idle is None else idle & zero
        per_layer_names = set(first["per_layer"]) | {"trace_overhead_frac"}
        print(f"{workload}: {first['wall_s']:.2f} s traced, "
              f"{len(first['table'])} functions, counts "
              f"{'identical' if same else 'DIFFER'}, "
              f"{sum(1 for r in first['table'].values() if r['calls'])} called")
    if {m["name"] for m in spec["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end names differ from the benchmark's")
    if {m["name"] for m in spec["per_layer"]} != per_layer_names:
        problems.append("BENCHMARK.json per_layer names differ from layers.py")
    print(f"unmeasured on every workload ({len(idle)}): " + ", ".join(sorted(idle)))
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
