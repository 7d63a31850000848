"""pintlab benchmark: four experiment workloads, run serially (``jobs=1``)
in a closed loop with one client, exactly as ``pint verify`` runs them.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pintlab is imported from ``src``.
Every experiment output is checked: all gate checks must pass, and at seed 0
the CSV must also match the tracked golden ``pint-out/<id>.csv`` (see
``golden.py``).  Other seeds change the random initial guesses of C3, C9
and C10, so they are checked by the gates alone.

``--trace 0`` runs one pass over the workload's experiments per fresh
process, until ``--seconds`` is used up (at least two passes), and reports
the end-to-end metrics, each as the median over the passes (at least five
samples for set-up):

- ``wall_s``: wall time of the pass (``run_experiment`` plus
  ``result_to_csv`` for each experiment), set-up excluded, no tracing.
- ``cpu_s``: process CPU time over the same interval, all threads.
- ``setup_s``: importing pintlab and running ``load_registry``.
- ``peak_rss_mb``: peak resident set of the process after its pass.

The three times are reported at a fixed host speed, because the shared
host's own speed swings by up to 2x within seconds: ``hostspeed.py``
probes it during each pass (and right after set-up) and scales the time
between probes accordingly.  The raw times are printed beside them.

The failure fraction is printed in the report and carried by the JSON
fields ``failed`` / ``attempted`` (experiment runs), since it is 0 when
all is well.

``--trace 1`` reports the per-layer metrics of ``layers.py`` from one
traced pass in its own process, after one untraced pass in another, whose
ratio gives ``trace_overhead_frac``.  When the time allows, a second traced
process must reproduce every call count exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from layers import unit as layer_unit  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
MIN_PASSES = 2
HARD_LIMIT_S = 170.0  # every run, traced or not, must end well within 180 s


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def run_worker(argv, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("time limit reached before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {' '.join(argv)} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {' '.join(argv)} exited with {proc.returncode}:\n"
                             f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"worker {' '.join(argv)} printed nothing")
    return json.loads(lines[-1])


def workload_argv(args, trace=False):
    argv = ["run", "--workload", args.workload, "--seed", str(args.seed)]
    return argv + ["--trace"] if trace else argv


def tail(values):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            return p, sorted(values)[math.ceil(p / 100 * n) - 1]
    return None


def count_signature(out):
    """Everything in a traced worker's output that must repeat exactly:
    the calls of every wrapped function and every work counter."""
    return {**{f"{name}.calls": row["calls"] for name, row in out["table"].items()},
            **out["counters"]}


def attempted_failed(outs):
    return sum(o["runs"] for o in outs), sum(o["failed"] for o in outs)


def print_failures(outs):
    for o in outs:
        for line in o["failures"]:
            print(f"FAIL {line}")


def measure(args, deadline):
    """Fresh worker processes, one pass each, while the next one is
    predicted to end within ``--seconds``."""
    outs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        outs.append(run_worker(workload_argv(args), deadline))
        now = time.monotonic()
        if len(outs) >= MIN_PASSES and now - start + (now - t0) > args.seconds:
            break
    setups = [{k: o[k] for k in ("setup_s", "adj_setup_s")} for o in outs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(["setup"], deadline))
    # metric -> (samples at the fixed host speed, raw samples)
    samples = {
        "wall_s": ([o["adj_wall_s"] for o in outs], [o["wall_s"] for o in outs]),
        "cpu_s": ([o["adj_cpu_s"] for o in outs], [o["cpu_s"] for o in outs]),
        "setup_s": ([s["adj_setup_s"] for s in setups], [s["setup_s"] for s in setups]),
        "peak_rss_mb": ([o["peak_rss_mb"] for o in outs],) * 2,
    }
    units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    attempted, failed = attempted_failed(outs)
    print(f"{len(outs)} passes of {outs[0]['runs']} experiment run(s), one process each; "
          "wall_s per pass (raw): " + " ".join(
              f"{a:.3f} ({r:.3f})" for a, r in zip(*samples["wall_s"])))
    print(f"{'metric':<12} {'unit':<5} {'median':>12}  {'raw median':>12}  {'tail':<22} samples")
    metrics = {}
    for name, (values, raw) in samples.items():
        med = statistics.median(values)
        t = tail(values)
        t_text = f"p{t[0]} {t[1]:.4f}" if t else "none (<40 samples)"
        print(f"{name:<12} {units[name]:<5} {med:>12.4f}  {statistics.median(raw):>12.4f}  "
              f"{t_text:<22} {len(values)}")
        metrics[name] = {"value": med, "unit": units[name]}
    print(f"{'fail_frac':<12} {'ratio':<5} {failed / attempted:>12.4f}  "
          f"{failed} of {attempted} experiment runs failed")
    print_failures(outs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def trace(args, deadline):
    plain = run_worker(workload_argv(args), deadline)
    traced = run_worker(workload_argv(args, trace=True), deadline)
    outs = [plain, traced]
    plain_wall, traced_wall = plain["wall_s"], traced["wall_s"]
    problems = [f"unwrapped binding after install: {b}" for b in traced["unwrapped"]]
    if plain_wall + 2 * traced_wall <= args.seconds:
        again = run_worker(workload_argv(args, trace=True), deadline)
        outs.append(again)
        first, second = count_signature(traced), count_signature(again)
        if first != second:
            diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
            problems.append(f"counts differ between two traced runs: {diff[:10]}")
        else:
            print("determinism: two traced processes gave identical counts")
    else:
        print("determinism: skipped, a second traced pass does not fit in --seconds")
    metrics = dict(traced["per_layer"])
    metrics["trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    table = traced["table"]
    print(f"traced pass {traced_wall:.3f} s, untraced pass {plain_wall:.3f} s")
    print(f"{'function':<48} {'calls':>9} {'s':>9} {'self_s':>9}")
    busiest = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:20]
    for name, row in busiest:
        print(f"{name:<48} {row['calls']:>9} {row['s']:>9.4f} {row['self_s']:>9.4f}")
    print(f"{'calling span -> span':<76} {'calls':>9} {'s':>9}")
    for parent, child, n, sec in sorted(traced["edges"], key=lambda e: -e[3])[:15]:
        print(f"{parent + ' -> ' + child:<76} {n:>9} {sec:>9.4f}")
    idle = sorted(name for name, row in table.items() if row["calls"] == 0)
    print(f"unmeasured on this workload ({len(idle)} wrapped functions with 0 calls): "
          + ", ".join(idle))
    attempted, failed = attempted_failed(outs)
    print_failures(outs)
    for p in problems:
        print(f"SELF-TEST FAIL {p}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "pintlab" / "__init__.py").is_file():
        print(f"error: no pintlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    print(f"pintlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} (jobs=1, closed loop, 1 client)")
    try:
        result = (trace if args.trace else measure)(args, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
