"""One benchmark process: import pintlab from the checkout's ``src``, run
a workload's experiments once, serially (``jobs=1``), as ``pint verify``
does, check every output, and print one JSON line with the measurements.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py run --workload W --seed S [--trace]

Every pass runs in a fresh process because every ``pint`` invocation does:
import costs, first-call costs and anything a change caches at module
level are paid again in each sample.  ``setup`` only times importing
pintlab and loading the experiment registry.  With ``--trace`` the pass
runs under the outside-in tracer; otherwise it runs under ``HostSpeed``
(see ``hostspeed.py``), which reports its times both raw and at a fixed
host speed.  ``hostspeed`` is imported only after set-up is timed, since it
imports numpy, which set-up must pay for.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from golden import compare
from layers import per_layer
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

# Workload -> experiment ids; None means every experiment not named by
# another workload, in registry order.
WORKLOADS = {
    "c14-diag-variants": ["parareal-diag-variants"],
    "c9-swr-ad": ["swr-ad-iterations"],
    "c8-paraexp": ["paraexp-exactness"],
    "rest-suite": None,
}


def import_pintlab():
    src = ROOT / "src"
    if not (src / "pintlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no pintlab sources under {src}")
    sys.path.insert(0, str(src))
    import pintlab
    from pintlab import experiments

    if Path(pintlab.__file__).resolve().parent != (src / "pintlab").resolve():
        raise SystemExit(f"error: imported pintlab from {pintlab.__file__}, not {src}")
    return experiments


def experiment_ids(workload, registry):
    ids = WORKLOADS[workload]
    if ids is None:
        named = {i for v in WORKLOADS.values() if v for i in v}
        ids = [k for k in registry if k not in named]
    return ids


def check(spec_id, checks, csv_text, seed):
    """Problems with one experiment's output: failed gate checks, and at
    seed 0 any mismatch against the tracked golden CSV."""
    problems = [f"gate {name}: {detail}" for name, ok, detail in checks if not ok]
    if seed == 0:
        golden = (ROOT / "pint-out" / f"{spec_id}.csv").read_text(encoding="utf-8")
        problems += [f"golden {p}" for p in compare(csv_text, golden)[:5]]
    return problems


def run_pass(experiments, specs, seed, tracer):
    """Run every spec once as `pint verify` does, timing the run and the CSV
    rendering.  Returns the times and, per experiment, its gate checks and
    CSV text, or the traceback if it raised.  Untraced, the times are those
    of ``HostSpeed``: raw and adjusted; traced, raw only."""
    outputs = {}

    def body():
        for spec in specs:
            try:
                if tracer is None:
                    result = experiments.run_experiment(spec, seed=seed, jobs=1)
                else:
                    result = tracer.span(f"experiments.{spec.id}",
                                         experiments.run_experiment, spec, seed=seed, jobs=1)
                outputs[spec.id] = (result.checks, experiments.result_to_csv(result))
            except Exception:  # a raising experiment is a failed run; keep measuring
                outputs[spec.id] = traceback.format_exc()

    if tracer is None:
        from hostspeed import HostSpeed

        with HostSpeed() as hs:
            body()
        times = {"wall_s": hs.wall_s, "cpu_s": hs.cpu_s, "adj_wall_s": hs.adj_wall_s,
                 "adj_cpu_s": hs.adj_cpu_s}
    else:
        w0, c0 = time.perf_counter(), time.process_time()
        body()
        times = {"wall_s": time.perf_counter() - w0, "cpu_s": time.process_time() - c0}
    return times, outputs


def setup_times(raw_s):
    from hostspeed import adjust_setup

    return {"setup_s": raw_s, "adj_setup_s": adjust_setup(raw_s)}


def cmd_setup():
    t0 = time.perf_counter()
    import_pintlab().load_registry()
    print(json.dumps(setup_times(time.perf_counter() - t0)))


def cmd_run(args):
    t0 = time.perf_counter()
    experiments = import_pintlab()
    out = {}
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        out["unwrapped"] = tracer.unwrapped_bindings()
    registry = experiments.load_registry()
    setup_s = time.perf_counter() - t0  # import + load_registry
    if tracer is None:
        out.update(setup_times(setup_s))
    specs = [registry[i] for i in experiment_ids(args.workload, registry)]
    times, outputs = run_pass(experiments, specs, args.seed, tracer)
    # read before the checks, which parse CSVs the way no `pint` command does
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = {}
    for spec_id, output in outputs.items():
        problems = ([f"raised\n{output}"] if isinstance(output, str)
                    else check(spec_id, *output, args.seed))
        if problems:
            failures[spec_id] = problems
    out.update(
        times,
        peak_rss_mb=peak_rss_mb,
        runs=len(specs),
        failed=len(failures),
        failures=[f"{spec_id}: {p}" for spec_id, ps in failures.items() for p in ps],
    )
    if tracer is not None:
        out["table"] = tracer.table()
        out["counters"] = dict(tracer.counters)
        out["edges"] = [[parent, child, n, sec] for (parent, child), (n, sec) in tracer.edges.items()]
        out["per_layer"] = per_layer(tracer)
    print(json.dumps(out))


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("setup")
    run_p = sub.add_parser("run")
    run_p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    run_p.add_argument("--seed", type=int, required=True)
    run_p.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.cmd == "setup":
        cmd_setup()
    else:
        cmd_run(args)


if __name__ == "__main__":
    main()
