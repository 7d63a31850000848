"""Command line harness.

    pint run <experiment-id> [--out DIR] [--seed S]
    pint list
    pint verify [--filter STR] [--out DIR] [--seed S]

Results are written as UTF-8 CSV (one file per experiment) into --out
(default ./pint-run, which git ignores); the PINT_OUT environment variable
overrides --out.  The tracked golden CSVs live in ./pint-out and are
rewritten only by an explicit ``--out pint-out``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from . import __version__
from .experiments import load_registry, result_to_csv, run_experiment

DEFAULT_OUT = "pint-run"  # untracked; the goldens in pint-out/ need an explicit --out


class CliError(Exception):
    """A usage or environment error reported as one ``error:`` line."""


class _Parser(argparse.ArgumentParser):
    """Raises argument errors as :class:`CliError` instead of printing the
    usage line and exiting, so they are reported like every other one."""

    def error(self, message):
        raise CliError(message)


def _out_dir(args) -> Path:
    path = Path(os.environ.get("PINT_OUT") or args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {str(path)!r}: {exc.strerror}") from exc
    return path


def _build_tag() -> str:
    try:
        head = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5, check=False,
        ).stdout.strip()
    except Exception:
        head = ""
    return f"pintlab-{__version__}" + (f"+{head}" if head else "")


def _write_result(spec, result, out_dir: Path):
    csv_path = out_dir / f"{spec.id}.csv"
    try:
        csv_path.write_text(result_to_csv(result), encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {str(csv_path)!r}: {exc.strerror}") from exc
    return csv_path


def _print_result(spec, result, csv_path):
    status = "pass" if result.passed else "FAIL"
    print(f"[{status}] {spec.id}  ({_build_tag()})")
    for name, ok, detail in result.checks:
        print(f"    {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"    csv: {csv_path}")


def cmd_run(args) -> int:
    registry = load_registry()
    if args.experiment not in registry:
        print(f"error: unknown experiment id {args.experiment!r}; "
              f"run `pint list` for the catalog", file=sys.stderr)
        return 2
    spec = registry[args.experiment]
    out_dir = _out_dir(args)
    result = run_experiment(spec, seed=args.seed)
    csv_path = _write_result(spec, result, out_dir)
    _print_result(spec, result, csv_path)
    return 0 if result.passed else 1


def cmd_list(args) -> int:
    registry = load_registry()
    width = max(len(k) for k in registry)
    for spec in registry.values():
        print(f"{spec.id:<{width}}  [{spec.gate}]  {spec.description}")
    print(f"\n{len(registry)} experiments; property suites run via `pytest` (gate C15).")
    return 0


def cmd_verify(args) -> int:
    registry = load_registry()
    selected = {
        k: v for k, v in registry.items() if not args.filter or args.filter in k
    }
    if not selected:
        print(f"error: filter {args.filter!r} matches no experiments", file=sys.stderr)
        return 2
    out_dir = _out_dir(args)
    failures = 0
    rows = []
    for spec in selected.values():
        result = run_experiment(spec, seed=args.seed)
        _write_result(spec, result, out_dir)
        ok = result.passed
        failures += 0 if ok else 1
        rows.append((spec.id, spec.gate, ok))
        for name, check_ok, detail in result.checks:
            if not check_ok:
                print(f"FAIL {spec.id} :: {name}: {detail}")
    width = max(len(r[0]) for r in rows)
    print(f"\n{'experiment':<{width}}  gate  status")
    for eid, gate, ok in rows:
        print(f"{eid:<{width}}  {gate:<4}  {'pass' if ok else 'FAIL'}")
    print(f"\n{len(rows) - failures}/{len(rows)} experiments passed ({_build_tag()})")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = _Parser(
        prog="pint", description="desk-scale parallel-in-time experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and write its CSV")
    run_p.add_argument("experiment")
    run_p.add_argument("--out", default=DEFAULT_OUT)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.set_defaults(fn=cmd_run)

    list_p = sub.add_parser("list", help="print the experiment catalog")
    list_p.set_defaults(fn=cmd_list)

    verify_p = sub.add_parser("verify", help="run experiments and report pass/fail")
    verify_p.add_argument("--filter", default="")
    verify_p.add_argument("--out", default=DEFAULT_OUT)
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.set_defaults(fn=cmd_verify)

    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: the flush at exit writes the rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
