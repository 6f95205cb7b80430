"""CLI entry point: ``python -m repro.bench [--scale N] [--out PATH]``.

Two modes:

* default — run every suite at ``--scale`` plus the fixed smoke scale
  and write both into one report (the smoke block is the committed
  regression baseline);
* ``--check`` — re-run the suites at the committed smoke parameters
  (``--runs`` times; speedups compare by per-suite median, so one noisy
  timing cannot fail CI) and fail (exit 1) on deterministic-metric
  drift, behaviour-invariant violations (plan-cache counters
  showing all-hit hot and all-miss cold runs, bound < naive messages,
  adaptive never Pareto-dominated, parallel makespan never above
  serial, pipelined bound joins never above wave barriers with
  identical messages, LIMIT/ASK demand caps strictly cutting messages
  and makespan on the deep bound-join workloads, recoverable fault
  scenarios matching the fault-free answers unflagged while
  unrecoverable ones come back *flagged* partial within the retry
  budget) or >``--tolerance``x median speedup regressions against
  ``--against``.  Used as the CI gate.
"""

from __future__ import annotations

import argparse
import json
import os

from repro.bench.check import DEFAULT_RUNS, DEFAULT_TOLERANCE, check_against
from repro.bench.runner import (
    DEFAULT_OUT,
    DEFAULT_SCALE,
    format_summary,
    run_all,
    write_report,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the storage/evaluation core micro-benchmarks.",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help=f"triples in the workload graph (default {DEFAULT_SCALE})",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=None,
        help="timing repetitions, best-of (default 3)",
    )
    parser.add_argument(
        "--peers",
        type=int,
        default=None,
        help="peer count for the chase suite (default 6)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help=f"JSON report path (default {DEFAULT_OUT}; in --check mode "
        "the fresh smoke report is only written when --out is given)",
    )
    parser.add_argument(
        "--no-smoke",
        action="store_true",
        help="skip attaching the smoke-scale baseline block to the report",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regression-gate mode: compare a fresh smoke run against the "
        "committed baselines and exit non-zero on regressions",
    )
    parser.add_argument(
        "--against",
        default=DEFAULT_OUT,
        help=f"committed report to check against (default {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative speedup degradation in --check mode "
        f"(default {DEFAULT_TOLERANCE:g}x)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=None,
        help="fresh smoke runs in --check mode; the gate compares the "
        f"median per-suite speedup across them (default {DEFAULT_RUNS})",
    )
    args = parser.parse_args(argv)

    if args.tolerance < 1:
        parser.error(
            f"--tolerance must be >= 1 (got {args.tolerance:g}); it is the "
            "allowed relative speedup degradation factor"
        )
    if args.out is not None:
        out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
        if not os.path.isdir(out_dir):
            parser.error(f"--out directory does not exist: {out_dir}")

    if not args.check and args.runs is not None:
        parser.error("--runs only applies in --check mode")

    if args.check:
        ignored = [
            flag
            for flag, value in (
                ("--scale", args.scale),
                ("--repeat", args.repeat),
                ("--peers", args.peers),
                ("--no-smoke", args.no_smoke or None),
            )
            if value is not None
        ]
        if ignored:
            parser.error(
                f"{', '.join(ignored)} cannot be combined with --check; "
                "the gate always runs at the committed smoke parameters"
            )
        if args.runs is not None and args.runs < 1:
            parser.error(f"--runs must be >= 1 (got {args.runs})")
        try:
            with open(args.against, "r", encoding="utf-8") as handle:
                committed = json.load(handle)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read committed report {args.against}: {exc}")
        outcome = check_against(
            committed,
            tolerance=args.tolerance,
            runs=args.runs if args.runs is not None else DEFAULT_RUNS,
        )
        if args.out and outcome.fresh_report is not None:
            write_report(outcome.fresh_report, args.out)
        print(outcome.summary())
        return 0 if outcome.ok else 1

    out = args.out if args.out is not None else DEFAULT_OUT
    report = run_all(
        scale=args.scale if args.scale is not None else DEFAULT_SCALE,
        repeat=args.repeat if args.repeat is not None else 3,
        out=out,
        peers=args.peers if args.peers is not None else 6,
        smoke=not args.no_smoke,
    )
    print(format_summary(report))
    print(f"report written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
