"""Run every workload, untraced and traced, and print every metric.

``python3 benchmarks/run_all.py --out A.json`` runs each workload of
``BENCHMARK.json`` in fresh subprocesses of ``run.py``: ``--runs``
untraced runs on consecutive seeds (the end-to-end metrics, reported as
medians) and one traced run on the first seed (the per-layer metrics),
all with ``PYTHONHASHSEED=0`` so that the profiled call counts repeat.
It prints one line per (workload, metric) with the unit, writes the
JSON that ``compare.py`` reads, and exits 1 when any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, load_spec

HERE = Path(__file__).resolve().parent
PERCENTILES = ("bulk_p50_ms", "point_p50_ms")


def run_once(workload: str, seed: int, trace: int, extra) -> dict:
    """One ``run.py`` subprocess; returns its last-line JSON."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(trace),
    ] + extra
    # Without hash randomisation a dict probes the same slots in every
    # process, so the ``__eq__`` calls behind ``<layer>.calls`` repeat.
    environment = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        command, capture_output=True, text=True, env=environment
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run.py printed no result for {workload}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    extra = ["--seconds", str(args.seconds)]
    if args.quick:
        extra.append("--quick")
    report = {
        "seed": args.seed,
        "runs": args.runs,
        "quick": args.quick,
        "workloads": {},
    }
    failed = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = [
            run_once(name, args.seed + i, 0, extra)
            for i in range(args.runs)
        ]
        result = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "per_layer": {},
            # A quick run's two rounds are too few for a median over
            # rounds; the values are printed but not to be compared.
            "unsupported": list(PERCENTILES) if args.quick else [],
        }
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            result["end_to_end"][metric["name"]] = {
                "value": statistics.median(values),
                "unit": metric["unit"],
                "values": values,
            }
        traced = run_once(name, args.seed, 1, extra)
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["per_layer"] = traced["metrics"]
        failed += result["failed"]
        report["workloads"][name] = result
        for group in ("end_to_end", "per_layer"):
            for metric, cell in result[group].items():
                note = (
                    "  (unsupported: too few samples)"
                    if metric in result["unsupported"]
                    else ""
                )
                print(
                    f"{name:18s} {metric:36s} "
                    f"{cell['value']:16.6f} {cell['unit']}{note}"
                )
        share = result["failed"] / result["attempted"]
        print(f"{name:18s} {'failed_share':36s} {share:16.6f} ratio")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
