"""Run one benchmark workload in this process and print its metrics.

``python3 benchmarks/run.py --workload fed_bulk --seed 7 --seconds 24
--trace 0`` prints every end-to-end metric by name and unit (and the
pooled tail percentiles, which are reported but not part of the
result), then one JSON object as the last line (``correct``,
``attempted``, ``failed``, ``metrics``).  ``--trace 1`` is the traced
run: the same workload under
the benchmark's own spans, probes and one profiled round, printing the
per-layer metrics instead.  The exit code is 1 when any op failed.

``--seed`` reaches only the ``repro.workload`` generators and the
fresh-anchor permutation.  Metric names and units come from
``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: The seed the committed baseline was run with.
DEFAULT_SEED = 7


def load_spec() -> dict:
    """The benchmark definition (``BENCHMARK.json``)."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


#: Workload name -> (module, class); imported on demand because the
#: modules import ``repro``, which is on the path only inside ``main``.
WORKLOADS = {
    "fed_bulk": ("wl_fed_bulk", "FedBulk"),
    "tenants_selective": ("wl_tenants_selective", "TenantsSelective"),
    "local_mix": ("wl_local_mix", "LocalMix"),
    "certain_answers": ("wl_certain_answers", "CertainAnswers"),
}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny scales, 2 rounds; percentiles are unsupported",
    )
    args = parser.parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"run.py: no program source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import harness

    module, name = WORKLOADS[args.workload]
    cls = getattr(importlib.import_module(module), name)

    def factory():
        return cls(args.seed, quick=args.quick)

    if args.trace:
        metrics, samples = harness.traced(factory)
        declared = spec["per_layer"]
    else:
        metrics, samples = harness.end_to_end(
            factory, args.seconds, rounds=2 if args.quick else None
        )
        declared = spec["end_to_end"]
        print("per op (kind, samples, median ms):")
        for name, kind, count, median in harness.op_table(samples):
            print(f"  {name:38s} {kind:5s} {count:6d} {median:12.3f}")
    failed = sum(1 for sample in samples if not sample.ok)
    out = {}
    for entry in declared:
        value = metrics.pop(entry["name"], 0.0)
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:40s} {value:16.6f} {entry['unit']}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6f} (reported, not in the result)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(samples),
                "failed": failed,
                "metrics": out,
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
