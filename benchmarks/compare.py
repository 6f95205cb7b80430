"""Compare two ``run_all.py`` reports against the benchmark's bounds.

``python3 benchmarks/compare.py A.json B.json`` prints, for every
workload, how much worse B is than A on each gated metric, as a share
of A, beside its bound.  It exits 1 when any metric got worse by more
than its bound or B has failed ops.  Gated are the end-to-end metrics
with the bounds ``BENCHMARK.json`` fixes, and from the traced run the
two ratios in ``BOUNDED`` and the simulated counters in ``NO_WORSE``,
which may not get worse at all (both reports must be of one seed).

``--same-commit`` is the repeatability check, for two reports of one
commit: every per-layer count (``<layer>.calls``, messages, chase and
rewriting counters, ...) and the simulated makespan must be identical.
Between a parent and a change those counts differ legitimately.
``--layers`` prints the per-layer deltas, which have no bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import load_spec

#: Traced-run ratios ISSUE 11 lists as end-to-end metrics; they are 0
#: on the workloads they do not apply to, so ``BENCHMARK.json`` cannot
#: bound them and this file does.
BOUNDED = {"federation.overhead_x": 0.10, "obs.traced_slowdown_x": 0.10}
#: Simulated counters of the traced run's fixed rounds (bound 0).
NO_WORSE = (
    "federation.messages",
    "federation.transfer_units",
    "federation.sim_makespan_s",
)


def worsening(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of it."""
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--same-commit", action="store_true")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args(argv)
    spec = load_spec()
    with open(args.before) as handle:
        before = json.load(handle)
    with open(args.after) as handle:
        after = json.load(handle)
    same_seed = before.get("seed") == after.get("seed")
    before, after = before["workloads"], after["workloads"]
    gated = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    layered = [(name, "lower", bound) for name, bound in BOUNDED.items()]
    layered += [(name, "lower", 0.0) for name in NO_WORSE if same_seed]
    identical = [
        m["name"]
        for m in spec["per_layer"]
        if m["unit"] == "count" or m["name"] in NO_WORSE
    ]
    exceeded = 0
    if not same_seed:
        print("seeds differ: the simulated counters are not compared")
        exceeded += args.same_commit
    for entry in spec["workloads"]:
        name = entry["name"]
        if name not in before or name not in after:
            print(f"{name}: missing from a report")
            exceeded += 1
            continue
        a_layers = before[name]["per_layer"]
        b_layers = after[name]["per_layer"]
        unsupported = after[name].get("unsupported", [])
        cells = []
        for group, metrics in (("end_to_end", gated), ("per_layer", layered)):
            for key, better, bound in metrics:
                a = before[name][group].get(key, {}).get("value", 0)
                b = after[name][group].get(key, {}).get("value", 0)
                worse = worsening(a, b, better)
                skipped = key in unsupported
                over = worse > bound and not skipped
                exceeded += over
                mark = "~" if skipped else "!" if over else ""
                cells.append(f"{key} {worse:+.1%}/{bound:.0%}{mark}")
        if after[name]["failed"]:
            exceeded += 1
            cells.append(f"FAILED OPS {after[name]['failed']}")
        if args.same_commit:
            moved = [
                key
                for key in identical
                if a_layers.get(key, {}).get("value", 0)
                != b_layers.get(key, {}).get("value", 0)
            ]
            exceeded += len(moved)
            cells.append(
                f"{len(identical) - len(moved)}/{len(identical)} counts "
                "identical" + "".join(f" !{key}" for key in moved)
            )
        print(f"{name}: " + "  ".join(cells))
        if args.layers:
            for metric in spec["per_layer"]:
                key = metric["name"]
                a = a_layers.get(key, {}).get("value", 0)
                b = b_layers.get(key, {}).get("value", 0)
                if a or b:
                    worse = worsening(a, b, metric["better"])
                    print(
                        f"    {key:38s} {a:14.4f} -> {b:14.4f} "
                        f"({worse:+.1%} worse)"
                    )
    print(
        "worse-by/bound per metric; ! over its bound, "
        "~ unsupported (quick run); "
        + ("REGRESSION" if exceeded else "within bounds")
    )
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
