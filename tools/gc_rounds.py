"""Count the collector's automatic collections per benchmark round.

Usage::

    python tools/gc_rounds.py --workload W [--rounds N] [--seed S] [--quick]

Builds benchmark workload ``W`` from ``benchmarks/`` (imported, never
changed), runs its set-up and warm-up round, then ``N`` rounds the way
``harness.end_to_end`` runs them: a ``gc.collect()`` before each round,
which is not counted, ``harness.run_round`` and the raw results held
until ``check_round``.  A ``gc.callbacks`` hook counts every automatic
collection by generation while the ops run and times each full
(generation 2) collection.  For every steady round (every round after
the first) it prints one line::

    round 2 full 0 gen1 6 gen0 72 full_ms 0.0 in -

— full, generation-1 and generation-0 collections, the full
collections' pause, and the ops the full collections landed in — then
the mean over the steady rounds.  Nothing is asserted about the
counts; the exit code is 1 only when an op failed its check.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import harness  # noqa: E402
from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


class Collections:
    """Automatic collections seen while :attr:`op` names a running op."""

    def __init__(self) -> None:
        self.op = ""
        self.started = 0.0
        self.counts = [0, 0, 0]
        self.full_seconds = 0.0
        self.full_ops: List[str] = []

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if not self.op:
            return
        generation = info["generation"]
        if phase == "start":
            self.started = time.perf_counter()
            return
        self.counts[generation] += 1
        if generation == 2:
            self.full_seconds += time.perf_counter() - self.started
            self.full_ops.append(self.op)


def labelled(ops: List[harness.Op], seen: Collections) -> List[harness.Op]:
    """``ops`` with each run naming itself in :attr:`Collections.op`."""

    def naming(op: harness.Op):
        def run():
            seen.op = op.name
            try:
                return op.run()
            finally:
                seen.op = ""

        return run

    return [replace(op, run=naming(op)) for op in ops]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--quick", action="store_true", help="the workload's tiny scales"
    )
    args = parser.parse_args(argv)
    module, name = WORKLOADS[args.workload]
    cls = getattr(importlib.import_module(module), name)
    workload, _ = harness.set_up(lambda: cls(args.seed, quick=args.quick))
    samples: List[harness.Sample] = []
    steady = []
    for index in range(1, args.rounds + 1):
        ops = workload.round(index)
        gc.collect()
        seen = Collections()
        gc.callbacks.append(seen)
        try:
            executed, _ = harness.run_round(labelled(ops, seen))
        finally:
            gc.callbacks.remove(seen)
        samples.extend(workload.check_round(executed))
        if index == 1:
            continue
        steady.append(seen)
        full, gen1, gen0 = seen.counts[2], seen.counts[1], seen.counts[0]
        print(
            f"round {index} full {full} gen1 {gen1} gen0 {gen0} "
            f"full_ms {seen.full_seconds * 1e3:.1f} "
            f"in {','.join(seen.full_ops) or '-'}"
        )
    workload.finish(samples)
    if steady:
        count = len(steady)
        means = [sum(s.counts[g] for s in steady) / count for g in (2, 1, 0)]
        pause = sum(s.full_seconds for s in steady) / count * 1e3
        print(
            f"steady mean over {count} round(s): full {means[0]:.2f} "
            f"gen1 {means[1]:.2f} gen0 {means[2]:.2f} full_ms {pause:.1f}"
        )
    failed = sum(1 for sample in samples if not sample.ok)
    if failed:
        print(f"{failed} op(s) failed their check", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
