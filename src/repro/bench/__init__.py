"""Micro-benchmark harness for the storage, evaluation and federation core.

``python -m repro.bench`` runs five suites — triple-pattern matching,
GPQ conjunct joins, the Algorithm-1 peer chase, full SPARQL queries
on the columnar batch engine, and federated execution strategies —
over the synthetic ``repro.workload`` generators and writes the results
to ``BENCH_core.json``.  Comparative suites are measured twice: once on
the optimised implementation and once on a frozen reference (the seed
term-object store for match/join, the naive term-level algebra
evaluator for sparql), so every run reports a machine-normalised
speedup and regressions show up as a ratio drifting toward 1.

``python -m repro.bench --check`` is the CI regression gate
(:mod:`repro.bench.check`).
"""

from repro.bench.baseline import BaselineGraph, baseline_evaluate_query
from repro.bench.check import CheckOutcome, check_against
from repro.bench.runner import build_report, run_all

__all__ = [
    "BaselineGraph",
    "CheckOutcome",
    "baseline_evaluate_query",
    "build_report",
    "check_against",
    "run_all",
]
