"""EXPLAIN ANALYZE plumbing: actual-counter attachment and rendering.

Every physical operator of the two plan vocabularies (the local
engine's :class:`~repro.sparql.batch.BatchOp`, the federated
:class:`~repro.federation.plan.FedOp`) carries a class-level
``actuals = None``.  An analyzed execution replaces it with a plain
dict per node (:func:`attach_actuals` for static local plans; the
federated interpreter attaches lazily as the adaptive planner grows
its tree), and operators record counters — rows/batches out, build
sizes, requests issued — behind single ``is not None`` guards, so the
un-analyzed hot path pays one attribute read per operator call.

:func:`format_actuals` renders one node's counters deterministically
(key-sorted) for the annotated explain tree; the counters are all
integers or virtual-clock quantities, so analyzed explain output is
byte-identical across repeated seeded runs.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["attach_actuals", "format_actuals"]


def attach_actuals(root) -> None:
    """Give every operator under ``root`` an empty actuals dict.

    The walker only needs ``children()`` and an assignable ``actuals``
    attribute, so it works on both operator vocabularies.
    """
    stack = [root]
    while stack:
        op = stack.pop()
        op.actuals = {}
        stack.extend(op.children())


def format_actuals(actuals: Optional[Dict[str, object]]) -> str:
    """One deterministic ``(actual ...)`` suffix for an explain line.

    ``None`` (analysis off) renders nothing; an empty dict means the
    operator was planned but never executed (early termination).
    """
    if actuals is None:
        return ""
    if not actuals:
        return " (actual never-run)"
    note = " ".join(f"{k}={v}" for k, v in sorted(actuals.items()))
    return f" (actual {note})"
