"""Tracing primitives, re-exported from :mod:`repro.util.tracing`.

The implementation lives in the bottom layer so the clustering
kernels (``repro.core``) can emit spans and phases without importing
the observability subsystem (the ``layering`` rule of ``repro check``
forbids ``core`` -> ``obs``).  This module keeps the historical
public import path working: the registry, exporters, and executors
all build on the same objects — including the module-global active
tracer, which is shared because these names *are* the
``repro.util.tracing`` objects, not copies.
"""

from __future__ import annotations

from repro.util.tracing import (
    NULL_TRACER,
    PHASE_PREFIX,
    NullTracer,
    PhaseClock,
    Span,
    SpanRecord,
    Tracer,
    get_tracer,
    resolve_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "SpanRecord",
    "Span",
    "PhaseClock",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "resolve_tracer",
    "PHASE_PREFIX",
    "SPAN_TASK",
]

#: Span name carrying task identity in the task-graph runtime: every
#: record has ``args = {"kind": ..., "id": ..., "deps": [...]}`` naming
#: the :mod:`repro.core.taskgraph` node it executed (``kind`` one of
#: ``variant`` / ``shard`` / ``merge``).  Inline lanes (``serial``,
#: ``simulated``) emit these on the work-unit clock; process lanes on
#: the tracer's own :func:`time.perf_counter` clock, like every other
#: span of the batch.
SPAN_TASK = "task"
