"""Observability: phase-level tracing, unified metrics, trace export.

The clustering kernels and executors are instrumented with
:class:`Span` contexts and :class:`PhaseClock` partition timers (see
:mod:`repro.obs.span`); a :class:`MetricsRegistry` unifies the span
timings with the deterministic work counters, and exports Chrome-trace
and JSONL formats
(:mod:`repro.obs.export`).

Tracing is **off by default** and near-zero cost while off.  Enable it
either by installing a tracer globally::

    from repro.obs import Tracer, use_tracer, MetricsRegistry

    tracer = Tracer()
    with use_tracer(tracer), Session(points) as session:
        batch = session.run(variants)
    registry = MetricsRegistry.from_batch(batch, tracer)
    registry.to_jsonl("run.trace.jsonl")

or by passing ``tracer=`` to a session / kernel explicitly.  The
``repro trace`` CLI subcommand wraps the whole flow.
"""

from repro.obs.registry import MetricsRegistry
from repro.obs.span import (
    NULL_TRACER,
    NullTracer,
    PHASE_PREFIX,
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
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "SpanRecord",
    "PhaseClock",
    "PHASE_PREFIX",
    "MetricsRegistry",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "resolve_tracer",
]
