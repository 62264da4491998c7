"""Single-variant execution step shared by the executor backends.

Each backend differs only in *when* variants run and what clock stamps
them; the per-variant work is identical and lives here, driven entirely
by the run's :class:`~repro.engine.context.RunContext`:

* ``kernel="cellgraph"`` serves every variant from the
  :class:`~repro.core.cellgraph.MinptsPass` of its ``eps`` — exact, and
  built once per ``eps`` for the whole run or lane group
  (:class:`PassMemo`);
* ``kernel="bfs"`` runs the paper's path: pick a reuse source from the
  completed registry, then VariantDBSCAN (or DBSCAN from scratch).

Either way the step ends by building the variant's run record.

:func:`attempt_variant` wraps the step in one attempt (fault injection,
integrity audit, deadline check) and :func:`run_chain` runs a unit's
variants one attempt each, stopping at the first failure.  What follows
a failure is decided by the runtime (:mod:`repro.exec.graph`), never
here.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

from repro.core.cellgraph import MinptsPass
from repro.core.result import ClusteringResult
from repro.core.scheduling import CompletedRegistry, PlannedVariant
from repro.core.variant_dbscan import variant_dbscan
from repro.core.variants import Variant, VariantSet
from repro.engine.context import RunContext
from repro.index.cellgraph import CellGraphIndex
from repro.metrics.counters import WorkCounters
from repro.metrics.records import VariantRunRecord
from repro.obs.span import Tracer, resolve_tracer
from repro.resilience.faults import BoundFaultPlan, FaultSpec, fire, verify_result
from repro.resilience.policy import RetryPolicy
from repro.util.errors import VariantTimeoutError

__all__ = [
    "PassMemo",
    "attempt_variant",
    "execute_variant",
    "finish_attempt",
    "run_chain",
]


class PassMemo:
    """The per-``eps`` passes of one run or one lane group.

    A pass is built on the first request at its ``eps``, for the
    largest ``minpts`` ``variants`` asks at that radius, and charged to
    the counters of the variant that asked.  It is dropped once every
    variant of ``variants`` at that ``eps`` has been served, so a group
    that walks the ``eps`` values one after another holds one pass at a
    time.  Thread-safe: concurrent variants at one ``eps`` wait for a
    single build.
    """

    def __init__(self, variants: VariantSet) -> None:
        self._top: dict[float, int] = {}
        self._left: dict[float, int] = {}
        for v in variants:
            self._top[v.eps] = max(self._top.get(v.eps, 0), v.minpts)
            self._left[v.eps] = self._left.get(v.eps, 0) + 1
        self._passes: dict[float, MinptsPass] = {}
        self._locks: dict[float, threading.Lock] = {}
        self._lock = threading.Lock()

    def cluster(
        self,
        ctx: RunContext,
        variant: Variant,
        counters: WorkCounters,
        tracer: Tracer,
    ) -> ClusteringResult:
        """``variant``'s exact result, from its ``eps``'s pass."""
        eps, minpts = variant.eps, variant.minpts
        with self._lock:
            lock = self._locks.setdefault(eps, threading.Lock())
        with lock:
            found = self._passes.get(eps)
            if found is None or found.top < minpts:
                index = (
                    ctx.factory.get(ctx.store, "cellgraph", eps=eps, tracer=tracer)
                    if ctx.factory is not None
                    else CellGraphIndex(ctx.points, eps)
                )
                assert isinstance(index, CellGraphIndex)
                found = MinptsPass(
                    ctx.points,
                    index,
                    max(minpts, self._top.get(eps, minpts)),
                    counters=counters,
                    tracer=tracer,
                    variant=variant,
                )
                built = found.build_s
            else:
                built = 0.0
            left = self._left.get(eps, 0) - 1
            self._left[eps] = left
            if left > 0:
                self._passes[eps] = found
            else:
                self._passes.pop(eps, None)
        result = found.cluster(minpts, counters=counters, tracer=tracer)
        result.elapsed += built
        return result


def execute_variant(
    ctx: RunContext,
    planned: PlannedVariant,
    vset: VariantSet,
    registry: CompletedRegistry,
    *,
    concurrency: int | None = None,
    before: float | None = None,
    passes: PassMemo | None = None,
) -> tuple[ClusteringResult, VariantRunRecord]:
    """Run one planned variant and return its result and run record.

    All configuration (points, indexes, kernel, reuse knobs, cost
    model, tracer) comes from ``ctx``.  ``passes`` holds
    the run's cell-graph passes under ``kernel="cellgraph"``; without
    one the variant builds a pass of its own.  ``before``
    restricts which completed variants are eligible as reuse sources
    (simulated time); wall-clock backends pass ``None`` ("use whatever
    has completed by now").  The record's ``response_time`` is priced by
    the run's cost model at ``concurrency`` (default:
    ``ctx.spec.n_threads``); ``start`` / ``finish`` / ``thread_id`` are the
    caller's to fill in.
    """
    if concurrency is None:
        concurrency = ctx.spec.n_threads
    tr = resolve_tracer(ctx.tracer)
    counters = WorkCounters()
    with tr.span("variant", variant=str(planned.variant)) as span:
        if ctx.spec.kernel == "cellgraph":
            # Exact from the eps's pass: a reuse source has nothing to add.
            if passes is None:
                passes = PassMemo(VariantSet([planned.variant]))
            result = passes.cluster(ctx, planned.variant, counters, tr)
        else:
            reuse = ctx.spec.reuse
            source = reuse.scheduler.select_source(
                planned, vset, registry, before=before
            )
            indexes = ctx.indexes
            result = variant_dbscan(
                ctx.points,
                planned.variant,
                source[1] if source is not None else None,
                t_high=indexes.t_high,
                t_low=indexes.t_low,
                reuse_policy=reuse.policy,
                counters=counters,
                tracer=tr,
            )
        span.set(
            reused_from=str(result.reused_from) if result.reused_from else None,
            points_reused=result.points_reused,
        )
    record = VariantRunRecord(
        variant=planned.variant,
        reused_from=result.reused_from,
        points_reused=result.points_reused,
        reuse_fraction=result.reuse_fraction,
        response_time=ctx.spec.cost_model.duration(counters, concurrency),
        wall_time=result.elapsed,
        n_clusters=result.n_clusters,
        n_noise=result.n_noise,
        counters=counters,
    )
    return result, record


def finish_attempt(
    result: ClusteringResult,
    spec: FaultSpec | None,
    policy: RetryPolicy | None,
    n_points: int,
    started_at: float,
) -> None:
    """The tail every attempt shares: a finish-phase fault, then the audit.

    ``spec`` is the attempt's finish-phase fault (``corrupt`` damages
    ``result``); the :func:`verify_result` audit runs only when the run
    has a retry policy.  The parent-side shard merge ends the same way.
    """
    fire(
        spec,
        deadline_s=policy.deadline_s if policy is not None else None,
        started_at=started_at,
        result=result,
    )
    if policy is not None:
        verify_result(result, n_points)


def attempt_variant(
    ctx: RunContext,
    planned: PlannedVariant,
    vset: VariantSet,
    registry: CompletedRegistry,
    attempt: int,
    *,
    faults: BoundFaultPlan | None = None,
    policy: RetryPolicy | None = None,
    concurrency: int | None = None,
    before: float | None = None,
    passes: PassMemo | None = None,
) -> tuple[ClusteringResult, VariantRunRecord]:
    """One attempt at one variant: faults, kernel, audit, deadline check.

    ``attempt`` is the variant's own attempt number (the runtime counts
    them), which keys the fault-plan lookups.  Raises on any failure.
    """
    variant = planned.variant
    deadline_s = policy.deadline_s if policy is not None else None
    t0 = time.perf_counter()
    if faults:
        fire(
            faults.find(variant, attempt, "start"),
            deadline_s=deadline_s,
            started_at=t0,
        )
    result, record = execute_variant(
        ctx, planned, vset, registry,
        concurrency=concurrency, before=before, passes=passes,
    )
    finish_attempt(
        result,
        faults.find(variant, attempt, "finish") if faults else None,
        policy,
        ctx.store.n_points,
        t0,
    )
    elapsed = time.perf_counter() - t0
    if deadline_s is not None and elapsed > deadline_s:
        raise VariantTimeoutError(
            f"variant {variant} attempt {attempt} took {elapsed:.3f}s "
            f"(deadline {deadline_s:g}s)"
        )
    return result, record


def run_chain(
    ctx: RunContext,
    vset: VariantSet,
    todo: list[tuple[PlannedVariant, int]],
    registry: CompletedRegistry,
    done: Callable[[ClusteringResult, VariantRunRecord], float],
    *,
    faults: BoundFaultPlan | None = None,
    policy: RetryPolicy | None = None,
    concurrency: int | None = None,
    before: float | None = None,
    passes: PassMemo | None = None,
    beat: Callable[[str], None] | None = None,
) -> tuple[list[tuple[ClusteringResult, VariantRunRecord]], tuple[Variant, Exception] | None]:
    """One unit attempt: each ``(planned, attempt)`` of ``todo`` once, in order.

    ``vset`` is the unit's whole chain (it normalizes reuse distances,
    so a resubmitted suffix picks the same sources), ``registry`` holds
    its donors, and ``done`` stamps each completed record and returns
    its finish time.  Returns the completed ``(result, record)`` pairs
    and the first failure as the failing variant and its error (``None``
    when every variant ran): the next variant of the chain runs only
    after the runtime has retried or dropped that one.  Without a retry
    ``policy`` the error propagates instead.
    """
    pairs: list[tuple[ClusteringResult, VariantRunRecord]] = []
    for planned, attempt in todo:
        variant = planned.variant
        if beat is not None:
            # Beat *before* the attempt: a stall fault freezes the
            # counter mid-task, which is what the parent's monitor sees.
            beat(f"variant:{variant.eps:g}/{variant.minpts}")
        try:
            result, record = attempt_variant(
                ctx, planned, vset, registry, attempt, faults=faults, policy=policy,
                concurrency=concurrency, before=before, passes=passes,
            )
        except Exception as exc:
            if policy is None:
                raise
            return pairs, (variant, exc)
        registry.add(variant, result, finished_at=done(result, record))
        pairs.append((result, record))
    return pairs, None
