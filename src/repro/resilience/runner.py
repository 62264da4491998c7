"""The shared per-variant recovery loop used by every executor backend.

One batch's fragility comes from the paper's own throughput devices:
reuse chains make variants depend on donors, and greedy scheduling
strands every dependent when a donor dies.  :class:`ResilientRunner`
wraps the single-variant execution step
(:func:`repro.exec._runner.execute_variant`) with

* deterministic fault injection from the context's
  :class:`~repro.resilience.faults.FaultPlan`;
* per-attempt deadlines and capped exponential-backoff retries from
  the :class:`~repro.resilience.policy.RetryPolicy`;
* result integrity auditing
  (:func:`~repro.resilience.faults.verify_result`);
* checkpoint spill/resume through a
  :class:`~repro.resilience.checkpoint.CheckpointStore`;
* per-variant outcome accounting into a
  :class:`~repro.resilience.report.BatchReport`.

Re-planning falls out of the online scheduling design: a permanently
failed variant never enters the :class:`CompletedRegistry`, so every
dependent's ``select_source`` call picks the best *surviving* completed
donor under the inclusion criteria — or returns ``None`` and clusters
from scratch.  The runner records which completions were re-planned by
comparing against the static dependency forest at report time.

When the context carries no resilience configuration the runner is
disabled and :meth:`execute` is a zero-overhead pass-through with the
seed semantics (exceptions propagate, no report is built).
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from repro.core.scheduling import CompletedRegistry, PlannedVariant, dependency_tree
from repro.core.variants import VariantSet
from repro.exec._runner import PassMemo, execute_variant
from repro.metrics.records import VariantRunRecord
from repro.obs.span import resolve_tracer
from repro.resilience.faults import verify_result
from repro.resilience.policy import RetryPolicy
from repro.resilience.report import BatchReport, VariantOutcome, VariantStatus
from repro.util.errors import VariantTimeoutError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.result import ClusteringResult
    from repro.engine.context import RunContext

__all__ = ["ResilientRunner", "classify_replans"]

#: Obs instant-event names emitted by the recovery loop.
EVENT_RETRY = "variant_retry"
EVENT_TIMEOUT = "variant_timeout"
EVENT_FAILED = "variant_failed"
EVENT_RESUMED = "variant_resumed"


def classify_replans(report: BatchReport, vset: VariantSet) -> None:
    """Mark completed variants whose static donor failed as ``replanned``.

    The static dependency forest (Figure 3a) names each variant's
    planned donor under global knowledge; a variant that completed
    while its planned donor is in the failed set was necessarily
    re-planned onto another surviving donor (the registry only offers
    inclusion-legal completed results) or onto a from-scratch run.

    Idempotent over merged worker reports: previously-assigned
    ``replanned`` statuses are first reset to their base status
    (``retried`` when attempts > 1, else ``ok``) so group-local
    classifications from process workers are re-derived against the
    *global* forest.
    """
    for outcome in report.outcomes.values():
        if outcome.status is VariantStatus.REPLANNED:
            outcome.status = (
                VariantStatus.RETRIED if outcome.attempts > 1 else VariantStatus.OK
            )
            outcome.replanned_from = None
    failed = set(report.failed)
    if not failed:
        return
    tree = dependency_tree(vset)
    for variant, outcome in report.outcomes.items():
        if outcome.status not in (VariantStatus.OK, VariantStatus.RETRIED):
            continue
        if variant not in tree:
            continue
        parent = next(iter(tree.predecessors(variant)), None)
        if parent is not None and parent in failed:
            outcome.status = VariantStatus.REPLANNED
            outcome.replanned_from = parent


class ResilientRunner:
    """Per-batch recovery state shared by a batch's units.

    Outcome accounting locks internally, so one runner may be shared
    by callers on several threads.
    """

    def __init__(self, ctx: RunContext, vset: VariantSet) -> None:
        self.ctx = ctx
        self.vset = vset
        # The batch's (or lane group's) cell-graph passes, one per eps.
        self.passes = PassMemo(vset)
        plan = ctx.fault_plan
        # A FaultPlan binds against the batch's canonical order; a
        # BoundFaultPlan (shipped to process workers) is used as-is.
        self.faults = (
            plan.bind(vset) if plan is not None and hasattr(plan, "bind") else plan
        )
        if ctx.retry_policy is not None:
            self.policy: RetryPolicy | None = ctx.retry_policy
        elif ctx.supervisor is not None:
            # Supervision without an explicit policy: self-healing needs
            # a retry budget for its respawn/resubmit remediations.
            self.policy = RetryPolicy()
        elif self.faults:
            # Faults without an explicit policy: capture failures into
            # the report (no retries) instead of aborting the batch.
            self.policy = RetryPolicy(max_retries=0)
        else:
            self.policy = None
        self.checkpoint = ctx.checkpoint
        self.enabled = (
            self.policy is not None or bool(self.faults) or self.checkpoint is not None
        )
        self._lock = threading.Lock()
        self._outcomes: dict = {}
        self._order = {v: i for i, v in enumerate(vset)}

    # -- checkpoint resume ----------------------------------------------
    def resume_into(
        self,
        registry: CompletedRegistry,
        results: dict,
        records: list,
    ) -> set:
        """Load finished variants from the checkpoint before executing.

        Every loaded result is registered as completed at t = 0 — it is
        a genuine result for this exact database fingerprint, so the
        remaining variants may legally reuse it as a donor.  Returns the
        set of variants the caller must skip.
        """
        done: set = set()
        if self.checkpoint is None:
            return done
        tracer = resolve_tracer(self.ctx.tracer)
        for variant in self.vset:
            result = self.checkpoint.load(variant)
            if result is None:
                continue
            registry.add(variant, result, finished_at=0.0)
            results[variant] = result
            records.append(
                VariantRunRecord(
                    variant=variant,
                    reused_from=result.reused_from,
                    points_reused=result.points_reused,
                    reuse_fraction=result.reuse_fraction,
                    response_time=0.0,
                    wall_time=0.0,
                    n_clusters=result.n_clusters,
                    n_noise=result.n_noise,
                )
            )
            with self._lock:
                self._outcomes[variant] = VariantOutcome(
                    variant, VariantStatus.RESUMED, attempts=0
                )
            tracer.instant(EVENT_RESUMED, variant=str(variant))
            done.add(variant)
        return done

    # -- execution -------------------------------------------------------
    def execute(
        self,
        planned: PlannedVariant,
        registry: CompletedRegistry,
        *,
        concurrency: int | None = None,
        before: float | None = None,
    ) -> tuple[ClusteringResult | None, VariantRunRecord | None]:
        """Run one variant under the retry/deadline/fault regime.

        Returns ``(result, record)`` on success and ``(None, None)``
        when the variant failed permanently — the caller skips the
        registry add and moves on, which is exactly what lets the rest
        of the batch (and its re-planning) proceed.
        """
        if not self.enabled:
            return execute_variant(
                self.ctx, planned, self.vset, registry,
                concurrency=concurrency, before=before,
                passes=self.passes,
            )
        policy = self.policy if self.policy is not None else RetryPolicy(max_retries=0)
        tracer = resolve_tracer(self.ctx.tracer)
        variant = planned.variant
        last_error: BaseException | None = None
        for attempt in range(policy.max_attempts):
            if attempt > 0:
                pause = policy.backoff_s(
                    attempt - 1, key=self._order.get(variant, 0)
                )
                if pause > 0.0:
                    time.sleep(pause)
            try:
                result, record = self._attempt(
                    planned, registry, attempt,
                    concurrency=concurrency, before=before, policy=policy,
                )
            except VariantTimeoutError as exc:
                last_error = exc
                tracer.instant(
                    EVENT_TIMEOUT, variant=str(variant), attempt=attempt,
                    error=str(exc),
                )
                continue
            except Exception as exc:
                last_error = exc
                tracer.instant(
                    EVENT_RETRY, variant=str(variant), attempt=attempt,
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            if self.checkpoint is not None:
                self.checkpoint.save(result)
            status = VariantStatus.RETRIED if attempt > 0 else VariantStatus.OK
            with self._lock:
                self._outcomes[variant] = VariantOutcome(
                    variant,
                    status,
                    attempts=attempt + 1,
                    error=(
                        f"{type(last_error).__name__}: {last_error}"
                        if last_error is not None
                        else None
                    ),
                )
            return result, record
        tracer.instant(
            EVENT_FAILED, variant=str(variant),
            attempts=policy.max_attempts,
            error=f"{type(last_error).__name__}: {last_error}",
        )
        with self._lock:
            self._outcomes[variant] = VariantOutcome(
                variant,
                VariantStatus.FAILED,
                attempts=policy.max_attempts,
                error=f"{type(last_error).__name__}: {last_error}",
            )
        return None, None

    def _attempt(
        self,
        planned: PlannedVariant,
        registry: CompletedRegistry,
        attempt: int,
        *,
        concurrency: int | None,
        before: float | None,
        policy: RetryPolicy,
    ) -> tuple[ClusteringResult, VariantRunRecord]:
        """One execution attempt: faults, kernel, audit, deadline check."""
        variant = planned.variant
        t0 = time.perf_counter()
        if self.faults:
            spec = self.faults.find(variant, attempt, "start")
            if spec is not None:
                self.faults.fire(
                    spec, deadline_s=policy.deadline_s, started_at=t0
                )
        result, record = execute_variant(
            self.ctx, planned, self.vset, registry,
            concurrency=concurrency, before=before, passes=self.passes,
        )
        if self.faults:
            spec = self.faults.find(variant, attempt, "finish")
            if spec is not None:
                if spec.kind == "corrupt":
                    from repro.resilience.faults import corrupt_result

                    corrupt_result(result)
                else:
                    self.faults.fire(
                        spec, deadline_s=policy.deadline_s, started_at=t0
                    )
        verify_result(result, self.ctx.store.n_points)
        elapsed = time.perf_counter() - t0
        if policy.deadline_s is not None and elapsed > policy.deadline_s:
            raise VariantTimeoutError(
                f"variant {variant} attempt {attempt} took {elapsed:.3f}s "
                f"(deadline {policy.deadline_s:g}s)"
            )
        return result, record

    # -- reporting --------------------------------------------------------
    def merge_outcomes(self, report: BatchReport) -> None:
        """Fold a worker-produced report into this runner's accounting."""
        with self._lock:
            self._outcomes.update(report.outcomes)

    def mark_degraded(
        self, variant, label: str, *, attempts: int, error: str | None = None
    ) -> None:
        """Record a variant completed by stepping down the ladder.

        ``label`` is the ladder-step label (e.g. ``substrate:lanes→serial``)
        the supervisor applied; the variant still counts as ``retried``
        because it needed more than one submission to finish.
        """
        with self._lock:
            self._outcomes[variant] = VariantOutcome(
                variant,
                VariantStatus.RETRIED if attempts > 1 else VariantStatus.OK,
                attempts=attempts,
                error=error,
                degraded=label,
            )

    def mark_failed_group(self, variants, error: str, attempts: int = 1) -> None:
        """Record variants lost to a dead worker group as failed."""
        tracer = resolve_tracer(self.ctx.tracer)
        with self._lock:
            for v in variants:
                if v in self._outcomes:
                    continue
                self._outcomes[v] = VariantOutcome(
                    v, VariantStatus.FAILED, attempts=attempts, error=error
                )
                tracer.instant(EVENT_FAILED, variant=str(v), error=error)

    def report(self) -> BatchReport | None:
        """The batch's :class:`BatchReport`, or None when disabled."""
        if not self.enabled:
            return None
        with self._lock:
            report = BatchReport(outcomes=dict(self._outcomes))
        classify_replans(report, self.vset)
        return report
