"""The supervisor: policy knobs + the runtime-facing orchestration object.

:class:`SupervisePolicy` is the frozen knob carrier threaded
Session → executor → per-run override into the
:class:`~repro.engine.context.RunContext` (like every other run knob).

:class:`Supervisor` owns one instance each of the loop's components —
:class:`~repro.supervise.signals.HealthMonitor`,
:class:`~repro.supervise.remedy.Detector`, :class:`Proposer`,
:class:`RiskGate`, :class:`Verifier` — plus the
:class:`~repro.supervise.ladder.DegradationLadder` and
:class:`CircuitBreaker`, and exposes the narrow hook surface the
task-graph runtime calls:

* :meth:`job_started` / :meth:`job_finished` — lane occupancy,
* :meth:`poll` — stale-heartbeat and deadline-at-risk detection; the
  returned *applied* records tell the runtime which lanes to respawn,
* :meth:`on_exhausted` — submission budget gone: consult the breaker
  and the ladder, gate a ``degrade`` action, and hand the runtime the
  next rung (or nothing, when quarantined / above budget),
* :meth:`on_corruption` — a ``verify_result`` rejection: gate the
  resubmission,
* :meth:`on_replanned` — the planner re-planned a chain onto surviving
  donors after a permanent donor failure: record it,
* :meth:`task_done` — resolve pending verifications for a target,
* :meth:`finalize` — orphan-segment scan/reclaim and the safety net
  that fails any still-unverified applied action.

This module never imports ``repro.exec`` — the runtime calls *in*, the
supervisor only returns decisions, which is what keeps the layering
acyclic (exec.graph → supervise → engine/resilience/util).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.obs.span import resolve_tracer
from repro.resilience.audit import scan_segments, unlink_segment
from repro.supervise.ladder import CircuitBreaker, DegradationLadder, LadderStep
from repro.supervise.remedy import (
    Detector,
    Proposer,
    RemediationRecord,
    RiskGate,
    Verifier,
)
from repro.supervise.signals import HealthMonitor, HeartbeatMailbox
from repro.util.errors import ValidationError

__all__ = ["SupervisePolicy", "Supervisor", "as_supervise_policy"]

#: Trace instant names for the decision points (one per loop stage).
EVENT_ANOMALY = "supervise.anomaly"
EVENT_APPLY = "supervise.apply"
EVENT_RECOMMEND = "supervise.recommend"
EVENT_SUPPRESS = "supervise.suppress"
EVENT_VERIFY = "supervise.verify"

_DECISION_EVENTS = {
    "applied": EVENT_APPLY,
    "recommended": EVENT_RECOMMEND,
    "suppressed": EVENT_SUPPRESS,
}


@dataclass(frozen=True)
class SupervisePolicy:
    """Self-healing knobs for one run (immutable, picklable).

    Attributes
    ----------
    risk_budget:
        Risk-gate ceiling in ``[0, 1]``: actions scoring at or below it
        are auto-applied, the rest are recorded as recommendations.
        The default admits respawn/resubmit/reclaim but leaves
        ``degrade`` (0.6+) to the operator; pass 1.0 for fully
        autonomous degradation.
    stall_timeout_s:
        Parent-side heartbeat staleness threshold: a lane whose slot
        sequence has not moved for this long while a task is in flight
        is declared stuck.
    poll_interval_s:
        Upper bound on how long the runtime's dispatch loop waits
        between supervisor polls.
    deadline_risk_fraction:
        Fraction of the per-attempt deadline after which an in-flight
        task is flagged ``deadline-at-risk`` (advisory).
    breaker_threshold:
        Failures of one ``(variant, region)`` subject before the
        circuit breaker quarantines it.
    reclaim_orphans:
        Scan for (and, budget permitting, unlink) orphaned
        shared-memory segments at finalize time.
    """

    risk_budget: float = 0.5
    stall_timeout_s: float = 5.0
    poll_interval_s: float = 0.05
    deadline_risk_fraction: float = 0.8
    breaker_threshold: int = 3
    reclaim_orphans: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.risk_budget <= 1.0:
            raise ValidationError(
                f"risk_budget must be in [0, 1], got {self.risk_budget}"
            )
        if self.stall_timeout_s <= 0:
            raise ValidationError(
                f"stall_timeout_s must be positive, got {self.stall_timeout_s}"
            )
        if self.poll_interval_s <= 0:
            raise ValidationError(
                f"poll_interval_s must be positive, got {self.poll_interval_s}"
            )
        if not 0.0 < self.deadline_risk_fraction <= 1.0:
            raise ValidationError(
                "deadline_risk_fraction must be in (0, 1], got "
                f"{self.deadline_risk_fraction}"
            )
        if self.breaker_threshold < 1:
            raise ValidationError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )


def as_supervise_policy(value) -> SupervisePolicy | None:
    """Normalize the user-facing ``supervise`` knob.

    ``None`` / ``False`` → off, ``True`` → defaults, a
    :class:`SupervisePolicy` passes through.
    """
    if value is None or value is False:
        return None
    if value is True:
        return SupervisePolicy()
    if isinstance(value, SupervisePolicy):
        return value
    raise TypeError(
        f"supervise must be a bool or SupervisePolicy, got {value!r}"
    )


class Supervisor:
    """One run's remediation loop (parent-process side)."""

    def __init__(
        self,
        policy: SupervisePolicy,
        *,
        tracer=None,
        n_tasks: int = 1,
        clock=time.perf_counter,
    ) -> None:
        self.policy = policy
        self.monitor = HealthMonitor(
            stall_timeout_s=policy.stall_timeout_s,
            deadline_risk_fraction=policy.deadline_risk_fraction,
            clock=clock,
        )
        self.detector = Detector()
        self.proposer = Proposer()
        self.gate = RiskGate(policy.risk_budget)
        self.verifier = Verifier(tracer)
        self.ladder = DegradationLadder()
        self.breaker = CircuitBreaker(policy.breaker_threshold)
        self.records: list[RemediationRecord] = []
        self._pending: dict[str, list[RemediationRecord]] = {}
        self._tracer = resolve_tracer(tracer)
        self.n_tasks = max(n_tasks, 1)
        self._mailbox: HeartbeatMailbox | None = None

    # -- mailbox lifecycle ----------------------------------------------
    def open_mailbox(self, n_slots: int) -> HeartbeatMailbox:
        """Create the heartbeat mailbox and wire it into the monitor."""
        self._mailbox = HeartbeatMailbox.create(n_slots)
        self.monitor.mailbox = self._mailbox
        return self._mailbox

    def close_mailbox(self) -> None:
        if self._mailbox is not None:
            self.monitor.mailbox = None
            self._mailbox.close()
            self._mailbox = None

    # -- record plumbing -------------------------------------------------
    def _record(
        self, anomaly, action, decision: str, *, detail: str = "", verify_on=None
    ) -> RemediationRecord:
        rid = f"r{len(self.records)}"
        rec = RemediationRecord(rid, anomaly, action, decision, detail=detail)
        self.records.append(rec)
        self._tracer.instant(
            EVENT_ANOMALY,
            rid=rid,
            kind=anomaly.kind,
            subject=anomaly.subject,
            detail=anomaly.detail,
        )
        self._tracer.instant(
            _DECISION_EVENTS[decision],
            rid=rid,
            action=action.kind if action is not None else None,
            risk=round(action.risk, 4) if action is not None else None,
            target=anomaly.subject,
        )
        if decision == "applied" and verify_on is not None:
            self._pending.setdefault(verify_on, []).append(rec)
        return rec

    # -- lane occupancy hooks -------------------------------------------
    def job_started(
        self, slot: int, task_id: str, *, deadline_s: float | None = None
    ) -> None:
        self.monitor.job_started(slot, task_id, deadline_s=deadline_s)

    def job_finished(self, slot: int) -> None:
        self.monitor.job_finished(slot)

    # -- the loop --------------------------------------------------------
    def poll(self) -> list[RemediationRecord]:
        """Detect → propose → gate for the live signals.

        Returns the **applied** stuck-task records; the runtime executes
        them (respawn the lane, resubmit the task).  Deadline-at-risk
        anomalies are advisory and always recorded as recommendations.
        """
        applied: list[RemediationRecord] = []
        for sig in self.monitor.poll():
            anomaly = self.detector.classify(sig)
            radius = 1.0 / self.n_tasks
            if anomaly.kind == "deadline-at-risk":
                actions = self.proposer.propose(anomaly, blast_radius=radius)
                self._record(
                    anomaly,
                    actions[0] if actions else None,
                    "recommended",
                    detail="advisory: pre-emptive degrade available",
                )
                continue
            if self.breaker.tripped(anomaly.subject):
                self._record(
                    anomaly,
                    self.proposer.quarantine(anomaly.subject, blast_radius=radius),
                    "suppressed",
                    detail=(
                        f"breaker tripped after "
                        f"{self.breaker.failures(anomaly.subject)} failures"
                    ),
                )
                continue
            actions = self.proposer.propose(anomaly, blast_radius=radius)
            action = self.gate.first_applicable(actions)
            if action is None:
                self._record(
                    anomaly, actions[0] if actions else None, "recommended"
                )
                continue
            # Every remediation of the same subject counts toward its
            # breaker: a task that keeps stalling gets quarantined.
            self.breaker.record_failure(anomaly.subject)
            applied.append(
                self._record(anomaly, action, "applied", verify_on=anomaly.subject)
            )
        return applied

    def on_exhausted(
        self,
        task_id: str,
        *,
        submissions: int,
        budget: int,
        blast_radius: float,
        breaker_key=None,
        axis: str = "substrate",
        rung: str = "lanes",
    ) -> tuple[RemediationRecord, LadderStep | None]:
        """Submission budget exhausted: crash loop.

        Consults the breaker, then the ladder for the next rung on
        ``axis`` below ``rung``, and gates a ``degrade`` action.  The
        runtime executes the returned step (``None`` means: fall back
        to the normal permanent-failure path).
        """
        signal = HealthMonitor.exhausted(task_id, submissions, budget)
        anomaly = self.detector.classify(signal)
        key = breaker_key if breaker_key is not None else task_id
        if self.breaker.tripped(key):
            rec = self._record(
                anomaly,
                self.proposer.quarantine(str(key), blast_radius=blast_radius),
                "suppressed",
                detail=f"breaker tripped for {key!r}",
            )
            return rec, None
        self.breaker.record_failure(key)
        step = self.ladder.next_step(axis, rung)
        if step is None:
            rec = self._record(
                anomaly,
                None,
                "recommended",
                detail=f"already at the {axis} ladder floor ({rung})",
            )
            return rec, None
        actions = self.proposer.propose(
            anomaly, blast_radius=blast_radius, ladder_hint=step.label
        )
        action = self.gate.first_applicable(actions)
        if action is None:
            rec = self._record(
                anomaly,
                actions[0] if actions else None,
                "recommended",
                detail=f"risk budget {self.policy.risk_budget:g} too low",
            )
            return rec, None
        rec = self._record(anomaly, action, "applied", verify_on=task_id)
        return rec, step

    def on_crash(
        self, task_id: str, *, submissions: int, budget: int, blast_radius: float
    ) -> RemediationRecord:
        """Repeated failed attempts with budget remaining: gate the retry.

        The runtime calls it on a task's second and later failures —
        a raised attempt or a worker death alike, on every lane set.

        Does not count toward the breaker — the submission budget already
        bounds how long a crash loop can run; the breaker only meters
        supervisor-driven remediations (stalls and ladder steps).
        """
        signal = HealthMonitor.crash_looping(task_id, submissions, budget)
        anomaly = self.detector.classify(signal)
        if self.breaker.tripped(task_id):
            return self._record(
                anomaly,
                self.proposer.quarantine(task_id, blast_radius=blast_radius),
                "suppressed",
                detail=f"breaker tripped for {task_id!r}",
            )
        actions = self.proposer.propose(anomaly, blast_radius=blast_radius)
        action = self.gate.first_applicable(actions)
        if action is None:
            return self._record(
                anomaly, actions[0] if actions else None, "recommended"
            )
        return self._record(anomaly, action, "applied", verify_on=task_id)

    def on_corruption(
        self, task_id: str, detail: str, *, blast_radius: float
    ) -> RemediationRecord:
        """A result failed ``verify_result``: gate the resubmission."""
        signal = HealthMonitor.corruption(task_id, detail)
        anomaly = self.detector.classify(signal)
        actions = self.proposer.propose(anomaly, blast_radius=blast_radius)
        action = self.gate.first_applicable(actions)
        if action is None:
            return self._record(
                anomaly, actions[0] if actions else None, "recommended"
            )
        return self._record(anomaly, action, "applied", verify_on=task_id)

    def on_replanned(
        self, group_id: str, donor_id: str, *, blast_radius: float
    ) -> RemediationRecord:
        """The planner re-planned a chain onto surviving donors.

        Re-planning is the scheduler's built-in fallback (the registry
        only offers surviving inclusion-legal donors), so the record is
        always ``applied``; verification resolves when the re-planned
        group completes.
        """
        signal = HealthMonitor.exhausted(donor_id, 0, 0)
        anomaly = self.detector.classify(signal)
        action = self.proposer.replan(group_id, donor_id, blast_radius=blast_radius)
        return self._record(
            anomaly,
            action,
            "applied",
            detail="scheduler fallback: surviving-donor re-plan",
            verify_on=group_id,
        )

    # -- verification ----------------------------------------------------
    def task_done(self, target: str, ok: bool, detail: str = "") -> None:
        """Resolve every pending verification registered on ``target``."""
        for rec in self._pending.pop(target, []):
            self.verifier.resolve(rec, ok, detail)

    def has_pending(self, target: str) -> bool:
        return bool(self._pending.get(target))

    # -- finalize --------------------------------------------------------
    def finalize(self) -> None:
        """Close the loop: fail dangling verifications, reclaim orphans."""
        for target in list(self._pending):
            self.task_done(target, False, "task never completed")
        if not self.policy.reclaim_orphans:
            return
        segments = scan_segments()
        for sig in HealthMonitor.orphan_signals(segments):
            anomaly = self.detector.classify(sig)
            actions = self.proposer.propose(anomaly)
            action = self.gate.first_applicable(actions)
            if action is None:
                self._record(
                    anomaly, actions[0] if actions else None, "recommended"
                )
                continue
            rec = self._record(anomaly, action, "applied")
            removed = unlink_segment(anomaly.subject)
            self.verifier.resolve(
                rec,
                removed,
                "segment unlinked" if removed else "unlink failed",
            )
