"""The remediation loop: detector → proposer → risk gate → verifier.

Modeled on the k8s-auto-fix pattern named in the roadmap: raw health
signals are **classified** into typed anomalies, each anomaly maps to a
small set of **candidate actions** drawn from a registry, a **risk
gate** scores each action by blast radius and only auto-applies below a
configurable budget (above it the action is recorded as a
recommendation for the operator), and a **verifier** closes the loop by
checking that the remediated task actually completed — an applied
action without a verified outcome is a bug, and the chaos soak suite
asserts the pairing span-by-span.

Action risk is *static base risk* (how invasive the mechanism is)
plus a blast-radius term (how much of the batch the action touches):
``risk = base + 0.5 * blast_radius``, capped at 1.0.  Reclaiming one
orphaned segment is near-free; degrading a variant down the ladder
re-plans real work and sits near the top.

Construction discipline: :class:`Action` objects are built only inside
this module's :class:`Proposer` registry — the executor contract rule
(``repro check``) flags ad-hoc Action construction elsewhere, so every
remediation the runtime executes is one the registry proposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.supervise.signals import ANOMALY_KINDS, Anomaly, Signal

__all__ = [
    "ACTION_KINDS",
    "Action",
    "Detector",
    "Proposer",
    "RemediationRecord",
    "RiskGate",
    "Verifier",
]

#: Remediation mechanisms the runtime knows how to execute.
ACTION_KINDS = (
    "respawn-lane",
    "resubmit-task",
    "replan-chain",
    "reclaim-segment",
    "degrade",
    "quarantine",
)

#: Static base risk per mechanism (blast radius is added on top).
BASE_RISK = {
    "reclaim-segment": 0.05,
    "replan-chain": 0.15,
    "resubmit-task": 0.2,
    "respawn-lane": 0.35,
    "degrade": 0.6,
    "quarantine": 0.9,
}

#: Signal source → anomaly kind (the classification table).
_CLASSIFY = {
    "heartbeat": "stuck-task",
    "counters": "crash-loop",
    "integrity": "merge-corruption",
    "audit": "shm-leak",
    "deadline": "deadline-at-risk",
}


@dataclass(frozen=True)
class Action:
    """One candidate remediation (see :data:`ACTION_KINDS`).

    ``blast_radius`` is the fraction of the batch the action touches
    (one task out of N → 1/N; a whole reuse-chain group → k/N).
    """

    kind: str
    target: str
    detail: str = ""
    blast_radius: float = 0.0

    @property
    def risk(self) -> float:
        """Blast-radius-weighted risk score in ``[0, 1]``."""
        return min(1.0, BASE_RISK[self.kind] + 0.5 * self.blast_radius)


class Detector:
    """Classifies raw :class:`Signal` observations into typed anomalies."""

    def classify(self, signal: Signal) -> Anomaly:
        kind = _CLASSIFY.get(signal.source)
        if kind is None:
            raise ValueError(f"unclassifiable signal source {signal.source!r}")
        assert kind in ANOMALY_KINDS
        return Anomaly(kind=kind, subject=signal.subject, detail=signal.detail)

    def classify_all(self, signals: list[Signal]) -> list[Anomaly]:
        return [self.classify(s) for s in signals]


def _propose_stuck(anomaly: Anomaly, blast_radius: float, ladder_hint: str | None):
    return [
        Action(
            "respawn-lane",
            target=anomaly.subject,
            detail="kill the wedged lane pool and resubmit the task",
            blast_radius=blast_radius,
        )
    ]


def _propose_crash_loop(anomaly, blast_radius, ladder_hint):
    # Budget exhausted (the caller names the next rung): degrade.  Budget
    # remaining: the cheap mechanism is another submission.
    if ladder_hint:
        return [
            Action(
                "degrade",
                target=anomaly.subject,
                detail=f"degrade {ladder_hint}",
                blast_radius=blast_radius,
            )
        ]
    return [
        Action(
            "resubmit-task",
            target=anomaly.subject,
            detail="resubmit after repeated failed attempts",
            blast_radius=blast_radius,
        )
    ]


def _propose_leak(anomaly, blast_radius, ladder_hint):
    return [
        Action(
            "reclaim-segment",
            target=anomaly.subject,
            detail="unlink the orphaned shared-memory segment",
            blast_radius=blast_radius,
        )
    ]


def _propose_corruption(anomaly, blast_radius, ladder_hint):
    return [
        Action(
            "resubmit-task",
            target=anomaly.subject,
            detail="re-run the task; the corrupt result was discarded",
            blast_radius=blast_radius,
        )
    ]


def _propose_deadline(anomaly, blast_radius, ladder_hint):
    detail = "pre-emptively lower the task before the deadline"
    if ladder_hint:
        detail = f"pre-emptively degrade {ladder_hint}"
    return [
        Action(
            "degrade",
            target=anomaly.subject,
            detail=detail,
            blast_radius=blast_radius,
        )
    ]


_DEFAULT_PROPOSALS = {
    "stuck-task": _propose_stuck,
    "crash-loop": _propose_crash_loop,
    "shm-leak": _propose_leak,
    "merge-corruption": _propose_corruption,
    "deadline-at-risk": _propose_deadline,
}


class Proposer:
    """Registry of anomaly-kind → candidate-action generators.

    The registry is the *only* sanctioned construction site for
    :class:`Action` objects (enforced by ``repro check``); custom
    entries registered here inherit that discipline.
    """

    def __init__(self) -> None:
        self._registry = dict(_DEFAULT_PROPOSALS)

    def register(self, kind: str, fn) -> None:
        if kind not in ANOMALY_KINDS:
            raise ValueError(f"unknown anomaly kind {kind!r}")
        self._registry[kind] = fn

    def propose(
        self,
        anomaly: Anomaly,
        *,
        blast_radius: float = 0.0,
        ladder_hint: str | None = None,
    ) -> list[Action]:
        """Ordered candidate actions for ``anomaly`` (best first)."""
        fn = self._registry.get(anomaly.kind)
        if fn is None:
            return []
        return fn(anomaly, blast_radius, ladder_hint)

    def replan(self, group_id: str, donor_id: str, *, blast_radius: float = 0.0):
        """The replan-chain action (donor died; re-plan onto survivors)."""
        return Action(
            "replan-chain",
            target=group_id,
            detail=f"failed donor {donor_id}; re-plan onto surviving donors",
            blast_radius=blast_radius,
        )

    def quarantine(self, subject: str, *, blast_radius: float = 0.0):
        """Circuit-breaker action: stop remediating this subject."""
        return Action(
            "quarantine",
            target=subject,
            detail="circuit breaker tripped; no further remediation",
            blast_radius=blast_radius,
        )


class RiskGate:
    """Auto-apply below the risk budget; recommend above it."""

    def __init__(self, risk_budget: float) -> None:
        if not 0.0 <= risk_budget <= 1.0:
            raise ValueError(
                f"risk_budget must be in [0, 1], got {risk_budget}"
            )
        self.risk_budget = risk_budget

    def decide(self, action: Action) -> str:
        """``"apply"`` or ``"recommend"`` for one candidate action."""
        return "apply" if action.risk <= self.risk_budget else "recommend"

    def first_applicable(self, actions: list[Action]) -> Action | None:
        """The first candidate the budget admits, or ``None``."""
        for action in actions:
            if self.decide(action) == "apply":
                return action
        return None


@dataclass
class RemediationRecord:
    """One detected anomaly with its action, risk, and verifier outcome.

    Surfaced in :attr:`repro.resilience.report.BatchReport.remediations`
    — the acceptance contract is that *every* detected anomaly appears
    here, whether the action was auto-applied, merely recommended, or
    suppressed by the circuit breaker.
    """

    rid: str
    anomaly: Anomaly
    action: Action | None
    decision: str  # "applied" | "recommended" | "suppressed"
    verdict: str | None = None  # "verified" | "failed" | None (no check due)
    detail: str = field(default="")

    def as_dict(self) -> dict:
        return {
            "rid": self.rid,
            "anomaly": self.anomaly.as_dict(),
            "action": (
                {
                    "kind": self.action.kind,
                    "target": self.action.target,
                    "detail": self.action.detail,
                    "risk": round(self.action.risk, 4),
                }
                if self.action is not None
                else None
            ),
            "decision": self.decision,
            "verdict": self.verdict,
            "detail": self.detail,
        }


class Verifier:
    """Post-action check: did the remediation actually work?

    The runtime reports task completion (``verify_result`` already ran
    on the result) or permanent failure; segment reclaims re-scan the
    segment.  Every resolution lands on the record *and* in the trace
    as a ``supervise.verify`` instant keyed by the record id, so the
    soak suite can pair applied actions with verifier outcomes.
    """

    def __init__(self, tracer=None) -> None:
        from repro.obs.span import resolve_tracer

        self._tracer = resolve_tracer(tracer)

    def resolve(self, record: RemediationRecord, ok: bool, detail: str = "") -> None:
        record.verdict = "verified" if ok else "failed"
        if detail:
            record.detail = detail
        self._tracer.instant(
            "supervise.verify",
            rid=record.rid,
            action=record.action.kind if record.action else None,
            target=record.anomaly.subject,
            outcome=record.verdict,
        )
