"""Self-healing supervision for the task-graph runtime.

Layering: ``supervise`` sits above ``engine`` / ``resilience`` /
``obs`` and below ``exec.graph`` (the runtime calls in; this package
never imports ``repro.exec``).

* :mod:`repro.supervise.signals` — heartbeat mailbox, worker pulse,
  and the parent-side :class:`HealthMonitor` producing typed events;
* :mod:`repro.supervise.remedy` — the detector → proposer →
  risk-gate → verifier loop and the :class:`RemediationRecord`
  surfaced in :class:`~repro.resilience.report.BatchReport`;
* :mod:`repro.supervise.ladder` — the graceful-degradation ladder and
  the remediation circuit breaker;
* :mod:`repro.supervise.supervisor` — :class:`SupervisePolicy` (the
  knob object threaded through :class:`~repro.engine.session.Session`)
  and the :class:`Supervisor` orchestrator.
"""

from repro.supervise.ladder import (
    DEFAULT_LADDER,
    CircuitBreaker,
    LadderStep,
    next_step,
)
from repro.supervise.remedy import (
    ACTION_KINDS,
    Action,
    Detector,
    Proposer,
    RemediationRecord,
    RiskGate,
    Verifier,
)
from repro.supervise.signals import (
    ANOMALY_KINDS,
    Anomaly,
    HealthMonitor,
    HeartbeatMailbox,
    PulseHandle,
    Signal,
    WorkerPulse,
    worker_pulse,
)
from repro.supervise.supervisor import (
    SupervisePolicy,
    Supervisor,
    as_supervise_policy,
)

__all__ = [
    "ACTION_KINDS",
    "ANOMALY_KINDS",
    "Action",
    "Anomaly",
    "CircuitBreaker",
    "DEFAULT_LADDER",
    "Detector",
    "HealthMonitor",
    "HeartbeatMailbox",
    "LadderStep",
    "Proposer",
    "PulseHandle",
    "RemediationRecord",
    "RiskGate",
    "Signal",
    "SupervisePolicy",
    "Supervisor",
    "Verifier",
    "WorkerPulse",
    "as_supervise_policy",
    "next_step",
    "worker_pulse",
]
