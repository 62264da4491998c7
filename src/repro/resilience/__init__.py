"""Fault tolerance for variant batches: inject, retry, re-plan, resume.

The paper's throughput win (reuse chains + greedy scheduling) makes a
batch fragile — one crashed or hung variant strands every dependent in
its chain.  This package makes worker failure a first-class event:

* :mod:`~repro.resilience.faults` — deterministic fault injection
  (:class:`FaultPlan`) honored by every executor backend;
* :mod:`~repro.resilience.policy` — per-variant deadlines and capped
  exponential-backoff retries (:class:`RetryPolicy`);
* :mod:`~repro.resilience.report` — the partial-failure result
  contract (:class:`BatchReport` with per-variant
  :class:`VariantStatus`, and :func:`classify_replans`);
* :mod:`~repro.resilience.checkpoint` — crash-safe spill/resume of
  completed results keyed on the database fingerprint
  (:class:`CheckpointStore`);
* :mod:`~repro.resilience.audit` — shared-memory leak audit behind
  ``repro doctor``.

The runtime (:class:`repro.exec.graph.GraphRuntime`) is the one
consumer: its failure handler decides every retry, backoff,
supervisor gate, ladder step and permanent failure.  See
``docs/ARCHITECTURE.md`` ("Failure model & recovery").
"""

from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import (
    FAULT_KINDS,
    FAULT_PHASES,
    FaultPlan,
    FaultSpec,
    verify_result,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.report import BatchReport, VariantOutcome, VariantStatus, classify_replans

__all__ = [
    "BatchReport",
    "CheckpointStore",
    "FAULT_KINDS",
    "FAULT_PHASES",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "VariantOutcome",
    "VariantStatus",
    "classify_replans",
    "verify_result",
]
