"""Deterministic fault injection for batch execution.

Production parallel-clustering systems treat worker failure as a
first-class event; testing that requires *reproducible* failure.  A
:class:`FaultPlan` is a declarative list of :class:`FaultSpec` entries,
each keyed on the **canonical variant index** in the batch's
:class:`~repro.core.variants.VariantSet`, the **attempt number**, and
the **phase** of the attempt it fires in.  The runtime ships each
variant's own attempt number with every unit it submits, so variant
tasks (through :func:`repro.exec._runner.attempt_variant`) and
shard/merge tasks (through the runtime's shard pipeline) consult the
plan the same way on inline and process lanes, and one plan yields the
same per-variant outcomes on every executor (only a process-lane
worker honors ``kill``/``stall`` in full).

Fault kinds
-----------
``crash``
    Raise :class:`~repro.util.errors.InjectedFaultError` — a worker
    exception that the retry machinery must absorb.
``hang``
    Sleep ``hang_s`` wall seconds, cooperatively checking the active
    deadline; with a deadline set the hang converts into a
    :class:`~repro.util.errors.VariantTimeoutError`, without one it
    merely delays the variant.
``corrupt``
    Let the variant compute, then scramble its labels so the result
    fails :func:`verify_result` — exercising the integrity audit and
    the retry path after wasted work.
``kill``
    Terminate the worker **process** via ``os._exit`` — only honored
    inside process-pool workers (see :func:`allow_kill_faults`); every
    other backend downgrades it to ``crash`` so a stray plan can never
    take down the caller's interpreter.
``stall``
    Stop emitting heartbeats while appearing busy.  Inside an armed
    process-pool worker the sleep is **uncooperative** (no deadline
    polling) — the parent-side supervisor must notice the stale
    heartbeat and respawn the lane.  Everywhere else it degrades to a
    cooperative ``hang`` so an in-process backend cannot wedge.
``slow``
    Cooperative delay of ``hang_s`` seconds, then the variant completes
    normally.  Exercises deadline-at-risk detection without failure.

Setting ``task`` instead of an index targets one task-graph node
(``shard:eps/minpts#region`` / ``merge:eps/minpts`` ids from
:mod:`repro.core.taskgraph`), resolved by :meth:`BoundFaultPlan.find_task`.

Random plans are drawn through :func:`repro.util.rng.resolve_rng`, so a
seeded :meth:`FaultPlan.random` is bit-reproducible like every other
stochastic input in the library.
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.result import ClusteringResult
from repro.core.variants import Variant, VariantSet
from repro.util.errors import (
    CorruptResultError,
    InjectedFaultError,
    ValidationError,
    VariantTimeoutError,
)
from repro.util.rng import SeedLike, resolve_rng

__all__ = [
    "FAULT_KINDS",
    "FAULT_PHASES",
    "FaultPlan",
    "FaultSpec",
    "allow_kill_faults",
    "fire",
    "kill_faults_allowed",
    "verify_result",
]

#: Recognised fault kinds (see module docstring).
FAULT_KINDS = ("crash", "hang", "corrupt", "kill", "stall", "slow")

#: ``start`` fires before the variant computes, ``finish`` after.
FAULT_PHASES = ("start", "finish")

#: Process-local arming flag for ``kill`` faults; set only inside
#: process-pool workers so an in-process backend can never ``_exit``
#: the caller's interpreter.
_KILL_ARMED = False


def allow_kill_faults(allowed: bool = True) -> None:
    """Arm (or disarm) ``kill`` faults in this process.

    Called by the process-pool worker bootstrap; everywhere else the
    flag stays False and ``kill`` behaves like ``crash``.
    """
    global _KILL_ARMED
    _KILL_ARMED = bool(allowed)


def kill_faults_allowed() -> bool:
    return _KILL_ARMED


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: fire ``kind`` at (index, attempt, phase).

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    index:
        Canonical position of the target variant in the batch's
        :class:`VariantSet` (eps non-decreasing, minpts non-increasing).
    attempt:
        Which attempt triggers the fault (0 = the first execution);
        a fault at attempt 0 with retries enabled tests recovery, a
        fault repeated across every attempt tests permanent failure.
    phase:
        ``start`` (before any work) or ``finish`` (after the result is
        computed — wasted work on retry, and the only phase where
        ``corrupt`` is meaningful).
    hang_s:
        Sleep duration for ``hang`` / ``stall`` / ``slow`` faults,
        wall seconds.
    task:
        When set, the spec targets one concrete task-graph node id
        (``shard:…#r`` or ``merge:…``) instead of a variant index;
        ``index`` is then ignored and may be ``-1``.
    """

    kind: str
    index: int
    attempt: int = 0
    phase: str = "start"
    hang_s: float = 0.0
    task: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.phase not in FAULT_PHASES:
            raise ValidationError(
                f"unknown fault phase {self.phase!r}; expected one of {FAULT_PHASES}"
            )
        if self.task is None and self.index < 0:
            raise ValidationError(f"fault index must be >= 0, got {self.index}")
        if self.attempt < 0:
            raise ValidationError(f"fault attempt must be >= 0, got {self.attempt}")
        if self.kind == "corrupt" and self.phase != "finish":
            raise ValidationError("corrupt faults only make sense at phase='finish'")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable schedule of deterministic faults.

    Index-keyed specs are resolved against a concrete variant set with
    :meth:`bind`; the bound lookup table travels to process-pool
    workers so every backend consults the same schedule.
    """

    specs: tuple[FaultSpec, ...] = ()

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        object.__setattr__(self, "specs", tuple(specs))

    def __len__(self) -> int:
        return len(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def random(
        cls,
        n_variants: int,
        *,
        n_crashes: int = 0,
        n_hangs: int = 0,
        n_corruptions: int = 0,
        hang_s: float = 0.1,
        seed: SeedLike = None,
    ) -> FaultPlan:
        """A seeded random plan over ``n_variants`` distinct targets.

        Each fault lands on a distinct variant index (sampled without
        replacement through :func:`~repro.util.rng.resolve_rng`), fires
        on attempt 0, so a run with retries enabled must recover from
        every one of them.
        """
        total = n_crashes + n_hangs + n_corruptions
        if total > n_variants:
            raise ValidationError(
                f"cannot place {total} faults on {n_variants} distinct variants"
            )
        rng = resolve_rng(seed)
        targets = rng.choice(n_variants, size=total, replace=False)
        specs: list[FaultSpec] = []
        cursor = 0
        for kind, count in (
            ("crash", n_crashes),
            ("hang", n_hangs),
            ("corrupt", n_corruptions),
        ):
            for _ in range(count):
                idx = int(targets[cursor])
                cursor += 1
                phase = "finish" if kind == "corrupt" else "start"
                specs.append(
                    FaultSpec(kind, idx, phase=phase,
                              hang_s=hang_s if kind == "hang" else 0.0)
                )
        return cls(specs)

    def bind(self, vset: VariantSet) -> BoundFaultPlan:
        """Resolve index-keyed specs against a concrete variant set.

        Specs whose index falls outside the set are ignored (a plan may
        be reused across differently-sized batches).  Task-id keyed
        specs bind verbatim — task ids already name a concrete node.
        """
        table: dict[tuple, FaultSpec] = {}
        for spec in self.specs:
            if spec.task is not None:
                table[(spec.task, spec.attempt, spec.phase)] = spec
                continue
            if spec.index >= len(vset):
                continue
            key = (vset[spec.index].as_tuple(), spec.attempt, spec.phase)
            table[key] = spec
        return BoundFaultPlan(table)


@dataclass(frozen=True)
class BoundFaultPlan:
    """A :class:`FaultPlan` resolved to concrete variants (picklable)."""

    table: dict

    def find(self, variant: Variant, attempt: int, phase: str) -> FaultSpec | None:
        return self.table.get((variant.as_tuple(), attempt, phase))

    def find_task(self, task_id: str, attempt: int, phase: str) -> FaultSpec | None:
        """Look up a spec keyed on a task-graph node id (shard/merge)."""
        return self.table.get((task_id, attempt, phase))

    def __len__(self) -> int:
        return len(self.table)

    def __bool__(self) -> bool:
        return bool(self.table)


def fire(
    spec: FaultSpec | None,
    *,
    deadline_s: float | None = None,
    started_at: float | None = None,
    result: ClusteringResult | None = None,
) -> None:
    """Execute ``spec`` (a no-op for ``None``).

    ``corrupt`` damages ``result`` in place.  ``hang`` sleeps in small
    slices so an active deadline converts the hang into a
    :class:`VariantTimeoutError` as soon as the attempt budget is
    exhausted rather than after the full sleep.  ``stall`` inside an
    armed pool worker sleeps *without* polling the deadline (the
    supervisor must notice the stale heartbeat); elsewhere it degrades
    to a cooperative hang.  ``slow`` always sleeps cooperatively and
    then lets the attempt proceed.
    """
    if spec is None:
        return
    if spec.kind == "corrupt":
        assert result is not None
        corrupt_result(result)
        return
    if spec.kind == "kill" and kill_faults_allowed():
        os._exit(86)  # simulated worker death; parent must recover
    if spec.kind in ("crash", "kill"):
        raise InjectedFaultError(
            f"injected {spec.kind} (variant index {spec.index}, "
            f"attempt {spec.attempt}, phase {spec.phase})"
        )
    if spec.kind == "slow" or (spec.kind == "stall" and kill_faults_allowed()):
        # Delay without converting to a timeout error: a slow task
        # still completes; an armed stall is uncooperative by design
        # and survives only until the parent respawns the lane.
        remaining = spec.hang_s
        while remaining > 0.0:
            slice_s = min(remaining, 0.01)
            time.sleep(slice_s)
            remaining -= slice_s
        return
    if spec.kind in ("hang", "stall"):
        t0 = started_at if started_at is not None else time.perf_counter()
        remaining = spec.hang_s
        while remaining > 0.0:
            slice_s = min(remaining, 0.01)
            time.sleep(slice_s)
            remaining -= slice_s
            if (
                deadline_s is not None
                and time.perf_counter() - t0 > deadline_s
            ):
                raise VariantTimeoutError(
                    f"injected {spec.kind} exceeded the {deadline_s:g}s "
                    f"deadline (variant index {spec.index})"
                )


def corrupt_result(result: ClusteringResult) -> ClusteringResult:
    """Damage ``result`` in place so :func:`verify_result` rejects it.

    Opens a gap in the dense cluster-id range (or, for all-noise
    results, truncates the label array) — the kinds of damage a torn
    write or a crashed worker's half-filled buffer would produce.
    """
    labels = result.labels.copy()
    if result.n_clusters > 0:
        labels[labels >= 0] += 1  # ids 1..k: gap at 0 breaks density
    else:
        labels = labels[:-1]
    result.labels = labels
    return result


def verify_result(result: ClusteringResult, n_points: int) -> None:
    """Integrity audit of a completed (or checkpoint-loaded) result.

    Checks the invariants every legitimate clustering satisfies: label
    and core arrays cover exactly the database, noise is the only
    negative id, and cluster ids are the dense range ``0..k-1``.
    Raises :class:`CorruptResultError` on any violation.
    """
    labels = result.labels
    if labels.ndim != 1 or labels.shape[0] != n_points:
        raise CorruptResultError(
            f"labels shape {labels.shape!r} does not cover {n_points} points"
        )
    if result.core_mask.shape != labels.shape:
        raise CorruptResultError(
            f"core_mask shape {result.core_mask.shape!r} does not match labels"
        )
    if labels.size:
        lo = int(labels.min())
        if lo < -1:
            raise CorruptResultError(f"labels contain invalid id {lo}")
        hi = int(labels.max())
        if hi >= 0:
            present = np.unique(labels[labels >= 0])
            if present.size != hi + 1:
                raise CorruptResultError(
                    f"cluster ids are not dense: {present.size} distinct ids, "
                    f"max id {hi}"
                )
