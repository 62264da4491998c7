"""The run contract: one spec of knobs, one context of resources.

:class:`RunSpec` is every knob a batch run takes, validated and
normalized in one place; the paper's reuse-path knobs nest in a
:class:`ReuseSpec`.  :class:`RunContext` pairs a spec with the
resources a :class:`~repro.engine.session.Session` owns (store,
indexes, factory, tracer, checkpoint store); every runtime substrate
consumes it uniformly.

``repro.exec`` imports this module, so the executor table and the
default cost model are imported inside ``RunSpec.__post_init__``; the
concrete resource types are only imported for type checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dbscan import DEFAULT_BATCH_SIZE
from repro.core.reuse import POLICIES, ReusePolicy
from repro.core.scheduling import SCHEDULERS, Scheduler
from repro.core.variant_dbscan import DEFAULT_LOW_RES_R
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path

    from repro.engine.factory import IndexFactory, IndexPair
    from repro.engine.store import PointStore
    from repro.exec.cost import CostModel
    from repro.obs.span import Tracer
    from repro.resilience.checkpoint import CheckpointStore
    from repro.resilience.faults import FaultPlan
    from repro.resilience.policy import RetryPolicy
    from repro.supervise.supervisor import SupervisePolicy

__all__ = ["KERNELS", "ReuseSpec", "RunContext", "RunSpec"]


def _null_tracer() -> Tracer:
    """Default tracer factory: the process-wide disabled null tracer."""
    from repro.util.tracing import NULL_TRACER

    return NULL_TRACER

#: How an executor clusters a batch's variants: ``cellgraph`` serves
#: every variant from one grid-cell pass per eps
#: (:class:`repro.core.cellgraph.MinptsPass`; byte-identical to BFS
#: DBSCAN, no reuse); ``bfs`` is the paper's path, per-point Algorithm 1
#: for scratch variants and VariantDBSCAN reuse (Algorithms 3/4) for
#: the rest.
KERNELS = ("bfs", "cellgraph")


def _lookup(value, kind: type, registry: dict, what: str):
    """``value`` itself when it is a ``kind``, else its registry entry."""
    if isinstance(value, kind):
        return value
    try:
        return registry[value]
    except (KeyError, TypeError):
        raise KeyError(
            f"unknown {what} {value!r}; expected one of {sorted(registry)}"
        ) from None


def _check_non_negative(name: str, value: int | None) -> None:
    if value is not None and int(value) < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class ReuseSpec:
    """The paper's reuse-path knobs; only ``kernel="bfs"`` reads them.

    Attributes
    ----------
    scheduler:
        Variant ordering and reuse-source selection (Section V-B): a
        :class:`~repro.core.scheduling.Scheduler` or its registry name.
    policy:
        Cluster-seed prioritisation inside VariantDBSCAN (Section V-C):
        a :class:`~repro.core.reuse.ReusePolicy` or its registry name.
    low_res_r:
        Points per leaf MBB of ``T_low`` (Section IV).
    batch_size:
        Epsilon-search engine block size (``<= 1`` = scalar loops,
        identical results and counters).
    """

    scheduler: Scheduler | str = "SCHEDGREEDY"
    policy: ReusePolicy | str = "CLUSDENSITY"
    low_res_r: int = DEFAULT_LOW_RES_R
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        set_(self, "scheduler", _lookup(self.scheduler, Scheduler, SCHEDULERS, "scheduler"))
        set_(self, "policy", _lookup(self.policy, ReusePolicy, POLICIES, "reuse policy"))
        set_(self, "low_res_r", check_positive_int(self.low_res_r, name="low_res_r"))
        _check_non_negative("batch_size", self.batch_size)
        set_(self, "batch_size", int(self.batch_size))


#: Field names of :class:`ReuseSpec`, accepted flat by :meth:`RunSpec.override`.
REUSE_FIELDS = tuple(f.name for f in fields(ReuseSpec))


@dataclass(frozen=True)
class RunSpec:
    """Every knob of one batch run; validated and normalized on creation.

    Attributes
    ----------
    executor:
        A row of :data:`repro.exec.EXECUTORS`: the runtime substrate and
        lowering the batch runs on.  ``serial`` runs with one worker.
    n_threads:
        Worker count ``T``.
    kernel:
        Clustering path (one of :data:`KERNELS`): ``cellgraph`` serves
        every variant from the cell-graph pass of its eps; ``bfs`` runs
        the paper's Algorithm 1 and reuse path.
    reuse:
        The paper-path knobs.  Rejected unless ``kernel="bfs"``, where
        ``None`` means ``ReuseSpec()``.
    regions / part_size:
        Spatial partitioning for shard and hybrid lowering (``regions``
        fixes the region count, ``part_size`` derives it as
        ``ceil(n / part_size)``; ``None`` for both lets the worker count
        decide).  At most one may be set; ignored by variant lowering.
    shard_threshold:
        Point count at which hybrid lowering fans a *from-scratch*
        variant out into shard/merge tasks (see
        :mod:`repro.core.taskgraph`).  ``None`` applies
        :data:`~repro.core.taskgraph.DEFAULT_SHARD_THRESHOLD` under
        ``hybrid`` and keeps ``simulated`` off hybrid lowering; ``0``
        shards every scratch variant.
    cost_model:
        Work-unit pricing; ``None`` means the library's calibrated
        model.
    dataset:
        Label stamped onto the batch record.
    retry_policy:
        Per-variant deadline/retry configuration; ``None`` keeps the
        raise-through failure semantics.
    fault_plan:
        Deterministic fault-injection schedule; ``None`` injects
        nothing.  A plan without a policy implies a zero-retry policy,
        so failures are captured into the report instead of raised.
    resume:
        Checkpoint directory (or store): finished variants spill there
        and a rerun over byte-identical data skips them.
    supervise:
        The self-healing supervisor (:mod:`repro.supervise`): ``True``
        for the default policy, a
        :class:`~repro.supervise.supervisor.SupervisePolicy` to tune
        it; ``None``/``False`` disable.  Normalized to a policy or
        ``None``.
    """

    executor: str = "serial"
    n_threads: int = 1
    kernel: str = "cellgraph"
    reuse: ReuseSpec | None = None
    regions: int | None = None
    part_size: int | None = None
    shard_threshold: int | None = None
    cost_model: CostModel | None = None
    dataset: str = ""
    retry_policy: RetryPolicy | None = None
    fault_plan: FaultPlan | None = None
    resume: str | Path | CheckpointStore | None = None
    supervise: SupervisePolicy | bool | None = None

    def __post_init__(self) -> None:
        from repro.exec import EXECUTORS
        from repro.supervise.supervisor import as_supervise_policy

        set_ = object.__setattr__
        if not isinstance(self.executor, str) or self.executor not in EXECUTORS:
            raise KeyError(
                f"unknown executor {self.executor!r}; "
                f"expected one of {sorted(EXECUTORS)}"
            )
        set_(self, "n_threads", check_positive_int(self.n_threads, name="n_threads"))
        if self.kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; expected one of {list(KERNELS)}"
            )
        if self.kernel == "bfs" and self.reuse is None:
            set_(self, "reuse", ReuseSpec())
        elif self.kernel != "bfs" and self.reuse is not None:
            raise ValueError(
                f"reuse knobs ({', '.join(REUSE_FIELDS)}) apply to "
                f"kernel='bfs' only, not kernel={self.kernel!r}"
            )
        for name in ("regions", "part_size"):
            value = getattr(self, name)
            if value is not None:
                set_(self, name, check_positive_int(value, name=name))
        if self.regions is not None and self.part_size is not None:
            raise ValueError("pass at most one of regions / part_size")
        _check_non_negative("shard_threshold", self.shard_threshold)
        if self.shard_threshold is not None:
            set_(self, "shard_threshold", int(self.shard_threshold))
        if self.cost_model is None:
            from repro.exec.cost import DEFAULT_COST_MODEL

            set_(self, "cost_model", DEFAULT_COST_MODEL)
        set_(self, "supervise", as_supervise_policy(self.supervise))

    @property
    def effective_reuse(self) -> ReuseSpec:
        """The reuse knobs in force: :attr:`reuse`, else the defaults.

        A ``cellgraph`` run has no reuse spec; it still plans with the
        default scheduler, and its records name the default policy.
        """
        return self.reuse or ReuseSpec()

    def override(self, **changes) -> RunSpec:
        """A copy with ``changes`` applied, then validated.

        ``changes`` are field names, or :class:`ReuseSpec` field names
        (``scheduler=``, ``policy=``, ``low_res_r=``, ``batch_size=``),
        which update the nested reuse spec.  Setting one of ``regions``
        / ``part_size`` replaces the pair.  Switching ``kernel`` away
        from ``bfs`` drops the reuse spec unless reuse knobs are given
        too (which then raise).
        """
        flat = {k: changes.pop(k) for k in REUSE_FIELDS if k in changes}
        if "regions" in changes or "part_size" in changes:
            changes = {"regions": None, "part_size": None, **changes}
        if flat or "kernel" in changes:
            kernel = changes.get("kernel", self.kernel)
            reuse = changes.get("reuse", self.reuse if kernel == "bfs" else None)
            changes["reuse"] = replace(reuse or ReuseSpec(), **flat) if flat else reuse
        return replace(self, **changes)


@dataclass(frozen=True)
class RunContext:
    """One run's :class:`RunSpec` plus the resources its session owns.

    Attributes
    ----------
    store:
        The immutable point database (shared-memory capable).
    indexes:
        The built ``(T_high, T_low)`` pair for Algorithm 3.
    spec:
        The run's knobs.
    tracer:
        Resolved span collector for the run (never ``None``; disabled
        tracing is the null tracer).
    factory:
        Index factory used to memoize kernel-specific indexes (the
        cell-graph grid is per-eps) across the run; ``None`` builds
        them transiently.
    checkpoint:
        The checkpoint store ``spec.resume`` resolves to for this
        database; ``None`` disables checkpointing.
    """

    store: PointStore
    indexes: IndexPair
    spec: RunSpec
    tracer: Tracer = field(repr=False, default_factory=_null_tracer)
    factory: IndexFactory | None = field(repr=False, default=None)
    checkpoint: CheckpointStore | None = None

    @property
    def points(self) -> np.ndarray:
        """The read-only point array (convenience for ``store.points``)."""
        return self.store.points
