"""The run contract: one immutable object carries a run's state.

:class:`RunContext` bundles the store, indexes, strategies and knobs
that :class:`~repro.engine.session.Session` assembles once per run and
every runtime substrate consumes uniformly.

Runtime imports here are deliberately minimal (dataclass + typing);
the concrete types live in their own layers and are only imported for
type checking, keeping ``engine.context`` importable from anywhere in
the stack without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.reuse import ReusePolicy
    from repro.core.scheduling import Scheduler
    from repro.engine.factory import IndexFactory, IndexPair
    from repro.engine.store import PointStore
    from repro.exec.cost import CostModel
    from repro.obs.span import Tracer
    from repro.resilience.checkpoint import CheckpointStore
    from repro.resilience.faults import FaultPlan
    from repro.resilience.policy import RetryPolicy
    from repro.supervise.supervisor import SupervisePolicy

__all__ = ["KERNELS", "RunContext"]


def _null_tracer() -> Tracer:
    """Default tracer factory: the process-wide disabled null tracer.

    Imported lazily so ``engine.context`` keeps its minimal runtime
    import surface (the concrete tracer lives in the util layer).
    """
    from repro.util.tracing import NULL_TRACER

    return NULL_TRACER

#: How an executor clusters a batch's variants: ``cellgraph`` serves
#: every variant from one grid-cell pass per eps
#: (:class:`repro.core.cellgraph.MinptsPass`; byte-identical to BFS
#: DBSCAN, no reuse); ``bfs`` is the paper's path, per-point Algorithm 1
#: for scratch variants and VariantDBSCAN reuse (Algorithms 3/4) for
#: the rest.
KERNELS = ("bfs", "cellgraph")


@dataclass(frozen=True)
class RunContext:
    """Everything the runtime needs to execute one variant batch.

    Attributes
    ----------
    store:
        The immutable point database (shared-memory capable).
    indexes:
        The built ``(T_high, T_low)`` pair for Algorithm 3.
    scheduler:
        Variant ordering + reuse-source selection strategy.
    reuse_policy:
        Cluster-seed prioritisation inside VariantDBSCAN.
    cost_model:
        Work-unit pricing for response times / the simulated clock.
    n_threads:
        Worker count ``T`` for this run.
    batch_size:
        Epsilon-search engine block size (``<= 1`` = scalar loops).
    tracer:
        Resolved span collector for the run (never ``None``; disabled
        tracing is the null tracer).
    dataset:
        Label stamped onto the batch record for reporting.
    retry_policy:
        Per-variant deadline/retry configuration; ``None`` keeps the
        legacy raise-through failure semantics.
    fault_plan:
        Deterministic fault-injection schedule for this run (a
        :class:`FaultPlan`, or the bound form inside process workers);
        ``None`` injects nothing.
    checkpoint:
        Completed-result spill/resume store; ``None`` disables
        checkpointing.
    kernel:
        Clustering path (one of :data:`KERNELS`): ``cellgraph``
        (default) serves every variant from the cell-graph pass of its
        eps; ``bfs`` runs the paper's Algorithm 1 and reuse path.
    factory:
        Index factory used to memoize kernel-specific indexes (the
        cell-graph grid is per-eps) across the run; ``None`` builds
        them transiently.
    regions:
        Spatial region count for shard and hybrid lowering; ``None``
        lets ``part_size`` (or the worker count) decide.  Ignored by
        variant lowering.
    part_size:
        Target points per region for shard and hybrid lowering (region
        count becomes ``ceil(n / part_size)``); ``None`` defers to
        ``regions`` / the worker count.  Ignored by variant lowering.
    shard_threshold:
        Point count at which hybrid lowering fans a *from-scratch*
        variant out into shard/merge tasks (see
        :mod:`repro.core.taskgraph`).  ``None`` applies
        :data:`~repro.core.taskgraph.DEFAULT_SHARD_THRESHOLD` under
        hybrid lowering (and keeps the ``simulated`` executor off it);
        ``0`` shards every scratch variant.
    supervisor:
        Self-healing supervision knobs
        (:class:`~repro.supervise.supervisor.SupervisePolicy`):
        heartbeat stall timeout, risk budget for auto-remediation, and
        the graceful-degradation ladder settings.  ``None`` (default)
        disables supervision entirely.
    """

    store: PointStore
    indexes: IndexPair
    scheduler: Scheduler
    reuse_policy: ReusePolicy
    cost_model: CostModel
    n_threads: int = 1
    batch_size: int = 0
    tracer: Tracer = field(repr=False, default_factory=_null_tracer)
    dataset: str = ""
    retry_policy: RetryPolicy | None = None
    fault_plan: FaultPlan | None = None
    checkpoint: CheckpointStore | None = None
    kernel: str = "cellgraph"
    factory: IndexFactory | None = field(repr=False, default=None)
    regions: int | None = None
    part_size: int | None = None
    shard_threshold: int | None = None
    supervisor: SupervisePolicy | None = None

    @property
    def points(self) -> np.ndarray:
        """The read-only point array (convenience for ``store.points``)."""
        return self.store.points

    def with_(self, **changes) -> RunContext:
        """A copy with the given fields replaced (contexts are frozen)."""
        return replace(self, **changes)
