"""The unified executor contract: one object carries a run's state.

Before the engine refactor every executor method threaded seven-plus
positional arguments (``points, variants, indexes, scheduler,
reuse_policy, cost_model, tracer, batch knobs...``) through three
layers; :class:`RunContext` collapses them into a single immutable
carrier that :class:`~repro.engine.session.Session` (or the
compatibility path in :class:`~repro.exec.base.BaseExecutor`)
assembles once per run and every backend consumes uniformly.

Backends read **all** configuration from the context — never from
executor instance attributes — so a single executor instance can serve
many sessions/configurations, and the context is the one seam future
sharding/async/service layers need to extend.

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
    from repro.core.neighcache import NeighborhoodCache
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
    """Everything a backend needs to execute one variant batch.

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
    cache:
        Per-run neighborhood cache shared across the batch's variants,
        or ``None`` when caching is disabled.
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
        Spatial region count for the sharded executor; ``None`` lets
        ``part_size`` (or the worker count) decide.  Ignored by the
        variant-parallel backends.
    part_size:
        Target points per region for the sharded executor (region
        count becomes ``ceil(n / part_size)``); ``None`` defers to
        ``regions`` / the worker count.  Ignored by the
        variant-parallel backends.
    shard_threshold:
        Point count at which hybrid lowering fans a *from-scratch*
        variant out into shard/merge tasks (see
        :mod:`repro.core.taskgraph`).  ``None`` leaves the choice to
        the backend (the hybrid executor applies
        :data:`~repro.core.taskgraph.DEFAULT_SHARD_THRESHOLD`; the
        simulated executor lowers variant-only); ``0`` shards every
        scratch variant.
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
    cache: NeighborhoodCache | None = None
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
