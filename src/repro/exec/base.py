"""Executor framework: run a whole :class:`VariantSet` over one database.

An executor owns the policy knobs of Algorithm 3's outer ``parallel
for`` — worker count ``T``, the scheduler (Section IV-D), the cluster
reuse policy (Section IV-C), and the low-resolution index's ``r`` — and
produces a :class:`BatchResult` bundling every variant's
:class:`~repro.core.result.ClusteringResult` with the batch-level
:class:`~repro.metrics.records.BatchRunRecord` that the figures are
drawn from.

Since the session-engine refactor, backends implement
``_run(ctx, variants)`` against a single immutable
:class:`~repro.engine.context.RunContext` carrying the store, indexes,
strategies, cache and tracer — assembled either by
:class:`repro.Session` (the preferred entry point) or by the
compatibility :meth:`BaseExecutor.run` shim, which still accepts a bare
point array.

Concrete backends (every one a lowering policy over the task-graph
runtime in :mod:`repro.exec.graph`):

* :class:`~repro.exec.serial.SerialExecutor` — one thread, queue order.
* :class:`~repro.exec.threadpool.ThreadPoolExecutorBackend` — real
  Python threads sharing the indexes and registry.
* :class:`~repro.exec.procpool.ProcessPoolExecutorBackend` — processes,
  reuse chains partitioned across workers (GIL-free); workers attach
  the parent's shared-memory store and index pack instead of pickling
  points and rebuilding trees.
* :class:`~repro.exec.sharded.ShardedExecutor` — processes over
  spatial regions with eps halos inside each variant; the parent
  merges the pieces back into byte-identical canonical labels.
* :class:`~repro.exec.hybrid.HybridExecutor` — both axes on one pool:
  large from-scratch variants shard across regions concurrently with
  other variants' reuse chains.
* :class:`~repro.exec.simulated.SimulatedExecutor` — deterministic
  work-unit clock pricing any of the above lowerings; the backend used
  to reproduce the paper's scaling figures.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dbscan import DEFAULT_BATCH_SIZE
from repro.core.neighcache import NeighborhoodCache
from repro.core.result import ClusteringResult
from repro.core.reuse import CLUS_DENSITY, ReusePolicy
from repro.core.scheduling import Scheduler, SchedGreedy
from repro.core.variant_dbscan import DEFAULT_LOW_RES_R
from repro.core.variants import Variant, VariantSet
from repro.engine.context import KERNELS, RunContext
from repro.engine.factory import IndexFactory, IndexPair
from repro.engine.store import PointStore
from repro.exec.cost import DEFAULT_COST_MODEL, CostModel
from repro.metrics.records import BatchRunRecord
from repro.obs.span import Tracer, resolve_tracer
from repro.supervise.supervisor import SupervisePolicy, as_supervise_policy
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.report import BatchReport

__all__ = ["BatchResult", "BaseExecutor", "IndexPair", "RunContext"]


@dataclass
class BatchResult:
    """Everything produced by executing a variant set.

    Attributes
    ----------
    results:
        Completed clustering per variant.  Under a resilient run this
        may be a strict subset of the variant set — permanently failed
        variants are absent here and accounted in :attr:`report`.
    record:
        Batch-level run record (per-variant rows, makespan, config).
    report:
        Per-variant outcome statuses (ok / retried / replanned /
        resumed / failed) when the run executed with any resilience
        configuration (retry policy, fault plan, or checkpoint);
        ``None`` for plain runs.
    """

    results: dict[Variant, ClusteringResult]
    record: BatchRunRecord
    report: BatchReport | None = None

    def __getitem__(self, variant: Variant) -> ClusteringResult:
        return self.results[variant]

    def __len__(self) -> int:
        return len(self.results)


class BaseExecutor(abc.ABC):
    """Shared configuration and context plumbing for all backends.

    Parameters
    ----------
    n_threads:
        Worker count ``T``.  For the simulated executor this is the
        modeled thread count; for thread/process backends it is the
        real pool size.
    scheduler:
        Variant ordering + reuse-source selection strategy.
    reuse_policy:
        Cluster-seed prioritisation inside VariantDBSCAN.
    low_res_r:
        Points per MBB for the epsilon-search tree ``T_low``.
    cost_model:
        Work-unit pricing (used by the simulated executor and for the
        work-unit response times recorded by every backend).
    batch_size:
        Block size for the batched epsilon-search engine inside each
        variant run; ``<= 1`` selects the scalar reference loops
        (identical results and counters, more Python overhead).
    cache_bytes:
        Capacity of the per-eps neighborhood cache shared across the
        batch's variants; ``0`` (the default) disables caching.  The
        shared-memory backends (serial, threads, simulated) share one
        cache across all variants; the process backend gives each
        worker its own.
    tracer:
        Span/phase collector for the batch (see :mod:`repro.obs`);
        ``None`` (the default) resolves to the active tracer at run
        time, which is a disabled null tracer unless one was installed
        with :func:`repro.obs.set_tracer` / ``use_tracer``.
    kernel:
        Clustering path, one of :data:`~repro.engine.context.KERNELS`:
        ``cellgraph`` (default) serves every variant from one exact
        grid-cell pass per eps; ``bfs`` runs the paper's Algorithm 1
        and VariantDBSCAN reuse path.
    regions / part_size:
        Spatial partitioning knobs consumed by the sharded, hybrid,
        and simulated executors (``regions`` fixes the region count,
        ``part_size`` derives it as ``ceil(n / part_size)``); ignored
        by the variant-parallel backends.  At most one may be set.
    shard_threshold:
        Point count at which hybrid lowering fans a from-scratch
        variant out into shard/merge tasks (see
        :mod:`repro.core.taskgraph`).  ``None`` (default) leaves the
        choice to the backend; ``0`` shards every scratch variant.
    supervise:
        Self-healing supervision for the run: ``True`` enables the
        default :class:`~repro.supervise.supervisor.SupervisePolicy`,
        a policy instance customizes the knobs (risk budget, stall
        timeout, …), ``None``/``False`` disables.  Implies a resilient
        run (a default retry policy when none is passed).
    """

    name: str = "?"
    #: Backends that always execute with one worker regardless of the
    #: requested thread count (so sessions can clamp the context).
    single_threaded: bool = False

    def __init__(
        self,
        n_threads: int = 1,
        *,
        scheduler: Scheduler | None = None,
        reuse_policy: ReusePolicy = CLUS_DENSITY,
        low_res_r: int = DEFAULT_LOW_RES_R,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cache_bytes: int = 0,
        tracer: Tracer | None = None,
        kernel: str = "cellgraph",
        regions: int | None = None,
        part_size: int | None = None,
        shard_threshold: int | None = None,
        supervise: SupervisePolicy | bool | None = None,
    ) -> None:
        self.n_threads = check_positive_int(n_threads, name="n_threads")
        self.scheduler = scheduler if scheduler is not None else SchedGreedy()
        self.reuse_policy = reuse_policy
        self.low_res_r = check_positive_int(low_res_r, name="low_res_r")
        self.cost_model = cost_model
        self.batch_size = int(batch_size)
        if self.batch_size < 0:
            raise ValueError(f"batch_size must be >= 0, got {batch_size}")
        self.cache_bytes = int(cache_bytes)
        if self.cache_bytes < 0:
            raise ValueError(f"cache_bytes must be >= 0, got {cache_bytes}")
        self.tracer = tracer
        if kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {kernel!r}; expected one of {list(KERNELS)}"
            )
        self.kernel = kernel
        if regions is not None and part_size is not None:
            raise ValueError("pass at most one of regions / part_size")
        self.regions = (
            check_positive_int(regions, name="regions")
            if regions is not None
            else None
        )
        self.part_size = (
            check_positive_int(part_size, name="part_size")
            if part_size is not None
            else None
        )
        if shard_threshold is not None and int(shard_threshold) < 0:
            raise ValueError(
                f"shard_threshold must be >= 0, got {shard_threshold}"
            )
        self.shard_threshold = (
            int(shard_threshold) if shard_threshold is not None else None
        )
        self.supervise = as_supervise_policy(supervise)

    def _build_cache(self) -> NeighborhoodCache | None:
        """One fresh neighborhood cache per batch, or ``None`` if disabled."""
        if self.cache_bytes <= 0:
            return None
        return NeighborhoodCache(capacity_bytes=self.cache_bytes)

    def _tracer(self) -> Tracer:
        """The batch's tracer: explicit one, else the active tracer."""
        return resolve_tracer(self.tracer)

    @staticmethod
    def _trace_cache_stats(tracer: Tracer, cache: NeighborhoodCache | None) -> None:
        """Emit the batch's final cache statistics as an instant event."""
        if cache is None or not tracer.enabled:
            return
        s = cache.stats()
        tracer.instant(
            "cache.stats",
            hits=s.hits,
            misses=s.misses,
            evictions=s.evictions,
            entries=s.entries,
            bytes_stored=s.bytes_stored,
        )

    def make_context(
        self,
        store: PointStore,
        indexes: IndexPair,
        *,
        dataset: str = "",
    ) -> RunContext:
        """A :class:`RunContext` carrying this executor's configuration."""
        return RunContext(
            store=store,
            indexes=indexes,
            scheduler=self.scheduler,
            reuse_policy=self.reuse_policy,
            cost_model=self.cost_model,
            n_threads=self.n_threads,
            batch_size=self.batch_size,
            cache=self._build_cache(),
            tracer=self._tracer(),
            dataset=dataset,
            kernel=self.kernel,
            factory=IndexFactory(),
            regions=self.regions,
            part_size=self.part_size,
            shard_threshold=self.shard_threshold,
            supervisor=self.supervise,
        )

    def run(
        self,
        points: np.ndarray,
        variants: VariantSet,
        *,
        indexes: IndexPair | None = None,
        dataset: str = "",
    ) -> BatchResult:
        """Compatibility entry point over a bare point array.

        Builds a transient :class:`~repro.engine.store.PointStore` and
        :class:`RunContext` from this executor's configuration; any
        shared-memory segment materialized during the run (the process
        backend's) is unlinked before returning.  ``indexes`` may be
        passed to share tree construction across multiple batches over
        the same database.  Prefer :class:`repro.Session`, which keeps
        the store and built indexes alive across runs.
        """
        store = PointStore.from_points(points)
        transient = store is not points  # adopted arrays get a private store
        if indexes is None:
            indexes = IndexFactory().index_pair(
                store, self.low_res_r, tracer=self._tracer()
            )
        ctx = self.make_context(store, indexes, dataset=dataset)
        try:
            return self.run_context(ctx, variants)
        finally:
            if transient:
                store.close()

    def run_context(self, ctx: RunContext, variants: VariantSet) -> BatchResult:
        """Execute every variant under an assembled context.

        This is the unified entry point used by
        :meth:`repro.Session.run`; it stamps the batch record with the
        context's configuration after the backend finishes.
        """
        result = self._run(ctx, variants)
        result.record.scheduler = ctx.scheduler.name
        result.record.reuse_policy = ctx.reuse_policy.name
        result.record.dataset = ctx.dataset
        result.record.executor = self.name
        result.record.n_threads = ctx.n_threads
        return result

    @abc.abstractmethod
    def _run(self, ctx: RunContext, variants: VariantSet) -> BatchResult:
        """Backend-specific execution over an assembled context.

        Backends read **all** configuration from ``ctx`` — never from
        ``self`` — so one instance can serve many sessions.
        """

    def __repr__(self) -> str:
        extras = ""
        if self.regions is not None:
            extras += f", regions={self.regions}"
        if self.part_size is not None:
            extras += f", part_size={self.part_size}"
        if self.shard_threshold is not None:
            extras += f", shard_threshold={self.shard_threshold}"
        if self.supervise is not None:
            extras += f", supervise(budget={self.supervise.risk_budget:g})"
        return (
            f"{type(self).__name__}(T={self.n_threads}, sched={self.scheduler.name}, "
            f"reuse={self.reuse_policy.name}, r={self.low_res_r}, "
            f"kernel={self.kernel}{extras})"
        )
