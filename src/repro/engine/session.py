"""The session engine: one owner for dataset, indexes, run knobs, tracer.

The paper's premise (Section IV) is that one in-memory database ``D``
and its two R-trees are built **once** and shared by every variant.
:class:`Session` is that premise as an object:

* it owns the immutable :class:`~repro.engine.store.PointStore`
  (shared-memory capable, content-fingerprinted);
* it owns an :class:`~repro.engine.factory.IndexFactory`, so
  ``T_high``/``T_low`` are built once per session and reused across
  every run, benchmark iteration, and figure driver;
* it assembles the :class:`~repro.engine.context.RunContext` each run
  and executes it on :class:`~repro.exec.graph.GraphRuntime` under the
  named executor's substrate and lowering — the single seam every
  layer (CLI, benchmarks, figure drivers) routes through.

Usage::

    from repro import Session, VariantSet

    with Session(points, dataset="SW1") as session:
        batch = session.run(VariantSet.from_product([0.5, 0.7], [4]))
        again = session.run(variants, executor="processes", n_threads=8)

The context-manager form guarantees that any shared-memory segments
the session materialized (for process-pool runs) are unlinked even when
a worker raises.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.dbscan import DEFAULT_BATCH_SIZE
from repro.core.reuse import CLUS_DENSITY, POLICIES, ReusePolicy
from repro.core.scheduling import SCHEDULERS, Scheduler
from repro.core.variant_dbscan import DEFAULT_LOW_RES_R
from repro.core.variants import VariantSet
from repro.engine.context import KERNELS, RunContext
from repro.engine.factory import IndexFactory, IndexPair
from repro.engine.store import PointStore
from repro.obs.span import Tracer, resolve_tracer
from repro.util.errors import SessionClosedError
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.exec.base import BatchResult
    from repro.exec.cost import CostModel
    from repro.index.base import SpatialIndex
    from repro.resilience.checkpoint import CheckpointStore
    from repro.resilience.faults import FaultPlan
    from repro.resilience.policy import RetryPolicy
    from repro.supervise.supervisor import SupervisePolicy

__all__ = ["Session"]


def _as_scheduler(value: str | Scheduler | None) -> Scheduler | None:
    if value is None or isinstance(value, Scheduler):
        return value
    try:
        return SCHEDULERS[value]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {value!r}; expected one of {sorted(SCHEDULERS)}"
        ) from None


def _check_knobs(
    *,
    n_threads: int | None = None,
    low_res_r: int | None = None,
    batch_size: int | None = None,
    kernel: str | None = None,
    regions: int | None = None,
    part_size: int | None = None,
    shard_threshold: int | None = None,
) -> None:
    """Raise :class:`ValueError` on an out-of-range run knob.

    The one validation point for run knobs, whether they arrive as
    session defaults or per-run overrides; ``None`` means "not set".
    """
    for name, value in (
        ("n_threads", n_threads),
        ("low_res_r", low_res_r),
        ("regions", regions),
        ("part_size", part_size),
    ):
        if value is not None:
            check_positive_int(value, name=name)
    for name, value in (("batch_size", batch_size), ("shard_threshold", shard_threshold)):
        if value is not None and int(value) < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if kernel is not None and kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {list(KERNELS)}")
    if regions is not None and part_size is not None:
        raise ValueError("pass at most one of regions / part_size")


def _as_policy(value: str | ReusePolicy | None) -> ReusePolicy | None:
    if value is None or isinstance(value, ReusePolicy):
        return value
    try:
        return POLICIES[value]
    except KeyError:
        raise KeyError(
            f"unknown reuse policy {value!r}; expected one of {sorted(POLICIES)}"
        ) from None


class Session:
    """Owns one database plus everything derived from it.

    Parameters
    ----------
    points:
        ``(n, 2)`` array-like, or an existing
        :class:`~repro.engine.store.PointStore` to adopt (the session
        then owns its lifecycle).
    dataset:
        Label stamped onto batch records (overridable per run).
    low_res_r:
        Default points-per-MBB for ``T_low``.
    fanout:
        R-tree fanout for factory-built trees.
    scheduler / reuse_policy:
        Default strategy objects (or registry names) for runs.
    cost_model:
        Work-unit pricing; defaults to the library's calibrated model.
    batch_size:
        Default block size of the batched epsilon-search engine;
        ``<= 1`` selects the scalar reference loops (identical results
        and counters).
    kernel:
        Default clustering path, one of
        :data:`~repro.engine.context.KERNELS`: ``cellgraph`` (one exact
        pass per eps serves every variant) or ``bfs`` (the paper's
        reuse path); overridable per run.
    regions / part_size:
        Default spatial partitioning for the sharded, hybrid and
        simulated executors (``regions`` fixes the region count,
        ``part_size`` derives it as ``ceil(n / part_size)``); ignored
        by variant lowering.  At most one may be set.
    shard_threshold:
        Default point count at which hybrid lowering fans a
        from-scratch variant out into shard/merge tasks (``None``
        applies :data:`~repro.core.taskgraph.DEFAULT_SHARD_THRESHOLD`
        under ``hybrid`` and keeps ``simulated`` off hybrid lowering;
        ``0`` shards every scratch variant).
    supervise:
        Session-wide default for the self-healing supervisor
        (:mod:`repro.supervise`): ``True`` enables the default
        :class:`~repro.supervise.supervisor.SupervisePolicy`, a policy
        instance tunes it, ``None``/``False`` (default) disables.  Can
        be overridden per run.
    tracer:
        Span collector for everything the session does; ``None``
        resolves to the globally active tracer at each use.
    """

    def __init__(
        self,
        points: np.ndarray | PointStore,
        *,
        dataset: str = "",
        low_res_r: int = DEFAULT_LOW_RES_R,
        fanout: int = 16,
        scheduler: str | Scheduler | None = None,
        reuse_policy: str | ReusePolicy = CLUS_DENSITY,
        cost_model: CostModel | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        kernel: str = "cellgraph",
        regions: int | None = None,
        part_size: int | None = None,
        shard_threshold: int | None = None,
        supervise: SupervisePolicy | bool | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if cost_model is None:
            from repro.exec.cost import DEFAULT_COST_MODEL

            cost_model = DEFAULT_COST_MODEL
        _check_knobs(
            low_res_r=low_res_r,
            batch_size=batch_size,
            kernel=kernel,
            regions=regions,
            part_size=part_size,
            shard_threshold=shard_threshold,
        )
        self.store = PointStore.from_points(points)
        self.factory = IndexFactory()
        self.dataset = dataset
        self.low_res_r = int(low_res_r)
        self.fanout = check_positive_int(fanout, name="fanout")
        self.scheduler = _as_scheduler(scheduler)
        self.reuse_policy = _as_policy(reuse_policy)
        self.cost_model = cost_model
        self.batch_size = int(batch_size)
        self.kernel = kernel
        self.regions = int(regions) if regions is not None else None
        self.part_size = int(part_size) if part_size is not None else None
        self.shard_threshold = (
            int(shard_threshold) if shard_threshold is not None else None
        )
        from repro.supervise.supervisor import as_supervise_policy

        self.supervise = as_supervise_policy(supervise)
        self.tracer = tracer
        self._closed = False
        self._active_runs = 0

    # -- derived state --------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        return self.store.points

    @property
    def n_points(self) -> int:
        return self.store.n_points

    @property
    def closed(self) -> bool:
        return self._closed

    def indexes(
        self, low_res_r: int | None = None, *, fanout: int | None = None
    ) -> IndexPair:
        """The memoized ``(T_high, T_low)`` pair at the given resolution."""
        return self.factory.index_pair(
            self.store,
            low_res_r if low_res_r is not None else self.low_res_r,
            fanout=fanout if fanout is not None else self.fanout,
            tracer=resolve_tracer(self.tracer),
        )

    def index(self, kind: str, **params: object) -> SpatialIndex:
        """A memoized single index of ``kind`` (rtree/grid/kdtree/brute)."""
        return self.factory.get(
            self.store, kind, tracer=resolve_tracer(self.tracer), **params
        )

    # -- execution ------------------------------------------------------
    def context(
        self,
        *,
        scheduler: str | Scheduler | None = None,
        policy: str | ReusePolicy | None = None,
        n_threads: int | None = None,
        low_res_r: int | None = None,
        batch_size: int | None = None,
        cost_model: CostModel | None = None,
        dataset: str | None = None,
        kernel: str | None = None,
        regions: int | None = None,
        part_size: int | None = None,
        shard_threshold: int | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        checkpoint: CheckpointStore | None = None,
        supervise: SupervisePolicy | bool | None = None,
    ) -> RunContext:
        """Assemble the :class:`RunContext` for one run.

        Each knob is the explicit argument when given, else the session
        default.  ``supervise=False`` switches supervision off for one
        run regardless of the session default.
        """
        if self._closed:
            raise SessionClosedError("Session is closed")
        _check_knobs(
            n_threads=n_threads,
            low_res_r=low_res_r,
            batch_size=batch_size,
            kernel=kernel,
            regions=regions,
            part_size=part_size,
            shard_threshold=shard_threshold,
        )
        from repro.core.scheduling import SchedGreedy

        sched = _as_scheduler(scheduler)
        sched = sched if sched is not None else (self.scheduler or SchedGreedy())
        pol = _as_policy(policy)
        if regions is None and part_size is None:
            regions = self.regions
            part_size = self.part_size
        from repro.supervise.supervisor import as_supervise_policy

        if supervise is False:
            sup = None
        elif supervise is not None:
            sup = as_supervise_policy(supervise)
        else:
            sup = self.supervise
        return RunContext(
            store=self.store,
            indexes=self.indexes(low_res_r),
            scheduler=sched,
            reuse_policy=pol if pol is not None else self.reuse_policy,
            cost_model=cost_model if cost_model is not None else self.cost_model,
            n_threads=int(n_threads) if n_threads is not None else 1,
            batch_size=int(batch_size) if batch_size is not None else self.batch_size,
            tracer=resolve_tracer(self.tracer),
            dataset=dataset if dataset is not None else self.dataset,
            retry_policy=retry_policy,
            fault_plan=fault_plan,
            checkpoint=checkpoint,
            kernel=kernel if kernel is not None else self.kernel,
            factory=self.factory,
            regions=regions,
            part_size=part_size,
            shard_threshold=(
                int(shard_threshold)
                if shard_threshold is not None
                else self.shard_threshold
            ),
            supervisor=sup,
        )

    def run(
        self,
        variants: VariantSet,
        *,
        executor: str = "serial",
        scheduler: str | Scheduler | None = None,
        policy: str | ReusePolicy | None = None,
        n_threads: int | None = None,
        low_res_r: int | None = None,
        batch_size: int | None = None,
        cost_model: CostModel | None = None,
        dataset: str | None = None,
        kernel: str | None = None,
        regions: int | None = None,
        part_size: int | None = None,
        shard_threshold: int | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        resume: str | Path | CheckpointStore | None = None,
        supervise: SupervisePolicy | bool | None = None,
    ) -> BatchResult:
        """Execute every variant and return the batch result.

        ``executor`` names a row of :data:`repro.exec.EXECUTORS`
        (``serial`` / ``simulated`` / ``processes`` / ``sharded`` /
        ``hybrid``): the runtime substrate and lowering
        the batch runs on.  ``serial`` always runs with one worker.
        All other knobs override the session defaults for this run
        only; indexes come from the memoized factory, so repeated runs
        never rebuild them.

        Resilience knobs: ``retry_policy`` grants per-variant deadlines
        and retries, ``fault_plan`` injects deterministic failures (a
        plan without a policy implies a zero-retry policy so failures
        are *captured* into ``BatchResult.report`` rather than raised),
        and ``resume`` names a checkpoint directory — finished variants
        spill there as they complete and a rerun over byte-identical
        data skips them.  Any of the three makes the run resilient: a
        permanently failed variant no longer aborts the batch, and
        dependents re-plan onto surviving donors.

        ``supervise`` attaches the self-healing supervisor (heartbeat
        monitoring, risk-gated remediation, graceful degradation — see
        :mod:`repro.supervise`): ``True`` for the default policy, a
        :class:`~repro.supervise.supervisor.SupervisePolicy` to tune
        it, ``False`` to switch off the session default.  Supervision
        implies a resilient run.
        """
        from repro.exec import EXECUTORS
        from repro.exec.graph import GraphRuntime

        if self._closed:
            raise SessionClosedError("Session is closed")
        if executor not in EXECUTORS:
            raise KeyError(
                f"unknown executor {executor!r}; expected one of {sorted(EXECUTORS)}"
            )
        if not isinstance(variants, VariantSet):
            variants = VariantSet(variants)
        ctx = self.context(
            scheduler=scheduler,
            policy=policy,
            n_threads=n_threads,
            low_res_r=low_res_r,
            batch_size=batch_size,
            cost_model=cost_model,
            dataset=dataset,
            kernel=kernel,
            regions=regions,
            part_size=part_size,
            shard_threshold=shard_threshold,
            retry_policy=retry_policy,
            fault_plan=fault_plan,
            checkpoint=self._resolve_checkpoint(resume),
            supervise=supervise,
        )
        if executor == "serial":
            ctx = ctx.with_(n_threads=1)
        substrate, mode = EXECUTORS[executor]
        if mode is None:
            if ctx.shard_threshold is not None:
                mode = "hybrid"
            elif ctx.regions is not None or ctx.part_size is not None:
                mode = "shard"
            else:
                mode = "variant"
        self._active_runs += 1
        try:
            result = GraphRuntime(substrate).run(ctx, variants, mode=mode)
        finally:
            self._active_runs -= 1
        record = result.record
        record.executor = executor
        record.n_threads = ctx.n_threads
        record.scheduler = ctx.scheduler.name
        record.reuse_policy = ctx.reuse_policy.name
        record.dataset = ctx.dataset
        return result

    def _resolve_checkpoint(
        self, resume: str | Path | CheckpointStore | None
    ) -> CheckpointStore | None:
        """A :class:`CheckpointStore` for this database, or ``None``."""
        if resume is None:
            return None
        from repro.resilience.checkpoint import CheckpointStore

        if isinstance(resume, CheckpointStore):
            return resume
        return CheckpointStore(resume, self.store.fingerprint, self.n_points)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release everything the session owns.

        Unlinks any shared-memory segment the store materialized,
        drops the index cache, and audits this process's own segment
        registry so nothing survives even if an executor leaked.
        Raises :class:`~repro.util.errors.SessionClosedError` on a
        double close or a close while a run is still executing — both
        are lifecycle bugs that previously surfaced later as opaque
        shared-memory ``FileNotFoundError`` in whoever touched the
        store next.
        """
        if self._closed:
            raise SessionClosedError("Session is already closed")
        if self._active_runs > 0:
            raise SessionClosedError(
                f"cannot close Session while {self._active_runs} run(s) are "
                "still executing"
            )
        self._closed = True
        segment = self.store.segment_name
        self.factory.clear()
        self.store.close()
        if segment is not None:
            # Owner-side audit scoped to *this* session's segment: even
            # if the ordinary unlink above was skipped (a BufferError
            # path, an interrupted close), nothing of ours survives.
            # Never audit process-wide here — other sessions in this
            # process legitimately own their own live segments.
            from repro.engine.shm import reclaim_segments

            reclaim_segments([segment])

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *exc: object) -> None:
        if not self._closed:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"Session(n={self.store.n_points}, dataset={self.dataset!r}, "
            f"indexes_cached={len(self.factory)}, {state})"
        )
