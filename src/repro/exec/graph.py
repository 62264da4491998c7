"""The unified task-graph runtime every executor name lowers through.

An executor name (:data:`repro.exec.EXECUTORS`) picks a lowering mode
(:func:`repro.core.taskgraph.lower_variants`) and a **substrate**, and
:class:`GraphRuntime` executes the resulting DAG with one
dependency-aware dispatch loop.  The substrate only picks the *lane
set* that loop dispatches onto:

``sim`` (inline lanes)
    ``T`` virtual workers in the parent on the work-unit clock.  A unit
    is one task; it starts at ``max(lane free, hard-dep finishes)`` and
    lasts its cost-model price, ties broken by lane id, so the schedule
    is bit-reproducible.  Runs ``serial`` (``T = 1``) and ``simulated``
    (any lowering mode).  Shard and merge tasks execute for real and
    are priced per task, so a hybrid graph shows one variant's shards
    overlapping other variants' reuse chains on the modeled clock.
``lanes`` (process lanes)
    One single-process pool per lane on the wall clock, so a killed
    worker breaks exactly one lane.  A variant unit is a whole reuse
    chain run inside :func:`_chain_worker`; shard tasks fan out one
    region per lane and merge in the parent.

**One failure path.**  A unit attempt runs each unfinished variant of
its unit once, in chain order (:func:`repro.exec._runner.run_chain`),
and stops at the first failure.  Every lost attempt — a variant that
raised, timed out or failed its audit, a dead, hung or stuck worker, a
failed shard or a damaged merge — lands in the dispatch loop's one
failure handler.  It charges the attempt to the variants concerned,
then retries the unfinished suffix after a backoff, asks the
supervisor's risk gate, steps the unit down the degradation ladder, or
drops a variant permanently.  Checkpoint saves, outcome statuses and
backoff are computed once, in the parent, so a fault plan fires, and
supervision acts, the same way on both lane sets.  Every
run record's ``response_time`` is ``finish - start`` on its lane set's
clock.

Documented simplification: lane workers cannot share completed results
mid-flight (process isolation), so cross-group reuse is forfeited,
except that a *sharded donor's* merged result is shipped to dependent
groups at submission time, which is exactly the hard edge hybrid
lowering records.

Shared-memory economics: the parent materializes the point database
once per session and packs, once per batch, the built indexes the
batch's kernel reads — the ``(T_high, T_low)`` R-tree pair under
``bfs``, the session's per-eps cell grids under ``cellgraph`` (order,
offsets and cell keys only; workers derive the rest).  Every lane
worker attaches both (zero-copy) instead of pickling points or
rebuilding indexes, so a cellgraph worker builds no grid and maps no
R-tree.
"""

from __future__ import annotations

import ctypes
import functools
import heapq
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace

from repro.core.result import ClusteringResult
from repro.core.scheduling import (
    CompletedRegistry,
    PlannedVariant,
    dependency_tree,
)
from repro.core.shard import (
    ShardPiece,
    ShardPlan,
    cluster_shard,
    merge_shards,
    plan_shards,
    resolve_n_regions,
)
from repro.core.taskgraph import (
    TaskGraph,
    VariantTask,
    lower_variants,
    variant_task_id,
)
from repro.core.variants import Variant, VariantSet, sort_key
from repro.engine.context import ReuseSpec, RunContext, RunSpec
from repro.engine.factory import (
    IndexFactory,
    IndexPackHandle,
    attach_indexes,
    pair_params,
    share_indexes,
)
from repro.engine.shm import destroy_segment, release_segment
from repro.engine.store import PointStore, PointStoreHandle
from repro.exec._runner import PassMemo, finish_attempt, run_chain
from repro.exec.base import BatchResult
from repro.exec.cost import CostModel
from repro.metrics.counters import WorkCounters
from repro.metrics.records import BatchRunRecord, VariantRunRecord
from repro.obs.span import SPAN_TASK, SpanRecord, Tracer, set_tracer
from repro.resilience.faults import (
    BoundFaultPlan,
    FaultSpec,
    allow_kill_faults,
    fire,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.report import BatchReport, VariantOutcome, VariantStatus, classify_replans
from repro.supervise.signals import PulseHandle, worker_pulse
from repro.supervise.supervisor import Supervisor
from repro.util.errors import CorruptResultError, VariantTimeoutError

__all__ = [
    "EVENT_SHARD_PLAN",
    "GraphRuntime",
    "SUBSTRATES",
    "partition_reuse_chains",
]

#: Instant event emitted once per batch describing the shard partition.
EVENT_SHARD_PLAN = "shard_plan"

#: Obs instant events of the failure path.
EVENT_RETRY = "variant_retry"
EVENT_TIMEOUT = "variant_timeout"
EVENT_FAILED = "variant_failed"
EVENT_RESUMED = "variant_resumed"

#: Recognized execution substrates (see module docstring).
SUBSTRATES = ("sim", "lanes")


def partition_reuse_chains(
    variants: VariantSet, n_workers: int
) -> list[list[Variant]]:
    """Split a variant set into <= ``n_workers`` reuse-closed groups.

    Each returned group is ordered depth-first along the dependency
    tree, so executing it serially front-to-back always finds each
    variant's reuse source already completed (when the source is in the
    group).  Groups are balanced greedily by variant count.
    """
    tree = dependency_tree(variants)
    subtrees: list[list[Variant]] = []
    roots = sorted(
        (v for v, d in tree.nodes(data=True) if d.get("root")), key=sort_key
    )
    for root in roots:
        order: list[Variant] = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(sorted(tree.successors(v), key=sort_key, reverse=True))
        subtrees.append(order)

    # Split any subtree bigger than an even share into contiguous
    # depth-first chunks of near-equal size (a target-size prefix walk
    # would strand a tiny remainder chunk — e.g. a 13-variant chain on
    # 4 workers must become 4+3+3+3, not 4+4+4+1, or one worker idles).
    # A chunk cut leaves the suffix's first variant without its in-group
    # parent, so the suffix simply starts from scratch — correct, just
    # less reuse.
    target = max(1, -(-len(variants) // n_workers))  # ceil division
    pieces: list[list[Variant]] = []
    for st in subtrees:
        if len(st) <= target:
            pieces.append(st)
            continue
        k = -(-len(st) // target)
        base, extra = divmod(len(st), k)
        sizes = [base + 1] * extra + [base] * (k - extra)
        i = 0
        for size in sizes:
            pieces.append(st[i : i + size])
            i += size

    # Greedy largest-first bin packing onto the workers, balanced by
    # total variant count (singleton leftovers included).
    pieces.sort(key=len, reverse=True)
    bins: list[list[Variant]] = [[] for _ in range(min(n_workers, len(pieces)))]
    for piece in pieces:
        smallest = min(bins, key=len)
        smallest.extend(piece)
    return [b for b in bins if b]


def _wall_done(t0: float, thread_id: int, pairs: list):
    """A ``run_chain`` ``done`` callback that stamps measured wall time.

    Each record spans from the previous stamp (the first from this
    call) to its own ``done``, in seconds since ``t0``; its
    ``response_time`` is that span.  Completed pairs go to ``pairs``.
    """
    mark = time.perf_counter() - t0

    def done(result: ClusteringResult, record: VariantRunRecord) -> float:
        nonlocal mark
        finish = time.perf_counter() - t0
        record.start, record.finish, record.thread_id = mark, finish, thread_id
        record.response_time = finish - mark
        mark = finish
        pairs.append((result, record))
        return finish

    return done


def _chain_worker(
    store_handle: PointStoreHandle,
    idx_handle: IndexPackHandle,
    chain: list[tuple[float, int]],
    todo: list[tuple[PlannedVariant, int]],
    donors: list[tuple[tuple[float, int], ClusteringResult]],
    kernel: str,
    reuse: ReuseSpec | None,
    cost_model: CostModel,
    t0: float,
    trace: bool,
    policy: RetryPolicy | None = None,
    faults: BoundFaultPlan | None = None,
    pulse: PulseHandle | None = None,
    thread_id: int = 0,
):
    """Run one attempt of a reuse-chain unit inside a lane worker process.

    ``chain`` is the unit's whole chain (its variant set normalizes
    reuse distances), ``todo`` the ``(planned variant, attempt)`` pairs
    still to run, in chain order, and ``donors`` the results they may
    reuse: sharded donors the chain hard-depends on and the chain's own
    completed prefix.  Donors are seeded into the worker's completed
    registry at t = 0 (the registry accepts out-of-set donors —
    inclusion checks are pure variant arithmetic), so a resubmitted
    suffix sees exactly the sources it would have seen in one pass.
    ``kernel``, ``reuse`` and ``cost_model`` are the run's own: the
    worker picks sources with the caller's scheduler and seeds clusters
    with the caller's reuse policy.

    The worker attaches the parent's shared point segment and index
    pack (zero-copy views; spans ``shm_attach``) instead of receiving
    pickled points, and seeds its :class:`IndexFactory` with the packed
    indexes — the R-tree pair under ``bfs``, the chain's per-eps cell
    grids under ``cellgraph`` — so its kernel never builds an index
    (:class:`PassMemo` finds every grid in the factory).  The mapping is
    released in the ``finally``, whatever happened.  The tracer cannot cross
    the process boundary, so each worker builds its own and ships its
    spans back as plain records; they need no rebasing, because every
    tracer stamps :func:`time.perf_counter`, which is system-wide.
    ``kill`` faults are armed here, and only in workers, so they
    terminate a worker process and never an in-process caller.

    Each record carries its measured wall window (:func:`_wall_done`).
    Returns the completed ``(result, record)`` pairs, the first failure
    as ``(variant, error)`` (``None`` when the whole suffix ran) and the
    worker's spans.
    """
    allow_kill_faults(True)
    tracer = Tracer() if trace else None
    set_tracer(tracer)
    # The pulse is the last acquisition before the try so no fallible
    # setup sits between it and the finally that closes it.
    hb = worker_pulse(pulse)
    # Every acquisition below happens inside the try: attach or setup
    # failures (a torn-down segment after a parent crash, a bad handle)
    # must still release the pulse slot and any mapping already opened.
    store: PointStore | None = None
    idx_shm = None
    ctx = factory = None
    pairs: list[tuple[ClusteringResult, VariantRunRecord]] = []
    try:
        store = PointStore.attach(store_handle, tracer=tracer)
        factory = IndexFactory()
        idx_shm = attach_indexes(idx_handle, store, factory, tracer=tracer)
        ctx = RunContext(
            store=store,
            spec=RunSpec(kernel=kernel, reuse=reuse, cost_model=cost_model),
            factory=factory,
            **({"tracer": tracer} if tracer is not None else {}),
        )
        registry = CompletedRegistry()
        for (e, m), donor_result in donors:
            registry.add(Variant(e, m), donor_result, finished_at=0.0)
        # Records are stamped from here on, after attach, in seconds since
        # the parent's t0: perf_counter is monotonic *and* system-wide, so
        # that t0 is directly comparable here (unlike time.time, which can
        # step under NTP between the parent's stamp and ours).
        failed = run_chain(
            ctx,
            VariantSet([Variant(e, m) for e, m in chain]),
            todo,
            registry,
            _wall_done(t0, thread_id, pairs),
            faults=faults,
            policy=policy,
            concurrency=1,
            passes=PassMemo(VariantSet([p.variant for p, _ in todo])),
            beat=hb.beat if hb is not None else None,
        )
    finally:
        # Drop every view into the segments before unmapping; both
        # closes tolerate lingering exports (OS reclaims at exit).
        del ctx, factory
        if idx_shm is not None:
            release_segment(idx_shm)
        if store is not None:
            store.close()
        if hb is not None:
            hb.beat("group:done")
            hb.close()
    spans = None
    if tracer is not None:
        spans = tracer.drain()
        set_tracer(None)
    return pairs, failed, spans


def _shard_worker(
    store_handle: PointStoreHandle,
    plan: ShardPlan,
    region: int,
    minpts: int,
    kernel: str,
    t0: float,
    trace: bool,
    fault_spec: FaultSpec | None = None,
    deadline_s: float | None = None,
    pulse: PulseHandle | None = None,
    task_label: str = "",
) -> tuple[ShardPiece, list[SpanRecord] | None, float, float]:
    """Cluster one region's slab inside a lane worker process.

    Returns the piece, the worker's spans, and the task's start and
    duration on the batch wall window.

    The worker attaches the parent's shared point segment (zero-copy)
    and slices it by the region's index sets — no point array crosses
    the process boundary in either direction.  When the parent shipped
    a ``start``-phase fault spec for this region, it fires here:
    ``kill`` faults are armed (and only here), so they genuinely
    terminate the worker process.

    Tracing mirrors the chain worker: a worker-local tracer records the
    shard spans on the system-wide :func:`time.perf_counter` clock the
    parent's tracer uses, and ships them back as plain records.
    """
    allow_kill_faults(True)
    tracer = Tracer() if trace else None
    set_tracer(tracer)
    start = time.perf_counter() - t0
    perf_start = time.perf_counter()
    # Pulse last, attach inside the try: a failed attach must still
    # close the pulse slot (an unreleased slot reads as a
    # live-but-silent worker to the parent's monitor).
    hb = worker_pulse(pulse)
    store: PointStore | None = None
    try:
        store = PointStore.attach(store_handle, tracer=tracer)
        if hb is not None:
            # Before the fault fires: a stall freezes the counter here.
            hb.beat(task_label or "shard")
        fire(fault_spec, deadline_s=deadline_s, started_at=perf_start)
        piece = cluster_shard(
            store.points,
            plan,
            region,
            minpts,
            kernel=kernel,
            tracer=tracer,
        )
        if hb is not None:
            hb.beat(task_label or "shard")
    finally:
        if store is not None:
            store.close()
        if hb is not None:
            hb.close()
    finish = time.perf_counter() - t0
    spans = None
    if tracer is not None:
        spans = tracer.drain()
        set_tracer(None)
    return piece, spans, start, finish - start


# --------------------------------------------------------------------------
# scheduling units and lane sets
# --------------------------------------------------------------------------


@dataclass
class _GroupUnit:
    """Variant tasks run as one unit (a chain on a process lane, one task inline)."""

    gid: int
    variants: list[Variant]  # the whole chain: its set normalizes reuse distances
    todo: list[PlannedVariant]  # unfinished, in chain order
    deps: set[str]  # merge-task ids of sharded donors
    budget: int  # attempts each variant may use up to on the current rung
    rung: str = "lanes"  # "lanes": a chain worker; "serial": an inline lane
    kernel: str | None = None  # a ladder step's kernel override
    merge_id: str | None = None  # set when a shard pipeline was lowered to this
    degraded: str | None = None  # the ladder step this unit took
    ready_after: float = 0.0  # time.monotonic() a retry's backoff ends
    running: bool = False
    done: bool = False

    @property
    def label(self) -> str:
        return self.merge_id or f"group:{self.gid}"


@dataclass
class _ShardPipeline:
    """One sharded variant: region fan-out plus the parent-side merge."""

    variant: Variant
    n_regions: int
    merge_id: str
    shard_ids: tuple[str, ...]
    budget: int
    ready_after: float = 0.0
    started_at: float = 0.0  # perf_counter at first dispatch (0: not yet)
    done: bool = False
    pieces: dict[int, tuple[ShardPiece, float]] = field(default_factory=dict)
    inflight: set[int] = field(default_factory=set)

    @property
    def label(self) -> str:
        return self.merge_id

    def pending_regions(self) -> list[int]:
        return [
            r
            for r in range(self.n_regions)
            if r not in self.pieces and r not in self.inflight
        ]


@dataclass
class _Job:
    """Bookkeeping for one in-flight unit."""

    unit: _GroupUnit | _ShardPipeline
    lane: int
    deadline: float | None  # absolute time.monotonic() watchdog budget
    region: int = -1
    stamp: int = -1  # the variant's attempt at submission (staleness check)
    label: str = ""  # supervisor task label ("group:N" / shard task id)
    where: str = ""  # task-span thread name


#: glibc ``mallopt`` parameter: the most malloc arenas a process may have.
_M_ARENA_MAX = -8


@functools.cache
def _one_malloc_arena() -> bool:
    """Cap this process at one glibc malloc arena; ``True`` if it was set.

    A lane pool receives and unpickles its worker's results on its own
    executor thread, and every batch starts new lanes, so new threads.
    glibc gives each new thread an arena of its own, or one that an
    ended thread left behind, keeps the pages freed into that arena,
    and hands arenas out in whatever order the threads start.  The
    parent's peak resident set therefore depended on thread timing: on
    the 18,646-point V1 sweep over two lanes it settled at about 91, 100
    or 108 MB from one run to the next.  With one arena every thread
    allocates from the main arena, whose freed pages the next batch
    reuses, and the peak is the same in every run (about 83 MB there).
    The lane workers are forked and inherit the cap; each runs one
    thread.  The cap is process-wide and stops glibc from making new
    arenas; those that threads made before it stay in use, so the
    parent sets it before its first lane starts.  On other C libraries
    nothing changes.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return False
        return bool(ctypes.CDLL(None).mallopt(_M_ARENA_MAX, 1))
    except (AttributeError, OSError, ValueError):
        return False


class _Lane:
    """One worker slot: a single-process pool a kill breaks in isolation."""

    def __init__(self) -> None:
        _one_malloc_arena()
        self.pool = ProcessPoolExecutor(max_workers=1)

    def respawn(self, *, hung: bool = False) -> None:
        if hung:  # wedged workers never join; kill them first
            for proc in list(getattr(self.pool, "_processes", {}).values()):
                proc.terminate()
        self.pool.shutdown(wait=True, cancel_futures=True)
        self.pool = ProcessPoolExecutor(max_workers=1)

    def close(self) -> None:
        self.pool.shutdown(wait=True, cancel_futures=True)


class _InlineLanes:
    """``T`` virtual lanes in the parent on the work-unit clock.

    Lanes carry free times in a min-heap, so ties break on lane id.  A
    unit reads its :meth:`start` before it runs (the online reuse
    constraint is ``before = start``) and :meth:`occupy` books it once
    its price is known; a unit that fails books nothing, so its lane
    frees at once.
    """

    def __init__(self, n: int) -> None:
        self.free = [(0.0, tid) for tid in range(n)]  # sorted: a heap
        self.finish_at: dict[str, float] = {}

    def next_name(self) -> str:
        return f"sim-{self.free[0][1]}"

    def start(self, deps) -> float:
        done = [self.finish_at[d] for d in deps if d in self.finish_at]
        return max([self.free[0][0], *done])

    def occupy(self, task_id: str, start: float, dur: float) -> tuple[int, float]:
        _, tid = heapq.heappop(self.free)
        finish = start + dur
        heapq.heappush(self.free, (finish, tid))
        self.finish_at[task_id] = finish
        return tid, finish


def _resolved(fn, *args) -> Future:
    """Run ``fn`` now and hand back its outcome as a finished future."""
    fut: Future = Future()
    try:
        fut.set_result(fn(*args))
    except Exception as exc:
        fut.set_exception(exc)
    return fut


def _settle(
    outcomes: dict,
    variant: Variant,
    status: VariantStatus,
    attempts: int,
    error: str | None = None,
    degraded: str | None = None,
) -> None:
    """Write ``variant``'s outcome: the one place a status is set."""
    outcomes[variant] = VariantOutcome(
        variant, status, attempts=attempts, error=error, degraded=degraded
    )


def _lane_indexes(spec: RunSpec, groups: list[_GroupUnit]) -> list[tuple[str, dict]]:
    """The factory ``(kind, params)`` of every index the chain workers read.

    ``bfs`` reads the ``(T_high, T_low)`` pair; ``cellgraph`` one grid
    per eps of the groups' variants, and no R-tree.
    """
    if spec.kernel == "bfs":
        return pair_params(spec.effective_reuse.low_res_r)
    eps = sorted({v.eps for g in groups for v in g.variants})
    return [("cellgraph", {"eps": e}) for e in eps]


class GraphRuntime:
    """Execute a lowered :class:`TaskGraph` on one lane set.

    ``substrate`` picks the lane set (one of :data:`SUBSTRATES`); the
    lowering ``mode`` passed to :meth:`run` picks the graph shape.
    :data:`repro.exec.EXECUTORS` names the valid combinations of the
    two.
    """

    def __init__(self, substrate: str) -> None:
        if substrate not in SUBSTRATES:
            raise ValueError(
                f"unknown substrate {substrate!r}; "
                f"expected one of {list(SUBSTRATES)}"
            )
        self.substrate = substrate

    # -- entry point -----------------------------------------------------
    def run(
        self, ctx: RunContext, variants: VariantSet, *, mode: str = "variant"
    ) -> BatchResult:
        tracer, spec = ctx.tracer, ctx.spec
        faults = spec.fault_plan.bind(variants) if spec.fault_plan else None
        policy = spec.retry_policy
        if policy is None and spec.supervise is not None:
            # Supervision without an explicit policy: self-healing needs
            # a retry budget for its respawn/resubmit remediations.
            policy = RetryPolicy()
        elif policy is None and (faults or ctx.checkpoint is not None):
            # Faults or a checkpoint without a policy: capture failures
            # into the report (no retries) instead of aborting the batch.
            policy = RetryPolicy(max_retries=0)
        outcomes: dict[Variant, VariantOutcome] = {}
        registry = CompletedRegistry()
        results: dict[Variant, ClusteringResult] = {}
        records: list[VariantRunRecord] = []
        if ctx.checkpoint is not None:
            # A loaded result is genuine for this database fingerprint,
            # so it is registered at t = 0 as a legal donor.
            for variant in variants:
                result = ctx.checkpoint.load(variant)
                if result is None:
                    continue
                registry.add(variant, result, finished_at=0.0)
                results[variant] = result
                records.append(
                    VariantRunRecord(
                        variant=variant,
                        reused_from=result.reused_from,
                        points_reused=result.points_reused,
                        reuse_fraction=result.reuse_fraction,
                        response_time=0.0,
                        wall_time=0.0,
                        n_clusters=result.n_clusters,
                        n_noise=result.n_noise,
                    )
                )
                _settle(outcomes, variant, VariantStatus.RESUMED, 0)
                tracer.instant(EVENT_RESUMED, variant=str(variant))
        plan = [
            p for p in spec.effective_reuse.scheduler.plan(variants) if p.variant not in results
        ]
        n_regions = 1
        if mode == "hybrid" and ctx.store.n_points:
            # plan_shards plans an empty database as one region, so the
            # graph is lowered with the count the geometry will have.
            n_regions = resolve_n_regions(spec.regions, default=spec.n_threads)
        graph = lower_variants(
            plan,
            variants,
            mode=mode,
            n_regions=n_regions,
            n_points=ctx.store.n_points,
            shard_threshold=spec.shard_threshold,
            n_lanes=spec.n_threads,
        )
        base_plan: ShardPlan | None = None
        if graph.merge_tasks():
            # Cut geometry is eps-independent; plan once, re-halo per
            # variant with ShardPlan.with_eps.
            base_plan = plan_shards(ctx.points, plan[0].variant.eps, n_regions)
            tracer.instant(
                EVENT_SHARD_PLAN,
                regions=base_plan.n_regions,
                axis=base_plan.axis,
                n=ctx.store.n_points,
            )
        supervisor = None
        if spec.supervise is not None:
            supervisor = Supervisor(
                spec.supervise, tracer=tracer, n_tasks=max(len(graph), 1)
            )
        if len(graph):
            self._dispatch(
                ctx, variants, graph, base_plan, registry, results, records,
                policy=policy, faults=faults, outcomes=outcomes,
                supervisor=supervisor,
            )
        makespan = max((r.finish for r in records), default=0.0)
        batch_record = BatchRunRecord(
            records=records, n_threads=spec.n_threads, makespan=makespan
        )
        report = None
        if policy is not None:  # else errors propagated: no report
            report = BatchReport(outcomes=outcomes)
            classify_replans(report, variants)
        if supervisor is not None:
            # Dangling verifications fail, orphaned segments are reclaimed.
            supervisor.finalize()
            if report is not None:
                report.remediations.extend(supervisor.records)
        return BatchResult(results=results, record=batch_record, report=report)

    # -- the dispatch loop -------------------------------------------------
    def _dispatch(
        self,
        ctx: RunContext,
        variants: VariantSet,
        graph: TaskGraph,
        base_plan: ShardPlan | None,
        registry: CompletedRegistry,
        results: dict,
        records: list,
        *,
        policy: RetryPolicy | None,
        faults: BoundFaultPlan | None,
        outcomes: dict,
        supervisor: Supervisor | None = None,
    ) -> None:
        """Dependency-aware dispatch of variant units and shards.

        Units dispatch in graph order once their hard deps are settled
        and their backoff has ended; inline lanes keep graph order
        strictly, so a unit waiting out its backoff holds the lane.  On
        process lanes a variant unit is a reuse-chain group run by a
        :func:`_chain_worker`; on inline lanes it is one variant task
        run against the parent's registry with ``before = start``, at
        submission, so one unit is in flight at a time.  A unit on the
        ladder's serial rung runs inline too, in the parent, on the
        wall clock.  Shard pipelines keep completed regions' pieces;
        a failed merge re-runs every region.

        Each variant carries its own attempt count, shipped with every
        submission so fault-plan lookups key on it.  Its budget is
        ``max_attempts`` plus the plan's ``kill`` faults, so collateral
        deaths never exhaust an innocent variant.  ``fail`` is the one
        failure handler (see the module docstring); with a
        :class:`Supervisor` attached it also gates crash loops and
        corrupt merges, steps exhausted units down the ladder, and —
        on process lanes — respawns lanes whose heartbeat went stale.
        Every decision is traced and lands in
        ``BatchReport.remediations``.
        """
        tracer, spec = ctx.tracer, ctx.spec
        max_attempts = policy.max_attempts if policy is not None else 1
        kills = sum(s.kind == "kill" for s in faults.table.values()) if faults else 0
        budget = max_attempts + kills
        deadline = policy.deadline_s if policy is not None else None
        inline = _InlineLanes(spec.n_threads) if self.substrate == "sim" else None
        # Failed attempts per variant, and the last error of each.
        attempts = dict.fromkeys(variants, 0)
        last_error: dict[Variant, str] = {}
        # Canonical batch index: the backoff jitter key of a variant.
        index_of = {v: i for i, v in enumerate(variants)}
        # The batch's cell-graph passes, one per eps (inline lanes).
        passes = PassMemo(variants)

        variant_tasks = graph.variant_tasks()
        merge_tasks = graph.merge_tasks()
        sharded_set = {t.variant for t in merge_tasks}
        task_of = {t.variant: t for t in variant_tasks}

        groups: list[_GroupUnit] = []
        if inline is not None:
            for t in variant_tasks:
                groups.append(
                    _GroupUnit(
                        len(groups), [t.variant], [t.planned], set(t.deps),
                        budget, rung="serial",
                    )
                )
        elif variant_tasks:
            # Group the plain variants along the *global* reuse forest
            # (so a sharded root's subtree stays one chain), then drop
            # the sharded variants — their results arrive as donors.
            all_vs = [t.variant for t in variant_tasks] + list(sharded_set)
            raw = partition_reuse_chains(VariantSet(all_vs), spec.n_threads)
            for chain in raw:
                kept = [v for v in chain if v not in sharded_set]
                if not kept:
                    continue
                deps: set[str] = set()
                for v in kept:
                    deps.update(task_of[v].deps)
                groups.append(
                    _GroupUnit(
                        len(groups), kept, [PlannedVariant(v) for v in kept],
                        deps, budget,
                    )
                )

        pipelines: dict[Variant, _ShardPipeline] = {}
        for mt in merge_tasks:
            pipelines[mt.variant] = _ShardPipeline(
                variant=mt.variant,
                n_regions=mt.n_regions,
                merge_id=mt.task_id,
                shard_ids=tuple(mt.deps),
                budget=budget,
            )
        merge_variant = {p.merge_id: p.variant for p in pipelines.values()}

        # Dispatch order: units appear where their first task does.
        group_of = {v: g for g in groups for v in g.variants}
        units: list[_GroupUnit | _ShardPipeline] = []
        seen: set[int] = set()
        for task in graph.tasks:
            unit: _GroupUnit | _ShardPipeline | None
            if isinstance(task, VariantTask):
                unit = group_of.get(task.variant)
            else:
                unit = pipelines.get(task.variant)
            if unit is not None and id(unit) not in seen:
                seen.add(id(unit))
                units.append(unit)

        if inline is not None:
            n_lanes = 1  # dispatch slots: inline units finish at submission
        elif graph.mode == "variant":
            n_lanes = max(1, len(groups))
        else:
            n_lanes = max(1, spec.n_threads)

        store_handle = (
            ctx.store.ensure_shared(tracer=tracer) if inline is None else None
        )
        t0 = time.perf_counter()
        # The index pack, lane pools, and heartbeat mailbox are acquired
        # inside the dispatch try (below) so the finally reaches them on
        # every path; the submit closures capture these cells and only
        # run after the assignments.
        idx_shm = idx_handle = None
        lanes: list[_Lane] = []
        mailbox = None
        n_graph_tasks = max(len(graph), 1)
        free_lanes = list(range(n_lanes))
        inflight: dict[Future, _Job] = {}
        resolved: set[str] = set()
        failed_ids: set[str] = set()
        task_spans: list[SpanRecord] = []

        def shard_label(pipe: _ShardPipeline, region: int) -> str:
            return f"shard:{pipe.variant.eps:g}/{pipe.variant.minpts}#{region}"

        def radius(unit: _GroupUnit | _ShardPipeline) -> float:
            """The fraction of the batch a remediation of ``unit`` touches."""
            if isinstance(unit, _ShardPipeline):
                return (1 + unit.n_regions) / n_graph_tasks
            return len(unit.todo) / n_graph_tasks

        # -- completion and the one failure path ----------------------------
        def complete(
            variant: Variant,
            result: ClusteringResult,
            record: VariantRunRecord,
            degraded: str | None = None,
        ) -> None:
            """A variant finished: keep it, checkpoint it, write its outcome."""
            results[variant] = result
            records.append(record)
            if ctx.checkpoint is not None:
                ctx.checkpoint.save(result)
            _settle(
                outcomes,
                variant,
                VariantStatus.RETRIED if attempts[variant] else VariantStatus.OK,
                attempts[variant] + 1,
                last_error.get(variant),
                degraded,
            )

        def close(unit: _GroupUnit | _ShardPipeline, ok: bool, detail: str) -> None:
            """Mark ``unit`` settled and resolve its pending verifications."""
            unit.done = True
            labels = [unit.label]
            merge_id = unit.merge_id
            if merge_id is not None:
                (resolved if ok else failed_ids).add(merge_id)
                if isinstance(unit, _GroupUnit):
                    # Shard-level remediations of a lowered pipeline (a
                    # stuck region that forced the lowering) settle with
                    # the variant-level re-run.
                    pipe = pipelines[unit.variants[0]]
                    labels += [shard_label(pipe, r) for r in range(pipe.n_regions)]
            if supervisor is not None:
                for label in labels:
                    supervisor.task_done(label, ok, detail)

        def degrade(unit: _GroupUnit | _ShardPipeline, n: int, corrupt: bool) -> bool:
            """Step an exhausted unit down the ladder; False when none applies."""
            assert supervisor is not None
            if isinstance(unit, _GroupUnit):
                axis, rung = "substrate", unit.rung
            elif corrupt and spec.kernel == "cellgraph":
                axis, rung = "kernel", spec.kernel
            else:
                axis, rung = "lowering", "shard"
            _, step = supervisor.on_exhausted(
                unit.label,
                submissions=n,
                budget=unit.budget,
                blast_radius=radius(unit),
                breaker_key=unit.label,
                axis=axis,
                rung=rung,
            )
            if step is None:
                return False
            if isinstance(unit, _GroupUnit):
                unit.rung, unit.degraded = step.target, step.label
                unit.budget = n + max_attempts
                return True
            # The pipeline's variant re-runs as a unit on an inline lane,
            # from scratch: shard pipelines compute from scratch, and a
            # reused source could permute cluster ids.
            unit.done = True
            units[units.index(unit)] = _GroupUnit(
                -1,
                [unit.variant],
                [PlannedVariant(unit.variant, force_scratch=True)],
                set(),
                n + max_attempts,
                rung="serial",
                kernel="bfs" if axis == "kernel" else None,
                merge_id=unit.merge_id,
                degraded=step.label,
            )
            return True

        def fail(
            unit: _GroupUnit | _ShardPipeline,
            charged: list[Variant],
            error: BaseException | str,
            label: str,
            *,
            key: int | None = None,
        ) -> None:
            """The one failure path: every lost attempt of the batch lands here.

            Charges one attempt to each variant of ``charged``, then
            retries the unit after a backoff (keyed on ``key``, default
            the first charged variant's canonical index), or — once a
            variant's budget is spent or the supervisor's risk gate
            rejects the retry — steps the unit down the ladder or drops
            the exhausted variants permanently.
            """
            assert policy is not None
            err = error if isinstance(error, str) else f"{type(error).__name__}: {error}"
            for v in charged:
                attempts[v] += 1
                last_error[v] = err
            n = max(attempts[v] for v in charged)
            tracer.instant(
                EVENT_TIMEOUT
                if isinstance(error, VariantTimeoutError)
                else EVENT_RETRY,
                variant=str(charged[0]),
                attempt=n - 1,
                error=err,
            )
            corrupt = isinstance(unit, _ShardPipeline) and isinstance(
                error, CorruptResultError
            )
            lost = [v for v in charged if attempts[v] >= unit.budget]
            if supervisor is not None and not lost and (corrupt or n >= 2):
                # Crash loops and corrupt merges are supervised
                # decisions: the risk gate must admit the retry.
                if corrupt:
                    rec = supervisor.on_corruption(
                        label, err, blast_radius=radius(unit)
                    )
                else:
                    rec = supervisor.on_crash(
                        label,
                        submissions=n,
                        budget=unit.budget,
                        blast_radius=len(charged) / n_graph_tasks,
                    )
                if rec.decision != "applied":
                    lost = list(charged)
            if lost and supervisor is not None and degrade(unit, n, corrupt):
                return
            for v in lost:
                _settle(outcomes, v, VariantStatus.FAILED, attempts[v], err)
                tracer.instant(
                    EVENT_FAILED, variant=str(v), attempts=attempts[v], error=err
                )
            if isinstance(unit, _GroupUnit):
                unit.todo = [p for p in unit.todo if p.variant not in lost]
                if not unit.todo:
                    close(unit, False, err)
                    return
            elif lost:
                close(unit, False, err)
                return
            unit.ready_after = time.monotonic() + policy.backoff_s(
                n - 1, key=index_of[charged[0]] if key is None else key
            )

        # -- running units ---------------------------------------------------
        def run_inline(unit: _GroupUnit, todo, donors):
            """A unit attempt on an inline lane, in the parent."""
            pairs: list[tuple[ClusteringResult, VariantRunRecord]] = []
            if inline is not None:
                # One task on the work-unit clock, priced by the cost
                # model and started when its lane and hard deps free up.
                start = inline.start(unit.deps)
                task_id = unit.merge_id or variant_task_id(unit.variants[0])
                reg, vset, memo, before = registry, variants, passes, start

                def done(result, record) -> float:
                    tid, finish = inline.occupy(task_id, start, record.response_time)
                    record.start, record.finish, record.thread_id = start, finish, tid
                    pairs.append((result, record))
                    return finish

            else:
                # The serial rung of a process-lane batch: the wall
                # clock, and exactly the donors a chain worker seeds.
                reg = CompletedRegistry()
                for v, result in donors:
                    reg.add(v, result, finished_at=0.0)
                vset, before = VariantSet(unit.variants), None
                memo = PassMemo(VariantSet([p.variant for p, _ in todo]))
                done = _wall_done(t0, -1, pairs)

            failed = run_chain(
                ctx if unit.kernel is None
                else replace(ctx, spec=spec.override(kernel=unit.kernel)),
                vset, todo, reg, done,
                faults=faults, policy=policy,
                concurrency=spec.n_threads, before=before, passes=memo,
            )
            return pairs, failed, None

        def inline_shard(pipe: _ShardPipeline, plan, region, fault, task_id):
            start = inline.start(())
            fire(fault, deadline_s=deadline, started_at=time.perf_counter())
            piece = cluster_shard(
                ctx.points,
                plan,
                region,
                pipe.variant.minpts,
                kernel=spec.kernel,
                tracer=tracer,
            )
            dur = spec.cost_model.duration(piece.counters, spec.n_threads)
            inline.occupy(task_id, start, dur)
            return piece, None, start, dur

        replan_noted: set[tuple[int, str]] = set()

        def submit_group(unit: _GroupUnit, lane: int) -> None:
            donors = []
            for dep in sorted(unit.deps):
                v = merge_variant[dep]
                if v in results:
                    donors.append((v, results[v]))
                elif (
                    supervisor is not None
                    and dep in failed_ids
                    and (unit.gid, dep) not in replan_noted
                ):
                    # The donor died permanently; the unit's scheduler
                    # re-plans the chain onto surviving donors / scratch.
                    replan_noted.add((unit.gid, dep))
                    supervisor.on_replanned(
                        unit.label,
                        dep,
                        blast_radius=len(unit.variants) / n_graph_tasks,
                    )
            # The chain's completed prefix: a resubmitted suffix sees
            # the sources it would have seen in one pass.
            donors += [(v, results[v]) for v in unit.variants if v in results]
            todo = [(p, attempts[p.variant]) for p in unit.todo]
            unit.running = True
            budget_t = None
            if unit.rung == "serial":
                where = inline.next_name() if inline is not None else "parent"
                fut = _resolved(run_inline, unit, todo, donors)
            else:
                where = f"lane-{lane}"
                if deadline is not None:
                    budget_t = time.monotonic() + deadline * len(todo) + 30.0
                fut = lanes[lane].pool.submit(
                    _chain_worker,
                    store_handle,
                    idx_handle,
                    [v.as_tuple() for v in unit.variants],
                    todo,
                    [(v.as_tuple(), r) for v, r in donors],
                    spec.kernel,
                    spec.reuse,
                    spec.cost_model,
                    t0,
                    tracer.enabled,
                    policy,
                    faults,
                    mailbox.handle(lane) if mailbox is not None else None,
                    unit.gid,
                )
            if supervisor is not None:
                supervisor.job_started(lane, unit.label, deadline_s=deadline)
            inflight[fut] = _Job(unit, lane, budget_t, label=unit.label, where=where)

        def submit_shard(pipe: _ShardPipeline, region: int, lane: int) -> None:
            assert base_plan is not None
            if not pipe.started_at:
                pipe.started_at = time.perf_counter()
            label = shard_label(pipe, region)
            attempt = attempts[pipe.variant]
            fault = None
            if faults:
                found = faults.find(pipe.variant, attempt, "start")
                if found is not None and region == found.index % pipe.n_regions:
                    fault = found
                if fault is None:
                    fault = faults.find_task(label, attempt, "start")
            pipe.inflight.add(region)
            plan = base_plan.with_eps(pipe.variant.eps)
            budget_t = None
            if inline is not None:
                where = inline.next_name()
                fut = _resolved(inline_shard, pipe, plan, region, fault, label)
            else:
                where = f"lane-{lane}"
                if deadline is not None:
                    budget_t = time.monotonic() + deadline + 30.0
                fut = lanes[lane].pool.submit(
                    _shard_worker,
                    store_handle,
                    plan,
                    region,
                    pipe.variant.minpts,
                    spec.kernel,
                    t0,
                    tracer.enabled,
                    fault,
                    deadline,
                    mailbox.handle(lane) if mailbox is not None else None,
                    label,
                )
            if supervisor is not None:
                supervisor.job_started(lane, label, deadline_s=deadline)
            inflight[fut] = _Job(
                pipe,
                lane,
                budget_t,
                region=region,
                stamp=attempt,
                label=label,
                where=where,
            )

        def next_dispatch(now: float):
            """The first dispatchable unit in graph order, and the next wake-up."""
            ready = resolved | failed_ids
            wake = None
            for unit in units:
                if unit.done:
                    continue
                region = -1
                if isinstance(unit, _GroupUnit):
                    if unit.running or not unit.deps <= ready:
                        continue
                else:
                    pending = unit.pending_regions()
                    if not pending:
                        continue
                    region = pending[0]
                if unit.ready_after > now:
                    wake = unit.ready_after if wake is None else min(wake, unit.ready_after)
                    if inline is not None:
                        break
                    continue
                return unit, region, wake
            return None, -1, wake

        # -- settling jobs ---------------------------------------------------
        def merge_pipeline(pipe: _ShardPipeline) -> None:
            assert base_plan is not None
            variant = pipe.variant
            plan = base_plan.with_eps(variant.eps)
            merge_t0 = time.perf_counter()
            merge_delta = WorkCounters()
            ordered = [pipe.pieces[r][0] for r in range(pipe.n_regions)]
            labels, core_mask = merge_shards(
                ctx.points, plan, ordered, counters=merge_delta, tracer=tracer
            )
            merged = WorkCounters()
            for piece, _ in pipe.pieces.values():
                merged.merge(piece.counters)
            merged.merge(merge_delta)
            result = ClusteringResult(
                labels,
                core_mask,
                variant=variant,
                counters=merged,
                elapsed=time.perf_counter() - pipe.started_at,
            )
            attempt = attempts[variant]
            try:
                finish_attempt(
                    result,
                    (
                        faults.find(variant, attempt, "finish")
                        or faults.find_task(pipe.merge_id, attempt, "finish")
                    )
                    if faults
                    else None,
                    policy,
                    ctx.store.n_points,
                    pipe.started_at,
                )
            except Exception as exc:
                if policy is None:
                    raise
                # A damaged merged result re-runs the whole variant,
                # unlike a worker death, which resubmits its own region.
                pipe.pieces = {}
                fail(pipe, [variant], exc, pipe.merge_id)
                return
            if inline is not None:
                m_start = inline.start(pipe.shard_ids)
                where = inline.next_name()
                dur = spec.cost_model.duration(merge_delta, spec.n_threads)
                tid, finish = inline.occupy(pipe.merge_id, m_start, dur)
            else:
                m_start = merge_t0 - t0
                finish = time.perf_counter() - t0
                tid, dur, where = 0, finish - m_start, "parent"
            start = min((w for _, w in pipe.pieces.values()), default=finish)
            record = VariantRunRecord(
                variant=variant,
                response_time=finish - start,
                wall_time=result.elapsed,
                start=start,
                finish=finish,
                thread_id=tid,
                n_clusters=result.n_clusters,
                n_noise=result.n_noise,
                counters=merged,
            )
            registry.add(variant, result, finished_at=finish)
            complete(variant, result, record)
            close(pipe, True, "merge verified")
            if tracer.enabled:
                task_spans.append(
                    SpanRecord(
                        SPAN_TASK, m_start, dur, where,
                        {"kind": "merge", "id": pipe.merge_id,
                         "deps": list(pipe.shard_ids)},
                    )
                )

        def on_group(job: _Job, payload) -> None:
            unit = job.unit
            assert isinstance(unit, _GroupUnit)
            pairs, failed, spans = payload
            for result, record in pairs:
                v = record.variant
                unit.todo = [p for p in unit.todo if p.variant != v]
                complete(v, result, record, unit.degraded)
                task = task_of.get(v)
                if tracer.enabled and task is not None:
                    task_spans.append(
                        SpanRecord(
                            SPAN_TASK,
                            record.start,
                            record.finish - record.start,
                            job.where,
                            {"kind": "variant", "id": task.task_id,
                             "deps": list(task.deps),
                             "soft": list(task.soft_deps)},
                        )
                    )
            if spans:
                tracer.add_records(spans, thread=f"worker-{unit.gid}")
            if failed is not None:
                fail(unit, [failed[0]], failed[1], unit.label)
            elif not unit.todo:
                close(unit, True, unit.degraded or "")

        def on_shard(job: _Job, payload) -> None:
            pipe = job.unit
            assert isinstance(pipe, _ShardPipeline)
            piece, spans, w_start, w_dur = payload
            if supervisor is not None:
                supervisor.task_done(job.label, True)
            if pipe.done:
                return  # stale completion after a permanent failure
            # Shard work is deterministic, so a piece from a superseded
            # round is byte-identical — accept it.
            pipe.pieces[job.region] = (piece, w_start)
            if spans:
                tracer.add_records(spans, thread=f"shard-{job.region}")
            if tracer.enabled:
                task_spans.append(
                    SpanRecord(
                        SPAN_TASK, w_start, w_dur, job.where,
                        {"kind": "shard", "id": job.label, "deps": []},
                    )
                )
            if len(pipe.pieces) == pipe.n_regions:
                merge_pipeline(pipe)

        def on_lost(job: _Job, error: str) -> None:
            """A job raised, outlived its watchdog, or was remediated as stuck."""
            unit = job.unit
            if isinstance(unit, _GroupUnit):
                # Nothing of a lost unit attempt is known to have run:
                # every unfinished variant is charged one attempt.
                fail(unit, [p.variant for p in unit.todo], f"group {error}", job.label)
                return
            assert isinstance(unit, _ShardPipeline)
            if unit.done or job.stamp != attempts[unit.variant]:
                return  # stale round: already accounted
            fail(unit, [unit.variant], f"shard {error}", job.label, key=job.region)

        def release(job: _Job, *, respawn: bool = False, hung: bool = False) -> None:
            """Take ``job`` out of flight and hand its lane back.

            ``respawn`` replaces the lane's pool (a lost worker).
            """
            if respawn and lanes:
                lanes[job.lane].respawn(hung=hung)
            free_lanes.append(job.lane)
            if supervisor is not None:
                supervisor.job_finished(job.lane)
            if isinstance(job.unit, _GroupUnit):
                job.unit.running = False
            else:
                job.unit.inflight.discard(job.region)

        try:
            if inline is None:
                if groups:
                    idx_shm, idx_handle = share_indexes(
                        ctx.factory if ctx.factory is not None else IndexFactory(),
                        ctx.store,
                        _lane_indexes(spec, groups),
                        tracer=tracer,
                    )
                lanes.extend(_Lane() for _ in range(n_lanes))
                if supervisor is not None:
                    mailbox = supervisor.open_mailbox(n_lanes)
            while True:
                wake = None
                while free_lanes:
                    unit, region, wake = next_dispatch(time.monotonic())
                    if unit is None:
                        break
                    lane = free_lanes.pop()
                    if isinstance(unit, _GroupUnit):
                        submit_group(unit, lane)
                    else:
                        submit_shard(unit, region, lane)
                now = time.monotonic()
                if not inflight:
                    if wake is None:
                        break
                    # Nothing runs until a backoff ends: wait it out.
                    time.sleep(max(0.0, wake - now))
                    continue
                waits = [j.deadline - now for j in inflight.values() if j.deadline is not None]
                if wake is not None:
                    waits.append(wake - now)
                if supervisor is not None:
                    waits.append(supervisor.policy.poll_interval_s)
                timeout = max(0.0, min(waits)) if waits else None
                done_futs, _ = wait(
                    inflight, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if supervisor is not None:
                    # Applied stuck-task remediations: kill the stale
                    # lane and route the job through the failure path.
                    for rec in supervisor.poll():
                        target = rec.anomaly.subject
                        match = next(
                            (
                                f
                                for f, j in inflight.items()
                                if j.label == target and f not in done_futs
                            ),
                            None,
                        )
                        if match is None:
                            continue
                        job = inflight.pop(match)
                        release(job, respawn=True, hung=True)
                        on_lost(job, "stuck: heartbeat stale")
                if not done_futs:
                    # Watchdog: a truly wedged worker never joins; stop
                    # waiting, kill its lane, and account the failure.
                    now = time.monotonic()
                    for fut in list(inflight):
                        job = inflight[fut]
                        if job.deadline is not None and now >= job.deadline:
                            del inflight[fut]
                            release(job, respawn=True, hung=True)
                            on_lost(job, "worker exceeded the deadline budget")
                    continue
                for fut in done_futs:
                    job = inflight.pop(fut, None)
                    if job is None:
                        continue  # remediated as stuck in this round
                    try:
                        payload = fut.result()
                    except Exception as exc:
                        if policy is None:
                            raise  # no resilience configured: propagate
                        release(job, respawn=True)
                        on_lost(job, f"worker died: {type(exc).__name__}: {exc}")
                        continue
                    release(job)
                    if isinstance(job.unit, _GroupUnit):
                        on_group(job, payload)
                    else:
                        on_shard(job, payload)
        finally:
            for lane in lanes:
                lane.close()
            if mailbox is not None:
                supervisor.close_mailbox()
            if idx_shm is not None:
                # The pack exists only for this batch; remove it even
                # when a worker raised.  (The point segment belongs to
                # the store's owner — the session.)  destroy also drops
                # the segment from the owned-set audit, so later leak
                # gates (Session.close, CI doctor) stay clean.
                release_segment(idx_shm)
                destroy_segment(idx_shm)
        if tracer.enabled and task_spans:
            # Task spans are stamped on the batch's clock: the work-unit
            # clock inline, else seconds since t0, which this offset puts
            # on the tracer's own clock beside every other span.
            tracer.add_records(task_spans, offset=0.0 if inline is not None else t0)
