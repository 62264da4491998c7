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

Both lane sets share shard dispatch, the parent-side merge, checkpoint
and outcome accounting, the failure handlers and the supervisor hooks,
so a fault plan fires, and supervision acts, the same way on both.
Every run record's ``response_time`` is ``finish - start`` on its lane
set's clock.

Documented simplification: lane workers cannot share completed results
mid-flight (process isolation), so cross-group reuse is forfeited,
except that a *sharded donor's* merged result is shipped to dependent
groups at submission time, which is exactly the hard edge hybrid
lowering records.

Shared-memory economics: the parent materializes the point database
and the built index pack once; every lane worker attaches (zero-copy)
instead of pickling points or rebuilding trees.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from repro.core.result import ClusteringResult
from repro.core.reuse import POLICIES
from repro.core.scheduling import (
    CompletedRegistry,
    PlannedVariant,
    SchedGreedy,
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
from repro.engine.context import RunContext
from repro.engine.factory import (
    IndexFactory,
    IndexPairHandle,
    attach_index_pair,
    share_index_pair,
)
from repro.engine.shm import destroy_segment, release_segment
from repro.engine.store import PointStore, PointStoreHandle
from repro.exec.base import BatchResult
from repro.exec.cost import CostModel
from repro.metrics.counters import WorkCounters
from repro.metrics.records import BatchRunRecord, VariantRunRecord
from repro.obs.span import SPAN_TASK, SpanRecord, Tracer, set_tracer
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import (
    BoundFaultPlan,
    FaultSpec,
    allow_kill_faults,
    corrupt_result,
    verify_result,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.report import BatchReport, VariantOutcome, VariantStatus
from repro.resilience.runner import EVENT_RETRY, ResilientRunner
from repro.supervise.signals import PulseHandle, worker_pulse
from repro.supervise.supervisor import Supervisor

__all__ = [
    "EVENT_SHARD_PLAN",
    "GraphRuntime",
    "SUBSTRATES",
    "partition_reuse_chains",
]

#: Instant event emitted once per batch describing the shard partition.
EVENT_SHARD_PLAN = "shard_plan"

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


class _FixedOrderScheduler(SchedGreedy):
    """SCHEDGREEDY source selection, but a caller-specified queue order."""

    name = "SCHEDGREEDY(chain)"

    def __init__(self, order: list[Variant]) -> None:
        self._order = list(order)

    def plan(self, vset: VariantSet) -> list[PlannedVariant]:
        return [PlannedVariant(v) for v in self._order]


def _chain_worker(
    store_handle: PointStoreHandle,
    idx_handle: IndexPairHandle,
    variant_tuples: list[tuple[float, int]],
    donors: list[tuple[tuple[float, int], ClusteringResult]],
    reuse_policy_name: str,
    cost_model: CostModel,
    t0: float,
    batch_size: int,
    trace: bool,
    retry_policy: RetryPolicy | None = None,
    fault_plan: BoundFaultPlan | None = None,
    checkpoint_root: str | None = None,
    kernel: str = "bfs",
    pulse: PulseHandle | None = None,
    thread_id: int = 0,
):
    """Run one reuse-chain group serially inside a lane worker process.

    The worker attaches the parent's shared point segment and index
    pack (zero-copy views; spans ``shm_attach``) instead of receiving
    pickled points and rebuilding both trees.  ``donors`` carries the
    completed results of sharded donors this group hard-depends on;
    they are seeded into the worker's completed registry at t = 0 so
    the group's head can reuse them (the registry accepts out-of-set
    donors — inclusion checks are pure variant arithmetic).  The
    tracer cannot cross the process boundary, so each worker builds its
    own; spans are rebased onto the batch wall window and shipped back
    as plain records.

    The parent ships its retry policy, the already-bound fault plan
    (re-keyed by the group's submission attempt, see
    :meth:`BoundFaultPlan.shifted`) and the checkpoint root, so the
    in-worker :class:`ResilientRunner` runs the same recovery loop as an
    inline lane.  ``kill`` faults are armed here, and only in workers,
    so they terminate a worker process and never an in-process caller.
    """
    allow_kill_faults(True)
    tracer = Tracer() if trace else None
    set_tracer(tracer)
    # perf_counter is monotonic *and* system-wide, so the parent's t0
    # is directly comparable here (unlike time.time, which can step
    # under NTP between the parent's stamp and ours).
    start = time.perf_counter() - t0
    perf_start = time.perf_counter()
    # The pulse is the last acquisition before the try so no fallible
    # setup sits between it and the finally that closes it.
    hb = worker_pulse(pulse)
    # Every acquisition below happens inside the try: attach or setup
    # failures (a torn-down segment after a parent crash, a bad handle)
    # must still release the pulse slot and any mapping already opened.
    store: PointStore | None = None
    idx_shm = None
    ctx = indexes = None
    results: dict[Variant, ClusteringResult] = {}
    records: list[VariantRunRecord] = []
    try:
        store = PointStore.attach(store_handle, tracer=tracer)
        idx_shm, indexes = attach_index_pair(
            idx_handle, store.points, tracer=tracer
        )
        order = [Variant(e, m) for e, m in variant_tuples]
        vset = VariantSet(order)
        checkpoint = (
            CheckpointStore(checkpoint_root, store.fingerprint, store.n_points)
            if checkpoint_root
            else None
        )
        ctx = RunContext(
            store=store,
            indexes=indexes,
            scheduler=_FixedOrderScheduler(order),
            reuse_policy=POLICIES[reuse_policy_name],
            cost_model=cost_model,
            n_threads=1,
            batch_size=batch_size,
            dataset="",
            retry_policy=retry_policy,
            fault_plan=fault_plan,
            checkpoint=checkpoint,
            kernel=kernel,
            factory=IndexFactory(),
            **({"tracer": tracer} if tracer is not None else {}),
        )
        runner = ResilientRunner(ctx, vset)
        registry = CompletedRegistry()
        done = runner.resume_into(registry, results, records)
        # Sharded donors completed before this group was even submitted;
        # t = 0 makes them eligible for the whole chain.  They are *not*
        # part of the worker's variant set (resume/record bookkeeping
        # iterates the set), only reuse sources.
        for (e, m), donor_result in donors:
            registry.add(Variant(e, m), donor_result, finished_at=0.0)
        clock = 0.0
        for planned in ctx.scheduler.plan(vset):
            if planned.variant in done:
                continue
            if hb is not None:
                # Beat *before* the attempt: a stall fault freezes the
                # counter mid-task, which is exactly what the parent's
                # HealthMonitor is looking for.
                hb.beat(
                    f"variant:{planned.variant.eps:g}/{planned.variant.minpts}"
                )
            result, record = runner.execute(planned, registry, concurrency=1)
            if result is None:  # permanent failure: skip, group continues
                continue
            record.start = clock
            clock += record.response_time
            record.finish = clock
            record.thread_id = thread_id
            registry.add(planned.variant, result, finished_at=clock)
            results[planned.variant] = result
            records.append(record)
    finally:
        # Drop every view into the segments before unmapping; both
        # closes tolerate lingering exports (OS reclaims at exit).
        del ctx, indexes
        if idx_shm is not None:
            release_segment(idx_shm)
        if store is not None:
            store.close()
        if hb is not None:
            hb.beat("group:done")
            hb.close()
    finish = time.perf_counter() - t0
    # Re-stamp the work-unit timestamps onto the worker's wall window.
    span = finish - start
    total = clock or 1.0
    for rec in records:
        rec.start = start + rec.start / total * span
        rec.finish = start + rec.finish / total * span
        rec.response_time = rec.finish - rec.start
    batch = BatchResult(
        results=results,
        record=BatchRunRecord(records=records, n_threads=1, makespan=clock),
        report=runner.report(),
    )
    spans = None
    if tracer is not None:
        spans = tracer.drain()
        for s in spans:
            s.t0 = s.t0 - perf_start + start
        set_tracer(None)
    return batch, spans


def _shard_worker(
    store_handle: PointStoreHandle,
    plan: ShardPlan,
    region: int,
    minpts: int,
    kernel: str,
    batch_size: int,
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
    shard spans, which are rebased onto the batch wall window (``t0``
    is from the parent's monotonic clock, which is system-wide) and
    shipped back as plain records.
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
        if fault_spec is not None:
            BoundFaultPlan({}).fire(
                fault_spec, deadline_s=deadline_s, started_at=perf_start
            )
        piece = cluster_shard(
            store.points,
            plan,
            region,
            minpts,
            kernel=kernel,
            batch_size=batch_size,
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
        for s in spans:
            s.t0 = s.t0 - perf_start + start
        set_tracer(None)
    return piece, spans, start, finish - start


# --------------------------------------------------------------------------
# scheduling units and lane sets
# --------------------------------------------------------------------------


@dataclass
class _GroupUnit:
    """Variant tasks run as one unit (a chain on a process lane, one task inline)."""

    gid: int
    variants: list[Variant]
    deps: set[str]  # merge-task ids of sharded donors
    submissions: int = 0
    running: bool = False
    done: bool = False


@dataclass
class _ShardPipeline:
    """One sharded variant: region fan-out plus the parent-side merge."""

    variant: Variant
    n_regions: int
    deps: set[str]  # sequencing edges (shard mode) — empty in hybrid
    merge_id: str
    shard_ids: tuple[str, ...]
    attempt: int = 0  # advances once per absorbed recovery round
    started_at: float = 0.0  # perf_counter at first dispatch
    started: bool = False
    done: bool = False
    last_error: str | None = None
    pieces: dict[int, tuple[ShardPiece, float]] = field(default_factory=dict)
    inflight: set[int] = field(default_factory=set)

    def pending_regions(self) -> list[int]:
        return [
            r
            for r in range(self.n_regions)
            if r not in self.pieces and r not in self.inflight
        ]


@dataclass
class _Job:
    """Bookkeeping for one in-flight unit."""

    kind: str  # "group" | "shard"
    unit: object  # _GroupUnit | _ShardPipeline
    lane: int
    deadline: float | None  # absolute time.monotonic() watchdog budget
    region: int = -1
    stamp: int = -1  # pipeline attempt at submission (staleness check)
    label: str = ""  # supervisor task label ("group:N" / shard task id)
    where: str = ""  # task-span thread name


class _Lane:
    """One worker slot: a single-process pool a kill breaks in isolation."""

    def __init__(self) -> None:
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
        tracer = ctx.tracer
        runner = ResilientRunner(ctx, variants)
        registry = CompletedRegistry()
        results: dict[Variant, ClusteringResult] = {}
        records: list[VariantRunRecord] = []
        done = runner.resume_into(registry, results, records)
        plan = [
            p for p in ctx.scheduler.plan(variants) if p.variant not in done
        ]
        base_plan: ShardPlan | None = None
        n_regions = 1
        if mode in ("shard", "hybrid") and plan:
            n_regions = resolve_n_regions(
                ctx.store.n_points, ctx.regions, ctx.part_size,
                default=ctx.n_threads,
            )
            # Cut geometry is eps-independent; plan once, re-halo per
            # variant with ShardPlan.with_eps.  plan_shards may clamp a
            # degenerate (empty) database to one region — lower with
            # the *planned* count so graph and geometry always agree.
            base_plan = plan_shards(ctx.points, plan[0].variant.eps, n_regions)
            n_regions = base_plan.n_regions
        graph = lower_variants(
            plan,
            variants,
            mode=mode,
            n_regions=n_regions,
            n_points=ctx.store.n_points,
            shard_threshold=ctx.shard_threshold,
        )
        if graph.merge_tasks() and base_plan is not None:
            tracer.instant(
                EVENT_SHARD_PLAN,
                regions=base_plan.n_regions,
                axis=base_plan.axis,
                n=ctx.store.n_points,
            )
        supervisor = None
        if ctx.supervisor is not None:
            supervisor = Supervisor(
                ctx.supervisor, tracer=tracer, n_tasks=max(len(graph), 1)
            )
        if len(graph):
            self._dispatch(
                ctx, runner, graph, base_plan, registry, results, records,
                supervisor=supervisor,
            )
        makespan = max((r.finish for r in records), default=0.0)
        batch_record = BatchRunRecord(
            records=records, n_threads=ctx.n_threads, makespan=makespan
        )
        report = runner.report()
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
        runner: ResilientRunner,
        graph: TaskGraph,
        base_plan: ShardPlan | None,
        registry: CompletedRegistry,
        results: dict,
        records: list,
        supervisor: Supervisor | None = None,
    ) -> None:
        """Dependency-aware dispatch of variant units and shards.

        Units dispatch in graph order once their hard deps are settled.
        On process lanes a variant unit is a reuse-chain group run by a
        :func:`_chain_worker`, with one submission counter per group,
        fault plans re-keyed with :meth:`BoundFaultPlan.shifted` on
        resubmission, and a respawn budget extended by the number of
        *planned* kills.  On inline lanes a unit is one variant task run
        against the parent's registry with ``before = start``; it runs
        at submission and returns a finished future, so one unit is in
        flight at a time.  Shard pipelines are shared: one attempt per
        recovery round, completed regions keep their pieces, and
        finish-phase faults retry the whole variant.

        When a :class:`Supervisor` is attached, the loop polls it
        between units; on process lanes every lane also gets a
        heartbeat-mailbox slot, and stale lanes are respawned.  Crash
        loops and corruption retries pass its risk gate, and a unit
        that exhausts its submission budget steps down the degradation
        ladder (a serial re-run on an inline lane; shard→variant
        lowering for pipelines).  Every decision is traced and lands in
        ``BatchReport.remediations``.
        """
        tracer = ctx.tracer
        policy = runner.policy
        max_attempts = policy.max_attempts if policy is not None else 1
        planned_kills = (
            sum(1 for s in runner.faults.table.values() if s.kind == "kill")
            if runner.faults
            else 0
        )
        max_submissions = max_attempts + planned_kills
        deadline = policy.deadline_s if policy is not None else None
        inline = _InlineLanes(ctx.n_threads) if self.substrate == "sim" else None

        variant_tasks = graph.variant_tasks()
        merge_tasks = graph.merge_tasks()
        shard_deps: dict[Variant, set[str]] = {}
        for st in graph.shard_tasks():
            shard_deps.setdefault(st.variant, set()).update(st.deps)
        sharded_set = {t.variant for t in merge_tasks}
        task_of = {t.variant: t for t in variant_tasks}

        groups: list[_GroupUnit] = []
        if inline is not None:
            for t in variant_tasks:
                groups.append(_GroupUnit(len(groups), [t.variant], set(t.deps)))
        elif variant_tasks:
            # Group the plain variants along the *global* reuse forest
            # (so a sharded root's subtree stays one chain), then drop
            # the sharded variants — their results arrive as donors.
            all_vs = [t.variant for t in variant_tasks] + list(sharded_set)
            raw = partition_reuse_chains(VariantSet(all_vs), ctx.n_threads)
            for chain in raw:
                kept = [v for v in chain if v not in sharded_set]
                if not kept:
                    continue
                deps: set[str] = set()
                for v in kept:
                    deps.update(task_of[v].deps)
                groups.append(_GroupUnit(len(groups), kept, deps))

        pipelines: dict[Variant, _ShardPipeline] = {}
        for mt in merge_tasks:
            pipelines[mt.variant] = _ShardPipeline(
                variant=mt.variant,
                n_regions=mt.n_regions,
                deps=set(shard_deps.get(mt.variant, set())),
                merge_id=mt.task_id,
                shard_ids=tuple(mt.deps),
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
        elif graph.mode == "shard":
            n_lanes = max(1, min(ctx.n_threads, merge_tasks[0].n_regions))
        elif graph.mode == "variant":
            n_lanes = max(1, len(groups))
        else:
            n_lanes = max(1, ctx.n_threads)

        store_handle = (
            ctx.store.ensure_shared(tracer=tracer) if inline is None else None
        )
        checkpoint_root = (
            str(ctx.checkpoint.root) if ctx.checkpoint is not None else None
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

        def settled() -> set[str]:
            return resolved | failed_ids

        def group_label(unit: _GroupUnit) -> str:
            return f"group:{unit.gid}"

        def shard_label(pipe: _ShardPipeline, region: int) -> str:
            return f"shard:{pipe.variant.eps:g}/{pipe.variant.minpts}#{region}"

        def run_variant(run: ResilientRunner, planned, reg, task_id, deps=()):
            """One variant as a unit on an inline lane, on the batch clock.

            Inline lanes price it on the work-unit clock; on a
            process-lane batch (the ladder's serial rung) it runs in the
            parent on the wall clock.  ``(None, None)`` on permanent
            failure.
            """
            if inline is not None:
                start = inline.start(deps)
                result, record = run.execute(
                    planned, reg, before=start, concurrency=ctx.n_threads
                )
                if result is None:
                    return None, None
                tid, finish = inline.occupy(task_id, start, record.response_time)
            else:
                start = time.perf_counter() - t0
                result, record = run.execute(planned, reg)
                if result is None:
                    return None, None
                tid, finish = -1, time.perf_counter() - t0
                record.response_time = finish - start
            record.start, record.finish, record.thread_id = start, finish, tid
            reg.add(planned.variant, result, finished_at=finish)
            return result, record

        def inline_group(unit: _GroupUnit):
            task = task_of[unit.variants[0]]
            result, record = run_variant(
                runner, task.planned, registry, task.task_id, task.deps
            )
            batch = BatchResult(
                results={} if result is None else {task.variant: result},
                record=BatchRunRecord(records=[] if record is None else [record]),
            )
            return batch, None

        def inline_shard(pipe: _ShardPipeline, plan, region, spec, task_id):
            start = inline.start(pipe.deps)
            if spec is not None:
                runner.faults.fire(
                    spec, deadline_s=deadline, started_at=time.perf_counter()
                )
            piece = cluster_shard(
                ctx.points,
                plan,
                region,
                pipe.variant.minpts,
                kernel=ctx.kernel,
                batch_size=ctx.batch_size,
                tracer=tracer,
            )
            dur = ctx.cost_model.duration(piece.counters, ctx.n_threads)
            inline.occupy(task_id, start, dur)
            return piece, None, start, dur

        replan_noted: set[tuple[int, str]] = set()

        def submit_group(unit: _GroupUnit, lane: int) -> None:
            donors = []
            for dep in sorted(unit.deps):
                v = merge_variant[dep]
                if v in results:
                    donors.append((v.as_tuple(), results[v]))
                elif (
                    supervisor is not None
                    and dep in failed_ids
                    and (unit.gid, dep) not in replan_noted
                ):
                    # The donor died permanently; the unit's scheduler
                    # re-plans the chain onto surviving donors / scratch.
                    replan_noted.add((unit.gid, dep))
                    supervisor.on_replanned(
                        group_label(unit),
                        dep,
                        blast_radius=len(unit.variants) / n_graph_tasks,
                    )
            unit.running = True
            budget = None
            if inline is not None:
                where = inline.next_name()
                fut = _resolved(inline_group, unit)
            else:
                where = f"lane-{lane}"
                plan = runner.faults
                if plan is not None and unit.submissions > 0:
                    plan = plan.shifted(unit.submissions)
                if deadline is not None:
                    budget = (
                        time.monotonic()
                        + deadline * len(unit.variants) * max_attempts
                        + 30.0
                    )
                fut = lanes[lane].pool.submit(
                    _chain_worker,
                    store_handle,
                    idx_handle,
                    [v.as_tuple() for v in unit.variants],
                    donors,
                    ctx.reuse_policy.name,
                    ctx.cost_model,
                    t0,
                    ctx.batch_size,
                    tracer.enabled,
                    policy,
                    plan,
                    checkpoint_root,
                    ctx.kernel,
                    mailbox.handle(lane) if mailbox is not None else None,
                    unit.gid,
                )
            if supervisor is not None:
                supervisor.job_started(
                    lane, group_label(unit), deadline_s=deadline
                )
            inflight[fut] = _Job(
                "group", unit, lane, budget, label=group_label(unit),
                where=where,
            )

        def submit_shard(pipe: _ShardPipeline, region: int, lane: int) -> None:
            assert base_plan is not None
            if not pipe.started:
                pipe.started = True
                pipe.started_at = time.perf_counter()
            label = shard_label(pipe, region)
            spec = None
            if runner.faults:
                found = runner.faults.find(pipe.variant, pipe.attempt, "start")
                if found is not None and region == found.index % pipe.n_regions:
                    spec = found
                if spec is None:
                    spec = runner.faults.find_task(label, pipe.attempt, "start")
            pipe.inflight.add(region)
            plan = base_plan.with_eps(pipe.variant.eps)
            budget = None
            if inline is not None:
                where = inline.next_name()
                fut = _resolved(inline_shard, pipe, plan, region, spec, label)
            else:
                where = f"lane-{lane}"
                if deadline is not None:
                    budget = time.monotonic() + deadline + 30.0
                fut = lanes[lane].pool.submit(
                    _shard_worker,
                    store_handle,
                    plan,
                    region,
                    pipe.variant.minpts,
                    ctx.kernel,
                    ctx.batch_size,
                    t0,
                    tracer.enabled,
                    spec,
                    deadline,
                    mailbox.handle(lane) if mailbox is not None else None,
                    label,
                )
            if supervisor is not None:
                supervisor.job_started(lane, label, deadline_s=deadline)
            inflight[fut] = _Job(
                "shard",
                pipe,
                lane,
                budget,
                region=region,
                stamp=pipe.attempt,
                label=label,
                where=where,
            )

        def next_dispatch() -> tuple[str, object, int] | None:
            ready = settled()
            for unit in units:
                if isinstance(unit, _GroupUnit):
                    if (
                        not unit.done
                        and not unit.running
                        and unit.deps <= ready
                    ):
                        return ("group", unit, -1)
                else:
                    if not unit.done and unit.deps <= ready:
                        pending = unit.pending_regions()
                        if pending:
                            return ("shard", unit, pending[0])
            return None

        def run_serial(
            order: list[Variant],
            consumed: int,
            kernel: str,
            step_label: str,
            *,
            donors: tuple[Variant, ...] | list[Variant] = (),
            force_scratch: bool = False,
            task_id: str | None = None,
        ) -> tuple[bool, int]:
            """The ladder's serial rung: ``order`` as units on an inline lane.

            The fault plan is shifted past the ``consumed`` submissions so
            already-fired faults do not refire; completed variants land
            in the shared ``results``/``records`` with a ``degraded``
            outcome.  ``donors`` (seeded at t = 0) and ``force_scratch``
            mirror the reuse provenance the unit had on its original
            rung, so the degraded labels stay byte-identical to a
            fault-free run.  Returns (all completed, attempts used).
            """
            shifted = (
                runner.faults.shifted(consumed)
                if runner.faults and consumed > 0
                else runner.faults
            )
            local_ctx = ctx.with_(
                scheduler=_FixedOrderScheduler(order),
                fault_plan=shifted,
                retry_policy=policy,
                supervisor=None,
                n_threads=1,
                kernel=kernel,
            )
            local_runner = ResilientRunner(local_ctx, VariantSet(order))
            reg = CompletedRegistry()
            for d in donors:
                if d in results:
                    reg.add(d, results[d], finished_at=0.0)
            used = 0
            try:
                for v in order:
                    result, record = run_variant(
                        local_runner,
                        PlannedVariant(v, force_scratch=force_scratch),
                        reg,
                        task_id or variant_task_id(v),
                    )
                    outcome = local_runner.report().outcomes.get(v)
                    attempts = outcome.attempts if outcome is not None else 1
                    used += attempts
                    if result is None:
                        return False, used
                    registry.add(v, result, finished_at=record.finish)
                    results[v] = result
                    records.append(record)
                    runner.mark_degraded(
                        v,
                        step_label,
                        attempts=consumed + attempts,
                        error=outcome.error if outcome is not None else None,
                    )
            except Exception:
                return False, used + 1
            return True, used

        def degrade_group(unit: _GroupUnit, error: str) -> bool:
            """Walk the substrate ladder for an exhausted group."""
            assert supervisor is not None
            label = group_label(unit)
            rung = "lanes"
            consumed = unit.submissions
            while True:
                rec, step = supervisor.on_exhausted(
                    label,
                    submissions=consumed,
                    budget=max_submissions,
                    blast_radius=len(unit.variants) / n_graph_tasks,
                    breaker_key=label,
                    axis="substrate",
                    rung=rung,
                )
                if step is None:
                    return False
                remaining = [v for v in unit.variants if v not in results]
                # Exactly what a fresh lane submission would see: the
                # group's sharded donors plus its own completed chain
                # prefix — not the whole batch (a wider donor pool could
                # pick a different reuse source and permute cluster ids).
                donors = [
                    merge_variant[dep]
                    for dep in sorted(unit.deps)
                    if merge_variant[dep] in results
                ] + [v for v in unit.variants if v in results]
                ok, used = run_serial(
                    remaining, consumed, ctx.kernel, step.label, donors=donors
                )
                supervisor.task_done(label, ok, step.label)
                if ok:
                    unit.done = True
                    return True
                consumed += max(used, 1)
                rung = step.target

        def degrade_pipeline(
            pipe: _ShardPipeline, error: str, *, axis_hint: str | None = None
        ) -> bool:
            """Lower an exhausted pipeline: shard→variant (or cellgraph→bfs)."""
            assert supervisor is not None
            label = pipe.merge_id
            if axis_hint == "kernel" and ctx.kernel == "cellgraph":
                axis, rung = "kernel", ctx.kernel
            else:
                axis, rung = "lowering", "shard"
            rec, step = supervisor.on_exhausted(
                label,
                submissions=pipe.attempt,
                budget=max_submissions,
                blast_radius=(1 + pipe.n_regions) / n_graph_tasks,
                breaker_key=label,
                axis=axis,
                rung=rung,
            )
            if step is None:
                return False
            kernel = "bfs" if axis == "kernel" else ctx.kernel
            # Shard pipelines compute from scratch; the variant-lowered
            # re-run must too, or cluster ids permute under reuse.
            ok, _used = run_serial(
                [pipe.variant], pipe.attempt, kernel, step.label,
                force_scratch=True, task_id=pipe.merge_id,
            )
            supervisor.task_done(label, ok, step.label)
            for r in range(pipe.n_regions):
                # Pending shard-level remediations (a stuck region that
                # forced this lowering) are settled by the variant-level
                # re-run — the shard tasks themselves never complete.
                supervisor.task_done(shard_label(pipe, r), ok, step.label)
            if ok:
                pipe.done = True
                resolved.add(pipe.merge_id)
                return True
            return False

        def fail_pipeline(
            pipe: _ShardPipeline, error: str, *, axis_hint: str | None = None
        ) -> None:
            if supervisor is not None and degrade_pipeline(
                pipe, error, axis_hint=axis_hint
            ):
                return
            runner.mark_failed_group([pipe.variant], error, attempts=pipe.attempt)
            pipe.done = True
            failed_ids.add(pipe.merge_id)
            if supervisor is not None:
                supervisor.task_done(pipe.merge_id, False, error)

        def handle_group_failure(job: _Job, error: str) -> None:
            unit = job.unit
            assert isinstance(unit, _GroupUnit)
            unit.running = False
            unit.submissions += 1
            if supervisor is not None:
                supervisor.job_finished(job.lane)
            exhausted = unit.submissions >= max_submissions
            if (
                supervisor is not None
                and not exhausted
                and unit.submissions >= 2
            ):
                # Second-and-later deaths of the same group are a crash
                # loop: the supervisor gates each further resubmission.
                rec = supervisor.on_crash(
                    group_label(unit),
                    submissions=unit.submissions,
                    budget=max_submissions,
                    blast_radius=len(unit.variants) / n_graph_tasks,
                )
                if rec.decision != "applied":
                    exhausted = True
            if exhausted:
                if supervisor is not None and degrade_group(unit, error):
                    return
                runner.mark_failed_group(
                    unit.variants, error, attempts=unit.submissions
                )
                unit.done = True
                if supervisor is not None:
                    supervisor.task_done(group_label(unit), False, error)

        def handle_shard_failure(job: _Job, error: str) -> None:
            pipe = job.unit
            assert isinstance(pipe, _ShardPipeline)
            pipe.inflight.discard(job.region)
            if supervisor is not None:
                supervisor.job_finished(job.lane)
            if pipe.done or job.stamp != pipe.attempt:
                return  # stale round: already accounted
            pipe.attempt += 1
            pipe.last_error = error
            tracer.instant(
                EVENT_RETRY,
                variant=str(pipe.variant),
                attempt=pipe.attempt,
                regions=[job.region],
                error=error,
            )
            exhausted = pipe.attempt >= max_submissions
            if supervisor is not None and not exhausted and pipe.attempt >= 2:
                rec = supervisor.on_crash(
                    job.label or shard_label(pipe, job.region),
                    submissions=pipe.attempt,
                    budget=max_submissions,
                    blast_radius=1.0 / n_graph_tasks,
                )
                if rec.decision != "applied":
                    exhausted = True
            if exhausted:
                fail_pipeline(pipe, error)

        def handle_failure(job: _Job, error: str) -> None:
            """Account a lost job; ``error`` is prefixed with its kind."""
            if job.kind == "group":
                handle_group_failure(job, f"group {error}")
            else:
                handle_shard_failure(job, f"shard {error}")

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
            try:
                if runner.faults:
                    spec = runner.faults.find(variant, pipe.attempt, "finish")
                    if spec is None:
                        spec = runner.faults.find_task(
                            pipe.merge_id, pipe.attempt, "finish"
                        )
                    if spec is not None:
                        if spec.kind == "corrupt":
                            corrupt_result(result)
                        else:
                            runner.faults.fire(
                                spec,
                                deadline_s=deadline,
                                started_at=pipe.started_at,
                            )
                if runner.enabled:
                    verify_result(result, ctx.store.n_points)
            except Exception as exc:
                if not runner.enabled:
                    raise
                pipe.attempt += 1
                pipe.last_error = f"{type(exc).__name__}: {exc}"
                tracer.instant(
                    EVENT_RETRY,
                    variant=str(variant),
                    attempt=pipe.attempt,
                    error=pipe.last_error,
                )
                retry_ok = pipe.attempt < max_submissions
                if supervisor is not None and retry_ok:
                    # Corruption retries are supervised decisions: the
                    # risk gate must admit the resubmission.
                    rec = supervisor.on_corruption(
                        pipe.merge_id,
                        pipe.last_error,
                        blast_radius=(1 + pipe.n_regions) / n_graph_tasks,
                    )
                    retry_ok = rec.decision == "applied"
                if not retry_ok:
                    fail_pipeline(pipe, pipe.last_error, axis_hint="kernel")
                else:
                    # A finish-phase fault damaged the merged result:
                    # retry the whole variant (serial attempt
                    # semantics), unlike worker deaths which only
                    # resubmit their own region.
                    pipe.pieces = {}
                return
            if inline is not None:
                m_start = inline.start(pipe.shard_ids)
                where = inline.next_name()
                dur = ctx.cost_model.duration(merge_delta, ctx.n_threads)
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
            results[variant] = result
            records.append(record)
            pipe.done = True
            resolved.add(pipe.merge_id)
            if supervisor is not None:
                supervisor.task_done(pipe.merge_id, True, "merge verified")
            if tracer.enabled:
                task_spans.append(
                    SpanRecord(
                        SPAN_TASK, m_start, dur, where,
                        {"kind": "merge", "id": pipe.merge_id,
                         "deps": list(pipe.shard_ids)},
                    )
                )
            if runner.checkpoint is not None:
                runner.checkpoint.save(result)
            if runner.enabled:
                status = (
                    VariantStatus.RETRIED
                    if pipe.attempt > 0
                    else VariantStatus.OK
                )
                runner.merge_outcomes(
                    BatchReport(
                        outcomes={
                            variant: VariantOutcome(
                                variant,
                                status,
                                attempts=pipe.attempt + 1,
                                error=pipe.last_error,
                            )
                        }
                    )
                )

        def handle_group_success(job: _Job, payload) -> None:
            unit = job.unit
            assert isinstance(unit, _GroupUnit)
            batch, spans = payload
            for rec in batch.record.records:
                records.append(rec)
                if tracer.enabled:
                    task = task_of[rec.variant]
                    task_spans.append(
                        SpanRecord(
                            SPAN_TASK,
                            rec.start,
                            rec.finish - rec.start,
                            job.where,
                            {"kind": "variant", "id": task.task_id,
                             "deps": list(task.deps),
                             "soft": list(task.soft_deps)},
                        )
                    )
            if spans:
                tracer.add_records(spans, thread=f"worker-{unit.gid}")
            results.update(batch.results)
            if batch.report is not None:
                if unit.submissions > 0:
                    # The whole group re-ran after a worker death; its
                    # completions are retries even though the fresh
                    # worker saw attempt 0.
                    for o in batch.report.outcomes.values():
                        if o.status is VariantStatus.RESUMED:
                            continue
                        o.attempts += unit.submissions
                        if o.status is VariantStatus.OK:
                            o.status = VariantStatus.RETRIED
                runner.merge_outcomes(batch.report)
            unit.running = False
            unit.done = True
            if supervisor is not None:
                supervisor.job_finished(job.lane)
                supervisor.task_done(group_label(unit), True)

        def handle_shard_success(job: _Job, payload) -> None:
            pipe = job.unit
            assert isinstance(pipe, _ShardPipeline)
            piece, spans, w_start, w_dur = payload
            pipe.inflight.discard(job.region)
            if supervisor is not None:
                supervisor.job_finished(job.lane)
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
                        {"kind": "shard", "id": job.label,
                         "deps": sorted(pipe.deps)},
                    )
                )
            if len(pipe.pieces) == pipe.n_regions:
                merge_pipeline(pipe)

        try:
            if inline is None:
                if groups:
                    idx_shm, idx_handle = share_index_pair(
                        ctx.indexes, tracer=tracer
                    )
                lanes.extend(_Lane() for _ in range(n_lanes))
                if supervisor is not None:
                    mailbox = supervisor.open_mailbox(n_lanes)
            while True:
                while free_lanes:
                    dispatch = next_dispatch()
                    if dispatch is None:
                        break
                    kind, unit, region = dispatch
                    lane = free_lanes.pop()
                    if kind == "group":
                        submit_group(unit, lane)  # type: ignore[arg-type]
                    else:
                        submit_shard(unit, region, lane)  # type: ignore[arg-type]
                if not inflight:
                    break
                timeout = None
                now = time.monotonic()
                for job in inflight.values():
                    if job.deadline is not None:
                        remaining = max(0.0, job.deadline - now)
                        timeout = (
                            remaining
                            if timeout is None
                            else min(timeout, remaining)
                        )
                if supervisor is not None:
                    poll_s = supervisor.policy.poll_interval_s
                    timeout = poll_s if timeout is None else min(timeout, poll_s)
                done_futs, _ = wait(
                    inflight, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if supervisor is not None:
                    # Applied stuck-task remediations: kill the stale
                    # lane and route the job through the normal failure
                    # accounting (which resubmits or degrades).
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
                        lanes[job.lane].respawn(hung=True)
                        free_lanes.append(job.lane)
                        handle_failure(job, "stuck: heartbeat stale")
                if not done_futs:
                    # Watchdog: a truly wedged worker never joins; stop
                    # waiting, kill its lane, and account the failure.
                    now = time.monotonic()
                    for fut in list(inflight):
                        job = inflight[fut]
                        if job.deadline is not None and now >= job.deadline:
                            del inflight[fut]
                            lanes[job.lane].respawn(hung=True)
                            free_lanes.append(job.lane)
                            handle_failure(
                                job, "worker exceeded the deadline budget"
                            )
                    continue
                for fut in done_futs:
                    job = inflight.pop(fut, None)
                    if job is None:
                        continue  # remediated as stuck in this round
                    try:
                        payload = fut.result()
                    except Exception as exc:
                        if not runner.enabled:
                            raise  # seed semantics: plain runs propagate
                        if lanes:
                            lanes[job.lane].respawn()
                        free_lanes.append(job.lane)
                        handle_failure(
                            job, f"worker died: {type(exc).__name__}: {exc}"
                        )
                        continue
                    free_lanes.append(job.lane)
                    if job.kind == "group":
                        handle_group_success(job, payload)
                    else:
                        handle_shard_success(job, payload)
        finally:
            for lane in lanes:
                lane.close()
            if mailbox is not None:
                supervisor.close_mailbox()
            if idx_shm is not None:
                # The pack exists only for this batch; remove it even
                # when a worker raised.  (The point segment belongs to
                # the store's owner — the session or the compatibility
                # run() shim.)  destroy also drops the segment from the
                # owned-set audit, so later leak gates (Session.close,
                # CI doctor) stay clean.
                release_segment(idx_shm)
                destroy_segment(idx_shm)
        if tracer.enabled and task_spans:
            tracer.add_records(task_spans)
