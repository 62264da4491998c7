"""The unified task-graph runtime every executor name lowers through.

An executor name (:data:`repro.exec.EXECUTORS`) picks a lowering mode
(:func:`repro.core.taskgraph.lower_variants`) and a **substrate**, and
:class:`GraphRuntime` executes the resulting DAG with one
dependency-aware dispatch loop (:func:`_dispatch`).  The substrate only
picks the *lane set* that loop dispatches onto.  Both lane sets offer
one small interface: start a unit, stamp its records on their clock,
respawn a lane, close.

``sim`` (:class:`_InlineLanes`)
    ``T`` virtual workers in the parent on the work-unit clock.  A unit
    is one task; it starts at ``max(lane free, hard-dep finishes)`` and
    lasts its cost-model price, ties broken by lane id, so the schedule
    is bit-reproducible.  Runs ``serial`` (``T = 1``) and ``simulated``
    (any lowering mode).  Shard and merge tasks execute for real and
    are priced per task, so a hybrid graph shows one variant's shards
    overlapping other variants' reuse chains on the modeled clock.
``lanes`` (:class:`_ProcessLanes`)
    One single-process pool per lane on the wall clock, so a killed
    worker breaks exactly one lane.  A session's lanes live as long as
    the session and serve all of its process-lane batches.  A variant
    unit is run inside :func:`_chain_worker`: under ``cellgraph`` one
    cell-graph pass (an ``eps`` and all of its ``minpts``, so each pass
    is built once per batch), dispatched longest first by an estimate
    read from the parent's grid (:func:`_pass_cost`), to whichever lane
    frees first; under ``bfs`` a whole reuse chain.  Shard tasks fan out
    one region per lane and merge in the parent.

**One batch state, one failure path.**  A batch's per-run state is one
plain :class:`_Batch` that module-level handlers act on; the unit
classes (:class:`_GroupUnit`, :class:`_ShardPipeline`) carry what
differs between a chain of variants and a sharded variant.  A unit
attempt runs each unfinished variant of its unit once, in chain order
(:func:`repro.exec._runner.run_chain`), and stops at the first failure.
Every lost attempt — a variant that raised, timed out or failed its
audit, a dead, hung or stuck worker, a failed shard or a damaged merge
— lands in :func:`_fail`.  It charges the attempt to the variants
concerned, then retries the unfinished suffix after a backoff, asks the
supervisor's risk gate, steps the unit down the degradation ladder, or
drops a variant permanently.  Checkpoint saves, outcome statuses and
backoff are computed once, in the parent, so a fault plan fires, and
supervision acts, the same way on both lane sets.  :func:`_fail` reads
no lanes, so a hand-built :class:`_Batch` drives it directly.  Every
run record's ``response_time`` is ``finish - start`` on its lane set's
clock.

Documented simplification: lane workers cannot share completed results
mid-flight (process isolation), so cross-group reuse is forfeited,
except that a *sharded donor's* merged result is shipped to dependent
groups at submission time, which is exactly the hard edge hybrid
lowering records.

Shared-memory economics: the parent materializes the point database
once per session and packs the built indexes a batch's kernel reads —
the ``(T_high, T_low)`` R-tree pair under ``bfs``, the session's
per-eps cell grids under ``cellgraph`` (order, offsets and cell keys
only; workers derive the rest).  The pack lives with the session's
lanes: a batch packs again only when it needs an index the pack lacks,
and then packs the union.  Every lane worker attaches both (zero-copy)
once and keeps them, with the grid shells it seeded from the pack, in
its :class:`_LaneState`, instead of pickling points or rebuilding
indexes, so a cellgraph worker builds no grid and maps no R-tree.
"""

from __future__ import annotations

import ctypes
import functools
import heapq
import os
import threading
import time
import weakref
from collections.abc import Iterator
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from multiprocessing import util as mp_util
from typing import TYPE_CHECKING

import numpy as np

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
from repro.index.cellgraph import NEIGHBOR_OFFSETS, CellGraphIndex
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
from repro.supervise.ladder import LadderStep
from repro.supervise.signals import HeartbeatMailbox, PulseHandle, worker_pulse
from repro.supervise.supervisor import Supervisor
from repro.util.errors import CorruptResultError, VariantTimeoutError

if TYPE_CHECKING:
    from multiprocessing.shared_memory import SharedMemory

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

    Process lanes group a ``kernel="bfs"`` batch with it; under
    ``cellgraph`` nothing is reused, so a lane unit is one pass instead
    (:meth:`_ProcessLanes.group`).  Each returned group is ordered
    depth-first along the dependency tree, so executing it serially
    front-to-back always finds each variant's reuse source already
    completed (when the source is in the group).  Groups are balanced
    greedily by variant count.
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


#: :func:`_pass_cost` by grid and ``top``: a session's grids serve many batches.
_PASS_COSTS: weakref.WeakKeyDictionary[CellGraphIndex, dict[int, int]] = (
    weakref.WeakKeyDictionary()
)


def _pass_cost(index: CellGraphIndex, top: int) -> int:
    """A cell-graph pass's estimated work, read from its grid without a distance.

    The sparse scan's candidate count: each cell of fewer than ``top``
    points times the points in its 5x5 block, plus one per dense cell
    (the cell-based cost accounting of Wang, Gu & Shun).  Memoized
    while the grid lives.
    """
    known = _PASS_COSTS.setdefault(index, {})
    if top not in known:
        counts = index.cell_counts
        sparse = np.flatnonzero(counts < top)
        keys = index.cell_keys[sparse]
        # Offset-major probes: each offset's row of keys stays sorted.
        slot = index.slots_at(
            (NEIGHBOR_OFFSETS[:, :1] + keys[:, 0]).ravel(),
            (NEIGHBOR_OFFSETS[:, 1:] + keys[:, 1]).ravel(),
        )
        near = np.where(slot >= 0, counts[slot], 0).reshape(len(NEIGHBOR_OFFSETS), -1)
        block = counts[sparse] + near.sum(axis=0)
        known[top] = int(counts[sparse] @ block) + counts.size - sparse.size
    return known[top]


def _wall_done(t0: float, thread_id: int):
    """A ``run_chain`` ``done`` callback that stamps measured wall time.

    Each record spans from the previous stamp (the first from this
    call) to its own ``done``, in seconds since ``t0``; its
    ``response_time`` is that span.
    """
    mark = time.perf_counter() - t0

    def done(result: ClusteringResult, record: VariantRunRecord) -> float:
        nonlocal mark
        finish = time.perf_counter() - t0
        record.start, record.finish, record.thread_id = mark, finish, thread_id
        record.response_time = finish - mark
        mark = finish
        return finish

    return done


def _run_unit(ctx: RunContext, chain, todo, donors, t0, thread_id, faults, policy, beat=None):
    """One unit attempt on the wall clock: a chain worker's, or the serial rung's.

    ``chain`` is the unit's whole chain (its variant set normalizes
    reuse distances), ``todo`` the ``(planned variant, attempt)`` pairs
    still to run, in chain order, and ``donors`` the results they may
    reuse: sharded donors the chain hard-depends on and the chain's own
    completed prefix.  Donors are seeded into a fresh registry at t = 0
    (it accepts out-of-set donors — inclusion checks are pure variant
    arithmetic), so a resubmitted suffix sees exactly the sources it
    would have seen in one pass.  Each record carries its measured wall
    window (:func:`_wall_done`).  Returns the completed ``(result,
    record)`` pairs, the first failure as ``(variant, error)`` (``None``
    when the whole suffix ran), and no spans.
    """
    registry = CompletedRegistry()
    for variant, result in donors:
        registry.add(variant, result, finished_at=0.0)
    pairs, failed = run_chain(
        ctx, VariantSet(chain), todo, registry, _wall_done(t0, thread_id),
        faults=faults, policy=policy, concurrency=1,
        passes=PassMemo(VariantSet([p.variant for p, _ in todo])), beat=beat,
    )
    return pairs, failed, None


class _LaneState:
    """What one lane worker keeps from unit to unit, for its whole life.

    Its attachment of the session's point segment, its attachment of
    the index pack, and the :class:`IndexFactory` seeded from that pack
    (grid shells with the arrays they derive on first read).  A lane
    serves one session, so the store stays put; the pack changes when a
    batch needs indexes the last pack lacked, and :meth:`bind` then
    drops the old shells and mapping before it attaches the new pack.
    Everything is released when the worker exits.
    """

    def __init__(self) -> None:
        self.store: PointStore | None = None
        self.pack: SharedMemory | None = None
        self.pack_name: str | None = None
        self.factory = IndexFactory()

    def bind(
        self,
        store_handle: PointStoreHandle,
        idx_handle: IndexPackHandle | None,
        tracer: Tracer | None,
    ) -> tuple[PointStore, IndexFactory]:
        """The store and factory of a unit with these handles, attached as needed."""
        if self.store is None or self.store.segment_name != store_handle.name:
            self.release()
            self.store = PointStore.attach(store_handle, tracer=tracer)
        if idx_handle is not None and idx_handle.pack.name != self.pack_name:
            self._drop_pack()
            self.pack = attach_indexes(idx_handle, self.store, self.factory, tracer=tracer)
            self.pack_name = idx_handle.pack.name
        return self.store, self.factory

    def _drop_pack(self) -> None:
        # The shells view the mapping: drop them before unmapping it.
        self.factory = IndexFactory()
        if self.pack is not None:
            release_segment(self.pack)
        self.pack = self.pack_name = None

    def release(self) -> None:
        self._drop_pack()
        if self.store is not None:
            self.store.close()
        self.store = None


@functools.cache
def _lane_state() -> _LaneState:
    """This worker process's :class:`_LaneState`, made by its first unit."""
    state = _LaneState()
    # Worker processes leave through multiprocessing's exit path, which
    # runs these finalizers and skips ``atexit``.
    mp_util.Finalize(None, state.release, exitpriority=0)
    return state


def _chain_worker(
    store_handle: PointStoreHandle,
    idx_handle: IndexPackHandle | None,
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

    The attempt itself is :func:`_run_unit`'s; ``kernel``, ``reuse``
    and ``cost_model`` are the run's own: the worker picks sources with
    the caller's scheduler and seeds clusters with the caller's reuse
    policy.

    The worker reads the parent's shared point segment and index pack
    through its :class:`_LaneState` (zero-copy views, attached by the
    first unit that names them; spans ``shm_attach``) instead of
    receiving pickled points, and its factory holds the packed indexes
    — the R-tree pair under ``bfs``, the per-eps cell grids under
    ``cellgraph`` — so its kernel never builds an index
    (:class:`PassMemo` finds every grid in the factory).  The tracer
    cannot cross the process boundary, so each unit builds its own and
    ships its spans back as plain records; they need no rebasing,
    because every tracer stamps :func:`time.perf_counter`, which is
    system-wide.  ``kill`` faults are armed here, and only in workers,
    so they terminate a worker process and never an in-process caller.

    Returns :func:`_run_unit`'s pairs and first failure, and the
    worker's spans.
    """
    allow_kill_faults(True)
    tracer = Tracer() if trace else None
    set_tracer(tracer)
    # The pulse is the last acquisition before the try so no fallible
    # setup sits between it and the finally that closes it.
    hb = worker_pulse(pulse)
    try:
        store, factory = _lane_state().bind(store_handle, idx_handle, tracer)
        ctx = RunContext(
            store=store,
            spec=RunSpec(kernel=kernel, reuse=reuse, cost_model=cost_model),
            factory=factory,
            **({"tracer": tracer} if tracer is not None else {}),
        )
        # Records are stamped from here on, after attach, in seconds since
        # the parent's t0: perf_counter is monotonic *and* system-wide, so
        # that t0 is directly comparable here (unlike time.time, which can
        # step under NTP between the parent's stamp and ours).
        pairs, failed, _ = _run_unit(
            ctx, [Variant(e, m) for e, m in chain], todo,
            [(Variant(e, m), result) for (e, m), result in donors],
            t0, thread_id, faults, policy, beat=hb.beat if hb is not None else None,
        )
    finally:
        if hb is not None:
            hb.beat("group:done")
            hb.close()
    spans = None
    if tracer is not None:
        spans = tracer.drain()
        set_tracer(None)
    return pairs, failed, spans


def _cluster_region(points, plan, region, minpts, kernel, fault, deadline_s, started_at, tracer):
    """One shard attempt, on either lane set: its start fault, then its slab."""
    fire(fault, deadline_s=deadline_s, started_at=started_at)
    return cluster_shard(points, plan, region, minpts, kernel=kernel, tracer=tracer)


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
        piece = _cluster_region(
            store.points, plan, region, minpts, kernel,
            fault_spec, deadline_s, perf_start, tracer,
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
# scheduling units
# --------------------------------------------------------------------------


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


@dataclass
class _GroupUnit:
    """Variant tasks run as one unit.

    Inline, one task.  On a process lane, one cell-graph pass (every
    ``minpts`` of one ``eps``) under ``cellgraph``; a reuse chain
    under ``bfs``.
    """

    kind = "group"

    gid: int
    variants: list[Variant]  # the whole unit: its set normalizes reuse distances
    todo: list[PlannedVariant]  # unfinished, in chain order
    deps: set[str]  # merge-task ids of sharded donors
    budget: int  # attempts each variant may use up to on the current rung
    cost: tuple = ()  # dispatch priority, largest first: a pass's (estimate, eps)
    rung: str = "lanes"  # "lanes": a chain worker; "serial": in the parent
    kernel: str | None = None  # a ladder step's kernel override
    merge_id: str | None = None  # set when a shard pipeline was lowered to this
    settles: tuple[str, ...] = ()  # that pipeline's shard tasks: closing settles them too
    degraded: str | None = None  # the ladder step this unit took
    ready_after: float = 0.0  # time.monotonic() a retry's backoff ends
    inflight: set[int] = field(default_factory=set)  # {-1} while an attempt runs
    done: bool = False

    @property
    def label(self) -> str:
        return self.merge_id or f"group:{self.gid}"

    def radius(self, n_tasks: int) -> float:
        """The fraction of the batch a remediation of this unit touches."""
        return len(self.todo) / n_tasks

    def dispatchable(self, ready: set[str]) -> int | None:
        """``-1`` when the unit may start (no region), else ``None``."""
        return None if self.inflight or not self.deps <= ready else -1

    def start(self, b: _Batch, region: int, lane: int) -> tuple[Future, _Job]:
        assert b.lanes is not None
        donors = []
        for dep in sorted(self.deps):
            v = b.merge_variant[dep]
            if v in b.results:
                donors.append((v, b.results[v]))
            elif (
                b.supervisor is not None
                and dep in b.failed_ids
                and (self.gid, dep) not in b.replan_noted
            ):
                # The donor died permanently; the unit's scheduler
                # re-plans the chain onto surviving donors / scratch.
                b.replan_noted.add((self.gid, dep))
                b.supervisor.on_replanned(
                    self.label, dep, blast_radius=len(self.variants) / b.n_tasks
                )
        # The chain's completed prefix: a resubmitted suffix sees the
        # sources it would have seen in one pass.
        donors += [(v, b.results[v]) for v in self.variants if v in b.results]
        todo = [(p, b.attempts[p.variant]) for p in self.todo]
        self.inflight.add(region)
        fut, where, deadline = b.lanes.start_unit(b, self, lane, todo, donors)
        return fut, _Job(self, lane, deadline, label=self.label, where=where)

    def settle(self, b: _Batch, job: _Job, payload) -> None:
        pairs, failed, spans = payload
        for result, record in pairs:
            v = record.variant
            self.todo = [p for p in self.todo if p.variant != v]
            _complete(b, v, result, record, self.degraded)
            task = b.task_of.get(v)
            if task is not None:
                _task_span(
                    b, record.start, record.finish - record.start, job.where,
                    "variant", task.task_id, task.deps, soft=list(task.soft_deps),
                )
        if spans:
            b.tracer.add_records(spans, thread=f"worker-{self.gid}")
        if failed is not None:
            _fail(b, self, [failed[0]], failed[1], self.label)
        elif not self.todo:
            _close(b, self, True, self.degraded or "")

    def charged(self, b: _Batch, job: _Job) -> tuple[list[Variant], int | None]:
        """Nothing of a lost attempt is known to have run: charge every unfinished variant."""
        return [p.variant for p in self.todo], None

    def drop(self, lost: list[Variant]) -> bool:
        """Drop ``lost`` for good; ``True`` when nothing is left to run."""
        self.todo = [p for p in self.todo if p.variant not in lost]
        return not self.todo

    def rung_at(self, corrupt: bool, kernel: str) -> tuple[str, str]:
        """The ladder ``(axis, rung)`` an exhausted unit steps down from."""
        return "substrate", self.rung

    def step_down(self, b: _Batch, step: LadderStep, budget: int) -> None:
        self.rung, self.degraded, self.budget = step.target, step.label, budget


@dataclass
class _ShardPipeline:
    """One sharded variant: region fan-out plus the parent-side merge."""

    kind = "shard"
    settles = ()  # each shard settles itself as it completes
    cost = ()  # no estimate: keeps its graph-order place among unpriced units

    variant: Variant
    n_regions: int
    merge_id: str
    shard_ids: tuple[str, ...]  # one task id per region, in region order
    budget: int
    ready_after: float = 0.0
    started_at: float = 0.0  # perf_counter at first dispatch (0: not yet)
    done: bool = False
    pieces: dict[int, tuple[ShardPiece, float]] = field(default_factory=dict)
    inflight: set[int] = field(default_factory=set)

    @property
    def label(self) -> str:
        return self.merge_id

    def radius(self, n_tasks: int) -> float:
        return (1 + self.n_regions) / n_tasks

    def dispatchable(self, ready: set[str]) -> int | None:
        """The first region neither done nor in flight, else ``None``."""
        pending = (r for r in range(self.n_regions) if r not in self.pieces)
        return next((r for r in pending if r not in self.inflight), None)

    def start(self, b: _Batch, region: int, lane: int) -> tuple[Future, _Job]:
        assert b.lanes is not None and b.base_plan is not None
        if not self.started_at:
            self.started_at = time.perf_counter()
        label = self.shard_ids[region]
        attempt = b.attempts[self.variant]
        fault = None
        if b.faults:
            found = b.faults.find(self.variant, attempt, "start")
            if found is not None and region == found.index % self.n_regions:
                fault = found
            if fault is None:
                fault = b.faults.find_task(label, attempt, "start")
        self.inflight.add(region)
        plan = b.base_plan.with_eps(self.variant.eps)
        fut, where, deadline = b.lanes.start_shard(
            b, plan, region, self.variant.minpts, fault, label, lane
        )
        job = _Job(self, lane, deadline, region=region, stamp=attempt, label=label, where=where)
        return fut, job

    def settle(self, b: _Batch, job: _Job, payload) -> None:
        piece, spans, w_start, w_dur = payload
        if b.supervisor is not None:
            b.supervisor.task_done(job.label, True)
        if self.done:
            return  # stale completion after a permanent failure
        # Shard work is deterministic, so a piece from a superseded
        # round is byte-identical — accept it.
        self.pieces[job.region] = (piece, w_start)
        if spans:
            b.tracer.add_records(spans, thread=f"shard-{job.region}")
        _task_span(b, w_start, w_dur, job.where, "shard", job.label, ())
        if len(self.pieces) == self.n_regions:
            _merge(b, self)

    def charged(self, b: _Batch, job: _Job) -> tuple[list[Variant], int | None] | None:
        """The variant, keyed on the region; ``None`` for a stale round."""
        if self.done or job.stamp != b.attempts[self.variant]:
            return None  # stale round: already accounted
        return [self.variant], job.region

    def drop(self, lost: list[Variant]) -> bool:
        return bool(lost)

    def rung_at(self, corrupt: bool, kernel: str) -> tuple[str, str]:
        if corrupt and kernel == "cellgraph":
            return "kernel", kernel
        return "lowering", "shard"

    def step_down(self, b: _Batch, step: LadderStep, budget: int) -> None:
        # The variant re-runs as a unit in the parent, from scratch:
        # shard pipelines compute from scratch, and a reused source
        # could permute cluster ids.
        self.done = True
        b.units[b.units.index(self)] = _GroupUnit(
            -1,
            [self.variant],
            [PlannedVariant(self.variant, force_scratch=True)],
            set(),
            budget,
            rung="serial",
            kernel="bfs" if step.axis == "kernel" else None,
            merge_id=self.merge_id,
            settles=self.shard_ids,
            degraded=step.label,
        )


#: glibc ``mallopt`` parameter: the most malloc arenas a process may have.
_M_ARENA_MAX = -8


@functools.cache
def _one_malloc_arena() -> bool:
    """Cap this process at one glibc malloc arena; ``True`` if it was set.

    A lane pool receives and unpickles its worker's results on its own
    executor thread, and a process starts such threads whenever lanes
    start: for every session, for every run without a session, and for
    every respawned lane.  glibc gives each new thread an arena of its
    own, or one that an ended thread left behind, keeps the pages freed
    into that arena, and hands arenas out in whatever order the threads
    start.  The parent's peak resident set therefore depended on thread
    timing: when every batch started new lanes, on the 18,646-point V1
    sweep over two lanes it settled at about 91, 100 or 108 MB from one
    run to the next.  With one arena every thread allocates from the
    main arena, whose freed pages the next batch reuses, and the peak is
    the same in every run (about 83 MB there).
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


def _resolved(fn, *args) -> Future:
    """Run ``fn`` now and hand back its outcome as a finished future."""
    fut: Future = Future()
    try:
        fut.set_result(fn(*args))
    except Exception as exc:
        fut.set_exception(exc)
    return fut


def _watchdog(deadline_s: float | None, n: int) -> float | None:
    """When a job of ``n`` attempts counts as wedged (``time.monotonic()``)."""
    return None if deadline_s is None else time.monotonic() + deadline_s * n + 30.0


def _unit_ctx(b: _Batch, unit: _GroupUnit) -> RunContext:
    """The run context with ``unit``'s ladder kernel override, if any."""
    if unit.kernel is None:
        return b.ctx
    return replace(b.ctx, spec=b.spec.override(kernel=unit.kernel))


class _InlineLanes:
    """``T`` virtual lanes in the parent on the work-unit clock.

    Lanes carry free times in a min-heap, so ties break on lane id.  A
    unit reads its :meth:`ready_at` before it runs (the online reuse
    constraint is ``before = start``) and :meth:`occupy` books it once
    its price is known; a unit that fails books nothing, so its lane
    frees at once.  A unit runs at submission, so the loop has one
    dispatch slot, and keeps graph order strictly: a unit waiting out
    its backoff holds the lane.
    """

    in_order = True
    t0 = 0.0  # task spans are stamped on the work-unit clock

    def __init__(self, n: int, variants: VariantSet) -> None:
        self.n_slots = 1
        self.free = [(0.0, tid) for tid in range(n)]  # sorted: a heap
        self.finish_at: dict[str, float] = {}
        self.passes = PassMemo(variants)  # the batch's cell-graph passes, one per eps

    def group(self, b: _Batch, graph: TaskGraph) -> list[_GroupUnit]:
        """One unit per variant task, run in the parent."""
        return [
            _GroupUnit(gid, [t.variant], [t.planned], set(t.deps), b.budget, rung="serial")
            for gid, t in enumerate(graph.variant_tasks())
        ]

    def next_name(self) -> str:
        return f"sim-{self.free[0][1]}"

    def ready_at(self, deps) -> float:
        done = [self.finish_at[d] for d in deps if d in self.finish_at]
        return max([self.free[0][0], *done])

    def occupy(self, task_id: str, start: float, dur: float) -> tuple[int, float]:
        _, tid = heapq.heappop(self.free)
        finish = start + dur
        heapq.heappush(self.free, (finish, tid))
        self.finish_at[task_id] = finish
        return tid, finish

    def start_unit(self, b: _Batch, unit: _GroupUnit, lane: int, todo, donors):
        """Run one unit attempt now, as one task priced by the cost model."""
        where = self.next_name()
        return _resolved(self._run_unit, b, unit, todo), where, None

    def _run_unit(self, b: _Batch, unit: _GroupUnit, todo):
        # Starts when its lane and hard deps free up, against the
        # batch's registry with ``before = start``.
        start = self.ready_at(unit.deps)
        task_id = unit.merge_id or variant_task_id(unit.variants[0])

        def done(result, record) -> float:
            tid, finish = self.occupy(task_id, start, record.response_time)
            record.start, record.finish, record.thread_id = start, finish, tid
            return finish

        pairs, failed = run_chain(
            _unit_ctx(b, unit), b.variants, todo, b.registry, done,
            faults=b.faults, policy=b.policy,
            concurrency=b.spec.n_threads, before=start, passes=self.passes,
        )
        return pairs, failed, None

    def start_shard(self, b: _Batch, plan, region, minpts, fault, label, lane):
        where = self.next_name()
        return _resolved(self._shard, b, plan, region, minpts, fault, label), where, None

    def _shard(self, b: _Batch, plan, region, minpts, fault, label):
        start = self.ready_at(())
        piece = _cluster_region(
            b.ctx.points, plan, region, minpts, b.spec.kernel,
            fault, b.deadline, time.perf_counter(), b.tracer,
        )
        dur = b.spec.cost_model.duration(piece.counters, b.spec.n_threads)
        self.occupy(label, start, dur)
        return piece, None, start, dur

    def stamp_merge(self, b: _Batch, pipe: _ShardPipeline, merge_t0: float, delta):
        """A merge's ``(start, finish, duration, lane, thread name)``."""
        start = self.ready_at(pipe.shard_ids)
        where = self.next_name()
        dur = b.spec.cost_model.duration(delta, b.spec.n_threads)
        tid, finish = self.occupy(pipe.merge_id, start, dur)
        return start, finish, dur, tid, where

    def open(self, b: _Batch) -> None:
        """Nothing to acquire: every unit runs in the parent."""

    def respawn(self, lane: int, hung: bool) -> None:
        """A lost inline attempt leaves no worker behind."""

    def close(self, b: _Batch) -> None:
        """Nothing to release."""


class _ProcessLanes:
    """One single-process pool per dispatch slot, on the wall clock.

    A session keeps one lane set for its life and hands it to every
    process-lane batch (:attr:`RunContext.lanes`), so the pools, their
    workers' attachments and the index pack outlive a batch: a batch
    starts only the lanes no earlier batch started, and packs again
    only when it needs an index the pack lacks.  A run without one gets
    a lane set of its own, shut down when the batch ends
    (:func:`_lane_set`).

    A kill breaks exactly one lane's pool, and only that pool is
    replaced.  A variant unit is one cell-graph pass under
    ``cellgraph`` and a reuse chain under ``bfs`` (:meth:`group`), run
    by :func:`_chain_worker`, or, on the ladder's serial rung, by
    :func:`_run_unit` in the parent; a shard task is one region run by
    :func:`_shard_worker`.  Records and task spans are stamped in
    seconds since :attr:`t0`.
    """

    in_order = False

    def __init__(self) -> None:
        self.n_slots = 1
        self.t0 = 0.0
        self.indexes: list[tuple[str, dict]] = []  # the batch's factory (kind, params)
        self.factory = IndexFactory()  # the run's, when it has one
        self.store_handle: PointStoreHandle | None = None
        self.packed: list[tuple[str, dict]] = []  # what the live pack holds
        self.idx_shm: SharedMemory | None = None
        self.idx_handle: IndexPackHandle | None = None
        self.pools: list[ProcessPoolExecutor] = []
        self.supervisor: Supervisor | None = None
        self.mailbox: HeartbeatMailbox | None = None
        self.busy = threading.Lock()  # held by the one batch running on these lanes

    def group(self, b: _Batch, graph: TaskGraph) -> list[_GroupUnit]:
        """The variant units, and as many lanes as can run at once.

        Under ``cellgraph`` a unit is one pass: every plain variant of
        one ``eps``, priced by :func:`_pass_cost` at its largest
        ``minpts`` on the parent's grid (ties to the larger ``eps``),
        so the dispatch loop hands out the longest pass first.  Under
        ``bfs`` the units are reuse chains.
        """
        if b.ctx.factory is not None:
            self.factory = b.ctx.factory
        sharded = {t.variant for t in graph.merge_tasks()}
        plain = [t.variant for t in graph.variant_tasks()]
        units: list[tuple[list[Variant], tuple]] = []
        self.indexes = []
        if b.spec.kernel == "cellgraph":
            top: dict[float, int] = {}
            for v in plain:
                top[v.eps] = max(top.get(v.eps, 0), v.minpts)
            for eps, m in top.items():
                grid = self.factory.get(b.ctx.store, "cellgraph", eps=eps, tracer=b.tracer)
                assert isinstance(grid, CellGraphIndex)
                units.append(
                    (sorted((v for v in plain if v.eps == eps), key=sort_key),
                     (_pass_cost(grid, m), eps))
                )
            units.sort(key=lambda u: u[1], reverse=True)
            # Each worker reads the grids of its unit's eps.
            self.indexes = [("cellgraph", {"eps": e}) for e in sorted(top)]
        elif plain:
            # Group the plain variants along the *global* reuse forest
            # (so a sharded root's subtree stays one chain), then drop
            # the sharded variants — their results arrive as donors.
            forest = VariantSet(plain + list(sharded))
            for chain in partition_reuse_chains(forest, b.spec.n_threads):
                kept = [v for v in chain if v not in sharded]
                if kept:
                    units.append((kept, ()))
            # The chain workers read the (T_high, T_low) pair.
            self.indexes = pair_params(b.spec.effective_reuse.low_res_r)
        groups = [
            _GroupUnit(
                gid, kept, [PlannedVariant(v) for v in kept],
                set().union(*(b.task_of[v].deps for v in kept)), b.budget, cost=cost,
            )
            for gid, (kept, cost) in enumerate(units)
        ]
        # A shard pipeline can keep one lane busy per region.
        slots = len(groups) + sum(mt.n_regions for mt in graph.merge_tasks())
        self.n_slots = max(1, min(slots, b.spec.n_threads))
        return groups

    def open(self, b: _Batch) -> None:
        """Share the store, pack what the pack lacks, start missing lanes, open the mailbox."""
        tracer = b.tracer
        self.store_handle = b.ctx.store.ensure_shared(tracer=tracer)
        self.t0 = time.perf_counter()
        missing = [w for w in self.indexes if w not in self.packed]
        if missing:
            # The union, so a session alternating kernels or eps values
            # packs each index once.  The old segment's name goes now,
            # its memory once every worker has swapped to the new pack
            # (on its next unit).
            wanted = self.packed + missing
            self._drop_pack()
            self.idx_shm, self.idx_handle = share_indexes(
                self.factory, b.ctx.store, wanted, tracer=tracer
            )
            self.packed = wanted
            # The parent never reads the pack: unmap it here, and keep
            # the segment object only to unlink the name.
            release_segment(self.idx_shm)
        _one_malloc_arena()
        self.pools.extend(
            ProcessPoolExecutor(max_workers=1) for _ in range(self.n_slots - len(self.pools))
        )
        if b.supervisor is not None:
            self.supervisor = b.supervisor
            self.mailbox = b.supervisor.open_mailbox(self.n_slots)

    def _pulse(self, lane: int) -> PulseHandle | None:
        return self.mailbox.handle(lane) if self.mailbox is not None else None

    def start_unit(self, b: _Batch, unit: _GroupUnit, lane: int, todo, donors):
        if unit.rung == "serial":
            fut = _resolved(
                _run_unit, _unit_ctx(b, unit), unit.variants, todo, donors,
                self.t0, -1, b.faults, b.policy,
            )
            return fut, "parent", None
        fut = self.pools[lane].submit(
            _chain_worker,
            self.store_handle,
            self.idx_handle,
            [v.as_tuple() for v in unit.variants],
            todo,
            [(v.as_tuple(), r) for v, r in donors],
            b.spec.kernel,
            b.spec.reuse,
            b.spec.cost_model,
            self.t0,
            b.tracer.enabled,
            b.policy,
            b.faults,
            self._pulse(lane),
            unit.gid,
        )
        return fut, f"lane-{lane}", _watchdog(b.deadline, len(todo))

    def start_shard(self, b: _Batch, plan, region, minpts, fault, label, lane):
        fut = self.pools[lane].submit(
            _shard_worker,
            self.store_handle,
            plan,
            region,
            minpts,
            b.spec.kernel,
            self.t0,
            b.tracer.enabled,
            fault,
            b.deadline,
            self._pulse(lane),
            label,
        )
        return fut, f"lane-{lane}", _watchdog(b.deadline, 1)

    def stamp_merge(self, b: _Batch, pipe: _ShardPipeline, merge_t0: float, delta):
        start = merge_t0 - self.t0
        finish = time.perf_counter() - self.t0
        return start, finish, finish - start, 0, "parent"

    def respawn(self, lane: int, hung: bool) -> None:
        pool = self.pools[lane]
        if hung:  # wedged workers never join; kill them first
            for proc in list(getattr(pool, "_processes", {}).values()):
                proc.terminate()
        pool.shutdown(wait=True, cancel_futures=True)
        self.pools[lane] = ProcessPoolExecutor(max_workers=1)

    def close(self, b: _Batch) -> None:
        """End the batch; the lanes and the pack stay for the next one.

        A lane the batch did not hand back still runs a job of a batch
        that raised: it is killed and replaced, so the next batch starts
        on idle lanes.
        """
        for lane in range(self.n_slots):
            if lane not in b.free_lanes:
                self.respawn(lane, hung=True)
        if self.supervisor is not None and self.mailbox is not None:
            self.supervisor.close_mailbox()
        self.supervisor = self.mailbox = None

    def _drop_pack(self) -> None:
        if self.idx_shm is not None:
            # destroy also drops the segment from the owned-set audit,
            # so later leak gates (Session.close, CI doctor) stay clean.
            release_segment(self.idx_shm)
            destroy_segment(self.idx_shm)
        self.idx_shm = self.idx_handle = None
        self.packed = []

    def shutdown(self) -> None:
        """Stop every lane and remove the pack: the owner is done with them."""
        for pool in self.pools:
            pool.shutdown(wait=True, cancel_futures=True)
        self.pools.clear()
        self._drop_pack()


@contextmanager
def _lane_set(substrate: str, ctx: RunContext, variants: VariantSet) -> Iterator:
    """The lane set a batch dispatches onto, for the length of the batch.

    Inline lanes are the batch's own.  Process lanes are the session's
    (``ctx.lanes``) when it has a free set, else the batch's own, shut
    down when it ends.
    """
    if substrate == "sim":
        yield _InlineLanes(ctx.spec.n_threads, variants)
        return
    shared = ctx.lanes
    if shared is not None and shared.busy.acquire(blocking=False):
        try:
            yield shared
        finally:
            shared.busy.release()
        return
    own = _ProcessLanes()
    try:
        yield own
    finally:
        own.shutdown()


# --------------------------------------------------------------------------
# the batch state and its handlers
# --------------------------------------------------------------------------


@dataclass
class _Batch:
    """The per-run state of one dispatch: plain data the handlers share.

    ``lanes`` stays ``None`` until the runtime picks a lane set; the
    failure handlers never read it.
    """

    ctx: RunContext
    variants: VariantSet
    policy: RetryPolicy | None = None
    faults: BoundFaultPlan | None = None
    supervisor: Supervisor | None = None
    base_plan: ShardPlan | None = None
    lanes: _InlineLanes | _ProcessLanes | None = None
    n_tasks: int = 1  # graph size: remediation blast radii are fractions of it
    registry: CompletedRegistry = field(default_factory=CompletedRegistry)
    results: dict[Variant, ClusteringResult] = field(default_factory=dict)
    records: list[VariantRunRecord] = field(default_factory=list)
    outcomes: dict[Variant, VariantOutcome] = field(default_factory=dict)
    units: list[_GroupUnit | _ShardPipeline] = field(default_factory=list)
    task_of: dict[Variant, VariantTask] = field(default_factory=dict)
    merge_variant: dict[str, Variant] = field(default_factory=dict)
    inflight: dict[Future, _Job] = field(default_factory=dict)
    free_lanes: list[int] = field(default_factory=list)
    resolved: set[str] = field(default_factory=set)
    failed_ids: set[str] = field(default_factory=set)
    replan_noted: set[tuple[int, str]] = field(default_factory=set)
    task_spans: list[SpanRecord] = field(default_factory=list)
    last_error: dict[Variant, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.spec, self.tracer = self.ctx.spec, self.ctx.tracer
        policy = self.policy
        self.max_attempts = policy.max_attempts if policy is not None else 1
        self.deadline = policy.deadline_s if policy is not None else None
        # A variant's budget counts the plan's kill faults too, so
        # collateral deaths never exhaust an innocent variant.
        kills = sum(s.kind == "kill" for s in self.faults.table.values()) if self.faults else 0
        self.budget = self.max_attempts + kills
        self.attempts = dict.fromkeys(self.variants, 0)
        # Canonical batch index: the backoff jitter key of a variant.
        self.index_of = {v: i for i, v in enumerate(self.variants)}


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


def _task_span(b: _Batch, start, dur, where, kind, task_id, deps, **extra) -> None:
    """Keep one ``task`` span (when tracing), on the lane set's clock."""
    if b.tracer.enabled:
        args = {"kind": kind, "id": task_id, "deps": list(deps), **extra}
        b.task_spans.append(SpanRecord(SPAN_TASK, start, dur, where, args))


def _complete(
    b: _Batch,
    variant: Variant,
    result: ClusteringResult,
    record: VariantRunRecord,
    degraded: str | None = None,
) -> None:
    """A variant finished: keep it, checkpoint it, write its outcome."""
    b.results[variant] = result
    b.records.append(record)
    if b.ctx.checkpoint is not None:
        b.ctx.checkpoint.save(result)
    _settle(
        b.outcomes,
        variant,
        VariantStatus.RETRIED if b.attempts[variant] else VariantStatus.OK,
        b.attempts[variant] + 1,
        b.last_error.get(variant),
        degraded,
    )


def _close(b: _Batch, unit: _GroupUnit | _ShardPipeline, ok: bool, detail: str) -> None:
    """Mark ``unit`` settled and resolve its pending verifications."""
    unit.done = True
    if unit.merge_id is not None:
        (b.resolved if ok else b.failed_ids).add(unit.merge_id)
    if b.supervisor is not None:
        for label in (unit.label, *unit.settles):
            b.supervisor.task_done(label, ok, detail)


def _degrade(b: _Batch, unit: _GroupUnit | _ShardPipeline, n: int, corrupt: bool) -> bool:
    """Step an exhausted unit down the ladder; False when none applies."""
    assert b.supervisor is not None
    axis, rung = unit.rung_at(corrupt, b.spec.kernel)
    _, step = b.supervisor.on_exhausted(
        unit.label,
        submissions=n,
        budget=unit.budget,
        blast_radius=unit.radius(b.n_tasks),
        breaker_key=unit.label,
        axis=axis,
        rung=rung,
    )
    if step is None:
        return False
    unit.step_down(b, step, n + b.max_attempts)
    return True


def _fail(
    b: _Batch,
    unit: _GroupUnit | _ShardPipeline,
    charged: list[Variant],
    error: BaseException | str,
    label: str,
    *,
    key: int | None = None,
    corrupt: bool = False,
) -> None:
    """The one failure path: every lost attempt of the batch lands here.

    Charges one attempt to each variant of ``charged``, then retries
    the unit after a backoff (keyed on ``key``, default the first
    charged variant's canonical index), or — once a variant's budget is
    spent or the supervisor's risk gate rejects the retry — steps the
    unit down the ladder or drops the exhausted variants permanently.
    ``corrupt`` marks a damaged merge, which the gate judges as such
    from the first failure on.
    """
    assert b.policy is not None
    err = error if isinstance(error, str) else f"{type(error).__name__}: {error}"
    for v in charged:
        b.attempts[v] += 1
        b.last_error[v] = err
    n = max(b.attempts[v] for v in charged)
    b.tracer.instant(
        EVENT_TIMEOUT if isinstance(error, VariantTimeoutError) else EVENT_RETRY,
        variant=str(charged[0]),
        attempt=n - 1,
        error=err,
    )
    lost = [v for v in charged if b.attempts[v] >= unit.budget]
    sup = b.supervisor
    if sup is not None and not lost and (corrupt or n >= 2):
        # Crash loops and corrupt merges are supervised decisions: the
        # risk gate must admit the retry.
        if corrupt:
            rec = sup.on_corruption(label, err, blast_radius=unit.radius(b.n_tasks))
        else:
            rec = sup.on_crash(
                label,
                submissions=n,
                budget=unit.budget,
                blast_radius=len(charged) / b.n_tasks,
            )
        if rec.decision != "applied":
            lost = list(charged)
    if lost and sup is not None and _degrade(b, unit, n, corrupt):
        return
    for v in lost:
        _settle(b.outcomes, v, VariantStatus.FAILED, b.attempts[v], err)
        b.tracer.instant(EVENT_FAILED, variant=str(v), attempts=b.attempts[v], error=err)
    if unit.drop(lost):
        _close(b, unit, False, err)
        return
    unit.ready_after = time.monotonic() + b.policy.backoff_s(
        n - 1, key=b.index_of[charged[0]] if key is None else key
    )


def _merge(b: _Batch, pipe: _ShardPipeline) -> None:
    """Merge a pipeline's pieces in the parent; a damaged merge re-runs every region."""
    assert b.lanes is not None and b.base_plan is not None
    variant = pipe.variant
    plan = b.base_plan.with_eps(variant.eps)
    merge_t0 = time.perf_counter()
    merge_delta = WorkCounters()
    ordered = [pipe.pieces[r][0] for r in range(pipe.n_regions)]
    labels, core_mask = merge_shards(
        b.ctx.points, plan, ordered, counters=merge_delta, tracer=b.tracer
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
    attempt = b.attempts[variant]
    faults = b.faults
    try:
        finish_attempt(
            result,
            (
                faults.find(variant, attempt, "finish")
                or faults.find_task(pipe.merge_id, attempt, "finish")
            )
            if faults
            else None,
            b.policy,
            b.ctx.store.n_points,
            pipe.started_at,
        )
    except Exception as exc:
        if b.policy is None:
            raise
        # A damaged merged result re-runs the whole variant, unlike a
        # worker death, which resubmits its own region.
        pipe.pieces = {}
        corrupt = isinstance(exc, CorruptResultError)
        _fail(b, pipe, [variant], exc, pipe.merge_id, corrupt=corrupt)
        return
    m_start, finish, dur, tid, where = b.lanes.stamp_merge(b, pipe, merge_t0, merge_delta)
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
    b.registry.add(variant, result, finished_at=finish)
    _complete(b, variant, result, record)
    _close(b, pipe, True, "merge verified")
    _task_span(b, m_start, dur, where, "merge", pipe.merge_id, pipe.shard_ids)


def _plan_units(b: _Batch, graph: TaskGraph) -> None:
    """Fill ``b``'s units and lanes.

    Units go in graph order (each where its first task is), except
    that priced units (:attr:`_GroupUnit.cost`) go first, the
    largest first.
    """
    assert b.lanes is not None
    b.task_of = {t.variant: t for t in graph.variant_tasks()}
    groups = b.lanes.group(b, graph)
    pipelines = {
        mt.variant: _ShardPipeline(
            mt.variant, mt.n_regions, mt.task_id, tuple(mt.deps), b.budget
        )
        for mt in graph.merge_tasks()
    }
    b.merge_variant = {p.merge_id: p.variant for p in pipelines.values()}
    # Groups hold the variant tasks, pipelines the sharded variants, so
    # every task's variant names exactly one unit.
    unit_of = {v: g for g in groups for v in g.variants} | pipelines
    first = {id(u): u for u in (unit_of.get(t.variant) for t in graph.tasks) if u is not None}
    b.units = sorted(first.values(), key=lambda u: u.cost, reverse=True)
    b.free_lanes = list(range(b.lanes.n_slots))


def _next_dispatch(b: _Batch, now: float):
    """The first dispatchable unit in graph order, its region, and the next wake-up."""
    assert b.lanes is not None
    ready = b.resolved | b.failed_ids
    wake = None
    for unit in b.units:
        if unit.done:
            continue
        region = unit.dispatchable(ready)
        if region is None:
            continue
        if unit.ready_after > now:
            wake = unit.ready_after if wake is None else min(wake, unit.ready_after)
            if b.lanes.in_order:
                break
            continue
        return unit, region, wake
    return None, -1, wake


def _submit(b: _Batch, unit: _GroupUnit | _ShardPipeline, region: int, lane: int) -> None:
    """Start ``unit`` (or its ``region``) on ``lane`` and put it in flight."""
    fut, job = unit.start(b, region, lane)
    if b.supervisor is not None:
        b.supervisor.job_started(lane, job.label, deadline_s=b.deadline)
    b.inflight[fut] = job


def _on_done(b: _Batch, job: _Job, payload) -> None:
    """A job returned: free its lane, and its unit settles what it ran."""
    _release(b, job)
    job.unit.settle(b, job, payload)


def _on_lost(b: _Batch, job: _Job, error: str) -> None:
    """A job raised, outlived its watchdog, or was remediated as stuck."""
    found = job.unit.charged(b, job)
    if found is not None:
        charged, key = found
        _fail(b, job.unit, charged, f"{job.unit.kind} {error}", job.label, key=key)


def _release(b: _Batch, job: _Job, *, respawn: bool = False, hung: bool = False) -> None:
    """Take ``job`` out of flight and hand its lane back (``respawn``: a lost worker's)."""
    assert b.lanes is not None
    if respawn:
        b.lanes.respawn(job.lane, hung)
    b.free_lanes.append(job.lane)
    if b.supervisor is not None:
        b.supervisor.job_finished(job.lane)
    job.unit.inflight.discard(job.region)


def _dispatch(b: _Batch) -> None:
    """Dependency-aware dispatch of ``b``'s units onto its lane set.

    Units dispatch in graph order once their hard deps are settled and
    their backoff has ended.  Shard pipelines keep completed regions'
    pieces.  Each variant carries its own attempt count, shipped with
    every submission so fault-plan lookups key on it.  With a
    :class:`Supervisor` attached, the loop also respawns lanes whose
    heartbeat went stale (process lanes only), and every decision is
    traced and lands in ``BatchReport.remediations``.
    """
    assert b.lanes is not None
    try:
        b.lanes.open(b)
        while True:
            wake = None
            while b.free_lanes:
                unit, region, wake = _next_dispatch(b, time.monotonic())
                if unit is None:
                    break
                _submit(b, unit, region, b.free_lanes.pop())
            now = time.monotonic()
            if not b.inflight:
                if wake is None:
                    break
                # Nothing runs until a backoff ends: wait it out.
                time.sleep(max(0.0, wake - now))
                continue
            waits = [j.deadline - now for j in b.inflight.values() if j.deadline is not None]
            if wake is not None:
                waits.append(wake - now)
            if b.supervisor is not None:
                waits.append(b.supervisor.policy.poll_interval_s)
            timeout = max(0.0, min(waits)) if waits else None
            done_futs, _ = wait(b.inflight, timeout=timeout, return_when=FIRST_COMPLETED)
            if b.supervisor is not None:
                # Applied stuck-task remediations: kill the stale lane
                # and route the job through the failure path.
                for rec in b.supervisor.poll():
                    target = rec.anomaly.subject
                    match = next(
                        (
                            f
                            for f, j in b.inflight.items()
                            if j.label == target and f not in done_futs
                        ),
                        None,
                    )
                    if match is None:
                        continue
                    job = b.inflight.pop(match)
                    _release(b, job, respawn=True, hung=True)
                    _on_lost(b, job, "stuck: heartbeat stale")
            if not done_futs:
                # Watchdog: a truly wedged worker never joins; stop
                # waiting, kill its lane, and account the failure.
                now = time.monotonic()
                for fut in list(b.inflight):
                    job = b.inflight[fut]
                    if job.deadline is not None and now >= job.deadline:
                        del b.inflight[fut]
                        _release(b, job, respawn=True, hung=True)
                        _on_lost(b, job, "worker exceeded the deadline budget")
                continue
            for fut in done_futs:
                job = b.inflight.pop(fut, None)
                if job is None:
                    continue  # remediated as stuck in this round
                try:
                    payload = fut.result()
                except Exception as exc:
                    if b.policy is None:
                        raise  # no resilience configured: propagate
                    _release(b, job, respawn=True)
                    _on_lost(b, job, f"worker died: {type(exc).__name__}: {exc}")
                    continue
                _on_done(b, job, payload)
    finally:
        b.lanes.close(b)
    if b.tracer.enabled and b.task_spans:
        # Task spans are stamped on the batch's clock: the work-unit
        # clock inline, else seconds since t0, which this offset puts
        # on the tracer's own clock beside every other span.
        b.tracer.add_records(b.task_spans, offset=b.lanes.t0)


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
        b = _Batch(ctx, variants, policy=policy, faults=faults)
        if ctx.checkpoint is not None:
            # A loaded result is genuine for this database fingerprint,
            # so it is registered at t = 0 as a legal donor.
            for variant in variants:
                result = ctx.checkpoint.load(variant)
                if result is None:
                    continue
                b.registry.add(variant, result, finished_at=0.0)
                b.results[variant] = result
                b.records.append(
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
                _settle(b.outcomes, variant, VariantStatus.RESUMED, 0)
                tracer.instant(EVENT_RESUMED, variant=str(variant))
        plan = [
            p for p in spec.effective_reuse.scheduler.plan(variants) if p.variant not in b.results
        ]
        if mode == "hybrid" and spec.shard_threshold is None and spec.kernel == "cellgraph":
            # Variant-first hybrid never pays under the cell-graph kernel:
            # a slab builds its own grid where the whole variant reuses
            # the session's one, so a lone big root runs whole.
            mode = "variant"
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
        if graph.merge_tasks():
            # Cut geometry is eps-independent; plan once, re-halo per
            # variant with ShardPlan.with_eps.
            b.base_plan = plan_shards(ctx.points, plan[0].variant.eps, n_regions)
            tracer.instant(
                EVENT_SHARD_PLAN,
                regions=b.base_plan.n_regions,
                axis=b.base_plan.axis,
                n=ctx.store.n_points,
            )
        b.n_tasks = max(len(graph), 1)
        if spec.supervise is not None:
            b.supervisor = Supervisor(spec.supervise, tracer=tracer, n_tasks=b.n_tasks)
        if len(graph):
            with _lane_set(self.substrate, ctx, variants) as lanes:
                b.lanes = lanes
                _plan_units(b, graph)
                _dispatch(b)
        makespan = max((r.finish for r in b.records), default=0.0)
        batch_record = BatchRunRecord(
            records=b.records, n_threads=spec.n_threads, makespan=makespan
        )
        report = None
        if policy is not None:  # else errors propagated: no report
            report = BatchReport(outcomes=b.outcomes)
            classify_replans(report, variants)
        if b.supervisor is not None:
            # Dangling verifications fail, orphaned segments are reclaimed.
            b.supervisor.finalize()
            if report is not None:
                report.remediations.extend(b.supervisor.records)
        return BatchResult(results=b.results, record=batch_record, report=report)
