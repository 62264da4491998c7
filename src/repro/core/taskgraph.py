"""Task-graph planning: lower a scheduled variant set into a typed DAG.

The paper exposes one axis of parallelism (Algorithm 3's outer
``parallel for`` over variants); the shard module adds the orthogonal
axis (region decomposition inside one variant).  This module unifies
the two by *lowering* a scheduler's planned queue into an explicit DAG
of uniform, schedulable tasks — the restructuring move of Prokopenko
et al. (arXiv:2103.05162) and the cell/merge decomposition of Wang, Gu
& Shun (arXiv:1912.06255) applied to the variant grid:

* :class:`VariantTask` — cluster one variant whole (scratch or reuse).
  Reuse-dependency edges come from the Figure 3(a) donor forest.
* :class:`ShardTask` — cluster one spatial region's slab of a variant
  (:func:`repro.core.shard.cluster_shard`).
* :class:`MergeTask` — stitch a variant's shard pieces back into the
  canonical labels (:func:`repro.core.shard.merge_shards`).

Two lowering modes cover every executor backend:

``variant``
    One :class:`VariantTask` per planned variant.  Donor edges are
    **soft** (advisory: they name the statically best source but never
    block dispatch) because reuse is online — a variant legally runs
    from scratch, or reuses any other completed donor, when its static
    donor is unavailable.
``hybrid``
    From-scratch variants (donor-forest roots and ``force_scratch``
    heads) may fan out into shard/merge tasks; every other variant
    stays a :class:`VariantTask`.  At the default threshold the
    lowering is *variant-first*, the paper's outer ``parallel for``:
    scratch roots of :data:`DEFAULT_SHARD_THRESHOLD` or more points fan
    out only when the batch has fewer scratch roots (independent
    chains) than lanes, so whole variants fill the lanes whenever there
    are enough of them.  An explicit ``shard_threshold`` fans out every
    scratch root of at least that many points.  Both rules read only
    the plan and the sizes, so the graph is deterministic.  A donor
    edge *onto a sharded donor* becomes **hard** — the dependent waits
    for the merge so reuse is possible and schedules stay deterministic
    — while donor edges between plain variant tasks stay soft.  Nothing
    sequences unrelated chains, so a large scratch variant's shards run
    concurrently with other variants' reuse chains: the two axes
    interleave on one pool.

Dependency-edge discipline: ``deps`` are **hard** (a task must not
start before every hard dep is resolved); ``soft_deps`` are advisory
only.  :class:`TaskGraph` stores tasks in dispatch (plan) order and
validates that every hard edge points at an earlier task, so the task
tuple is topologically sorted by construction.

This module is pure planning — it imports only ``repro.core`` and
never executes anything; the runtime that walks the DAG lives in
:mod:`repro.exec.graph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.scheduling import PlannedVariant, dependency_tree
from repro.core.variants import Variant, VariantSet

__all__ = [
    "DEFAULT_SHARD_THRESHOLD",
    "LOWERING_MODES",
    "MergeTask",
    "ShardTask",
    "Task",
    "TaskGraph",
    "VariantTask",
    "lower_variants",
    "merge_task_id",
    "shard_task_id",
    "variant_task_id",
]

#: Point count at which hybrid lowering may shard a from-scratch
#: variant when no explicit threshold is given (and then only while
#: scratch roots are fewer than lanes).  Below this, the fan-out/merge
#: overhead outweighs the region parallelism (the shard ablation's
#: crossover regime).
DEFAULT_SHARD_THRESHOLD = 50_000

#: Recognized lowering modes (see module docstring).
LOWERING_MODES = ("variant", "hybrid")


def variant_task_id(variant: Variant) -> str:
    """Stable task id of the whole-variant task for ``variant``."""
    return f"variant:{variant.eps:g}/{variant.minpts}"


def shard_task_id(variant: Variant, region: int) -> str:
    """Stable task id of ``variant``'s shard task for ``region``."""
    return f"shard:{variant.eps:g}/{variant.minpts}#{region}"


def merge_task_id(variant: Variant) -> str:
    """Stable task id of ``variant``'s merge (fan-in) task."""
    return f"merge:{variant.eps:g}/{variant.minpts}"


@dataclass(frozen=True)
class VariantTask:
    """Cluster one planned variant whole (scratch or reuse).

    ``deps`` are hard edges (block dispatch — in hybrid lowering, the
    merge task of a sharded donor); ``soft_deps`` are the advisory
    donor edges from the Figure 3(a) forest.
    """

    planned: PlannedVariant
    deps: tuple[str, ...] = ()
    soft_deps: tuple[str, ...] = ()

    kind = "variant"

    @property
    def variant(self) -> Variant:
        return self.planned.variant

    @property
    def task_id(self) -> str:
        return variant_task_id(self.planned.variant)


@dataclass(frozen=True)
class ShardTask:
    """Cluster one spatial region's slab of one variant.

    A shard task has no dependencies: only from-scratch variants fan
    out, so each starts as soon as a lane frees up.
    """

    variant: Variant
    region: int
    n_regions: int

    kind = "shard"
    deps: tuple[str, ...] = field(default=(), init=False)
    soft_deps: tuple[str, ...] = field(default=(), init=False)

    @property
    def task_id(self) -> str:
        return shard_task_id(self.variant, self.region)


@dataclass(frozen=True)
class MergeTask:
    """Fan-in: stitch a variant's shard pieces into canonical labels.

    ``deps`` always names every shard task of the variant.
    """

    variant: Variant
    n_regions: int
    deps: tuple[str, ...] = ()

    kind = "merge"
    soft_deps: tuple[str, ...] = field(default=(), init=False)

    @property
    def task_id(self) -> str:
        return merge_task_id(self.variant)


Task = VariantTask | ShardTask | MergeTask


@dataclass(frozen=True)
class TaskGraph:
    """A validated task DAG in dispatch order.

    ``tasks`` is topologically sorted: construction rejects duplicate
    ids and any hard dep that does not reference an *earlier* task, so
    a runtime may dispatch in tuple order and never deadlock.
    """

    tasks: tuple[Task, ...]
    mode: str = "variant"

    def __post_init__(self) -> None:
        if self.mode not in LOWERING_MODES:
            raise ValueError(
                f"unknown lowering mode {self.mode!r}; "
                f"expected one of {list(LOWERING_MODES)}"
            )
        seen: set[str] = set()
        for task in self.tasks:
            tid = task.task_id
            if tid in seen:
                raise ValueError(f"duplicate task id {tid!r}")
            for dep in task.deps:
                if dep not in seen:
                    raise ValueError(
                        f"task {tid!r} hard-depends on {dep!r}, which is "
                        "not an earlier task (graph must be topological)"
                    )
            seen.add(tid)

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def by_id(self) -> dict[str, Task]:
        return {t.task_id: t for t in self.tasks}

    def variant_tasks(self) -> list[VariantTask]:
        return [t for t in self.tasks if isinstance(t, VariantTask)]

    def shard_tasks(self) -> list[ShardTask]:
        return [t for t in self.tasks if isinstance(t, ShardTask)]

    def merge_tasks(self) -> list[MergeTask]:
        return [t for t in self.tasks if isinstance(t, MergeTask)]

    def sharded_variants(self) -> list[Variant]:
        """Variants lowered to shard/merge fan-out, in dispatch order."""
        return [t.variant for t in self.merge_tasks()]

    def terminal_id(self, variant: Variant) -> str:
        """The id of the task whose completion completes ``variant``."""
        mid = merge_task_id(variant)
        vid = variant_task_id(variant)
        ids = {t.task_id for t in self.tasks}
        if mid in ids:
            return mid
        if vid in ids:
            return vid
        raise KeyError(f"variant {variant} is not in this graph")


def _donor_edges(
    plan: list[PlannedVariant], vset: VariantSet
) -> dict[Variant, Variant]:
    """Static donor of each non-scratch planned variant, if planned earlier.

    The Figure 3(a) forest names each variant's best source under
    global knowledge; an edge is only emitted when the donor itself is
    in the plan *before* the dependent (edges must stay topological in
    dispatch order) and the dependent is not forced scratch.
    """
    tree = dependency_tree(vset)
    position = {p.variant: i for i, p in enumerate(plan)}
    edges: dict[Variant, Variant] = {}
    for p in plan:
        if p.force_scratch or p.variant not in tree:
            continue
        parent = next(iter(tree.predecessors(p.variant)), None)
        if parent is None:
            continue
        if parent in position and position[parent] < position[p.variant]:
            edges[p.variant] = parent
    return edges


def _scratch_planned(
    plan: list[PlannedVariant], vset: VariantSet
) -> set[Variant]:
    """Planned variants that will cluster from scratch under the forest."""
    tree = dependency_tree(vset)
    scratch: set[Variant] = set()
    for p in plan:
        if p.force_scratch:
            scratch.add(p.variant)
        elif p.variant in tree and bool(tree.nodes[p.variant].get("root")):
            scratch.add(p.variant)
        elif p.variant not in tree:
            scratch.add(p.variant)
    return scratch


def _fan_out(variant: Variant, n_regions: int) -> list[Task]:
    """Shard tasks plus the merge fan-in for one variant."""
    shards: list[Task] = [
        ShardTask(variant, region, n_regions) for region in range(n_regions)
    ]
    shard_ids = tuple(t.task_id for t in shards)
    shards.append(MergeTask(variant, n_regions, deps=shard_ids))
    return shards


def lower_variants(
    plan: list[PlannedVariant],
    vset: VariantSet,
    *,
    mode: str = "variant",
    n_regions: int = 1,
    n_points: int = 0,
    shard_threshold: int | None = None,
    n_lanes: int | None = None,
) -> TaskGraph:
    """Lower a scheduler's planned queue into a :class:`TaskGraph`.

    ``plan`` is the (possibly resume-filtered) queue from
    ``scheduler.plan``; ``n_regions`` the resolved region count for
    shard fan-outs; ``n_points`` the database size the hybrid
    threshold gates on.  In hybrid mode, ``shard_threshold=None`` is
    variant-first: scratch roots of :data:`DEFAULT_SHARD_THRESHOLD` or
    more points fan out only when they are fewer than ``n_lanes``, the
    lane count the graph will run on (default ``n_regions``).  An
    explicit ``shard_threshold`` fans out every scratch root at that
    size.  Variant mode ignores all four.
    """
    if mode not in LOWERING_MODES:
        raise ValueError(
            f"unknown lowering mode {mode!r}; "
            f"expected one of {list(LOWERING_MODES)}"
        )
    tasks: list[Task] = []
    if mode == "variant":
        donors = _donor_edges(plan, vset)
        for p in plan:
            parent = donors.get(p.variant)
            soft = (variant_task_id(parent),) if parent is not None else ()
            tasks.append(VariantTask(p, soft_deps=soft))
        return TaskGraph(tuple(tasks), mode=mode)
    # hybrid
    scratch: set[Variant] = set()
    if n_regions > 1:
        roots = _scratch_planned(plan, vset)
        if shard_threshold is None:
            lanes = n_regions if n_lanes is None else n_lanes
            if n_points >= DEFAULT_SHARD_THRESHOLD and len(roots) < lanes:
                scratch = roots
        elif n_points >= shard_threshold:
            scratch = roots
    donors = _donor_edges(plan, vset)
    for p in plan:
        if p.variant in scratch:
            tasks.extend(_fan_out(p.variant, n_regions))
            continue
        parent = donors.get(p.variant)
        hard: tuple[str, ...] = ()
        soft: tuple[str, ...] = ()
        if parent is not None:
            if parent in scratch:
                hard = (merge_task_id(parent),)
            else:
                soft = (variant_task_id(parent),)
        tasks.append(VariantTask(p, deps=hard, soft_deps=soft))
    return TaskGraph(tuple(tasks), mode="hybrid")
