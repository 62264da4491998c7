"""Task-graph planning: lowering modes, edge discipline, validation.

``lower_variants`` is pure planning (no execution), so these tests pin
the DAG shapes every backend's lowering policy relies on: soft donor
edges in variant mode, and the threshold-gated mixed fan-out of hybrid
mode, whose shard tasks depend on nothing and whose merges cover them.
"""

from __future__ import annotations

import pytest

from repro.core.scheduling import PlannedVariant, SchedGreedy, SchedMinpts
from repro.core.taskgraph import (
    DEFAULT_SHARD_THRESHOLD,
    MergeTask,
    ShardTask,
    TaskGraph,
    VariantTask,
    lower_variants,
    merge_task_id,
    shard_task_id,
    variant_task_id,
)
from repro.core.variants import Variant, VariantSet

VSET = VariantSet.from_product([0.4, 0.5, 0.6], [4, 6])
PLAN = SchedGreedy().plan(VSET)


def task_ids(graph: TaskGraph) -> list[str]:
    return [t.task_id for t in graph.tasks]


class TestTaskIds:
    def test_id_formats(self):
        v = Variant(0.5, 4)
        assert variant_task_id(v) == "variant:0.5/4"
        assert shard_task_id(v, 2) == "shard:0.5/4#2"
        assert merge_task_id(v) == "merge:0.5/4"

    def test_ids_are_unique_across_grid(self):
        graph = lower_variants(
            PLAN, VSET, mode="hybrid", n_regions=3, shard_threshold=0
        )
        assert graph.merge_tasks()
        ids = task_ids(graph)
        assert len(ids) == len(set(ids))


class TestVariantLowering:
    def test_one_task_per_planned_variant(self):
        graph = lower_variants(PLAN, VSET)
        assert len(graph) == len(PLAN)
        assert [t.variant for t in graph.variant_tasks()] == [
            p.variant for p in PLAN
        ]
        assert graph.shard_tasks() == [] and graph.merge_tasks() == []

    def test_donor_edges_are_soft(self):
        graph = lower_variants(PLAN, VSET)
        soft = [t for t in graph.tasks if t.soft_deps]
        assert soft, "a 3x2 grid must have at least one reuse edge"
        for t in graph.tasks:
            assert t.deps == ()  # nothing blocks dispatch in variant mode
        # every soft edge points at an earlier variant task
        seen: set[str] = set()
        for t in graph.tasks:
            for dep in t.soft_deps:
                assert dep in seen
            seen.add(t.task_id)

    def test_force_scratch_heads_have_no_donor_edge(self):
        plan = SchedMinpts().plan(VSET)
        graph = lower_variants(plan, VSET)
        for t in graph.variant_tasks():
            if t.planned.force_scratch:
                assert t.soft_deps == () and t.deps == ()

    def test_terminal_id_is_the_variant_task(self):
        graph = lower_variants(PLAN, VSET)
        v = PLAN[0].variant
        assert graph.terminal_id(v) == variant_task_id(v)
        with pytest.raises(KeyError):
            graph.terminal_id(Variant(9.9, 99))


class TestShardLowering:
    """The shard fan-out of hybrid lowering, on a grid of scratch roots."""

    #: No variant can reuse another: every planned variant is a root.
    ROOTS = VariantSet([Variant(0.3, 8), Variant(0.4, 16), Variant(0.5, 24)])

    def lower(self, n_regions: int) -> TaskGraph:
        plan = SchedGreedy().plan(self.ROOTS)
        return lower_variants(
            plan, self.ROOTS, mode="hybrid", n_regions=n_regions,
            shard_threshold=0,
        )

    def test_fan_out_and_merge_per_variant(self):
        graph = self.lower(3)
        assert len(graph.shard_tasks()) == 3 * len(self.ROOTS)
        assert len(graph.merge_tasks()) == len(self.ROOTS)
        for mt in graph.merge_tasks():
            assert mt.deps == tuple(
                shard_task_id(mt.variant, r) for r in range(3)
            )
        assert set(graph.sharded_variants()) == set(self.ROOTS)

    def test_shard_tasks_depend_on_nothing(self):
        graph = self.lower(2)
        assert graph.shard_tasks()
        for st in graph.shard_tasks():
            assert st.deps == () and st.soft_deps == ()

    def test_terminal_id_is_the_merge(self):
        graph = self.lower(2)
        v = graph.sharded_variants()[0]
        assert graph.terminal_id(v) == merge_task_id(v)


class TestHybridLowering:
    def test_threshold_gates_fan_out(self):
        # below the default threshold nothing shards
        small = lower_variants(
            PLAN, VSET, mode="hybrid", n_regions=4, n_points=100
        )
        assert small.merge_tasks() == []
        assert len(small.variant_tasks()) == len(PLAN)
        # at/above it the scratch roots fan out
        big = lower_variants(
            PLAN, VSET, mode="hybrid", n_regions=4,
            n_points=DEFAULT_SHARD_THRESHOLD,
        )
        assert big.merge_tasks() != []

    def test_threshold_zero_shards_every_scratch_variant(self):
        graph = lower_variants(
            PLAN, VSET, mode="hybrid", n_regions=2, n_points=10,
            shard_threshold=0,
        )
        sharded = set(graph.sharded_variants())
        assert sharded  # the forest has at least one root
        # non-scratch variants stay whole
        assert len(graph.variant_tasks()) == len(PLAN) - len(sharded)

    def test_single_region_never_shards(self):
        graph = lower_variants(
            PLAN, VSET, mode="hybrid", n_regions=1, n_points=10 ** 9,
            shard_threshold=0,
        )
        assert graph.merge_tasks() == []

    def test_donor_on_sharded_root_is_hard(self):
        graph = lower_variants(
            PLAN, VSET, mode="hybrid", n_regions=2, n_points=10,
            shard_threshold=0,
        )
        sharded = set(graph.sharded_variants())
        merge_ids = {merge_task_id(v) for v in sharded}
        hard = [t for t in graph.variant_tasks() if t.deps]
        assert hard, "some chain must hang off a sharded root"
        for t in hard:
            assert set(t.deps) <= merge_ids
            assert t.soft_deps == ()
        # plain donor edges (if any) stay soft and never block
        for t in graph.variant_tasks():
            for dep in t.soft_deps:
                assert dep.startswith("variant:")

    def test_mixed_graph_is_topological(self):
        graph = lower_variants(
            PLAN, VSET, mode="hybrid", n_regions=3, n_points=10,
            shard_threshold=0,
        )
        seen: set[str] = set()
        for t in graph.tasks:
            for dep in t.deps:
                assert dep in seen
            seen.add(t.task_id)


class TestVariantFirstHybrid:
    """The default threshold shards only while scratch roots < lanes."""

    #: Six variants no variant can reuse: six scratch roots.
    ROOTS = VariantSet([Variant(round(0.3 + 0.1 * i, 1), 4 + 4 * i) for i in range(6)])

    def lower(self, vset, **knobs):
        plan = SchedGreedy().plan(vset)
        return lower_variants(
            plan, vset, mode="hybrid", n_regions=2, n_points=10**6, **knobs
        )

    def test_independent_roots_fill_the_lanes_whole(self):
        graph = self.lower(self.ROOTS, n_lanes=2)
        assert graph.shard_tasks() == [] and graph.merge_tasks() == []
        assert len(graph.variant_tasks()) == len(self.ROOTS)

    def test_a_single_root_still_fans_out(self):
        vset = VariantSet([Variant(0.5, 4)])
        graph = self.lower(vset, n_lanes=2)
        assert len(graph.shard_tasks()) == 2
        assert graph.sharded_variants() == [Variant(0.5, 4)]

    def test_explicit_threshold_fans_out_every_root(self):
        graph = self.lower(self.ROOTS, n_lanes=2, shard_threshold=0)
        assert len(graph.shard_tasks()) == 2 * len(self.ROOTS)
        assert set(graph.sharded_variants()) == set(self.ROOTS)


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="lowering mode"):
            lower_variants(PLAN, VSET, mode="wat")
        with pytest.raises(ValueError, match="lowering mode"):
            TaskGraph((), mode="wat")

    def test_duplicate_task_id_rejected(self):
        p = PlannedVariant(Variant(0.5, 4))
        with pytest.raises(ValueError, match="duplicate"):
            TaskGraph((VariantTask(p), VariantTask(p)))

    def test_forward_hard_dep_rejected(self):
        v, w = Variant(0.5, 4), Variant(0.6, 4)
        early = VariantTask(PlannedVariant(w), deps=(merge_task_id(v),))
        shard = ShardTask(v, 0, 1)
        merge = MergeTask(v, 1, deps=(shard.task_id,))
        with pytest.raises(ValueError, match="topological"):
            TaskGraph((early, shard, merge), mode="hybrid")

    def test_shard_mode_is_unknown(self):
        with pytest.raises(ValueError, match="lowering mode"):
            lower_variants(PLAN, VSET, mode="shard", n_regions=2)

    def test_empty_graph_is_valid(self):
        graph = lower_variants([], VSET)
        assert len(graph) == 0
        assert graph.by_id == {}
