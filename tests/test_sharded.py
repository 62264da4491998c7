"""Shard-equivalence suite: region-parallel DBSCAN must equal serial.

The sharded path (:mod:`repro.core.shard` + the ``sharded`` executor)
re-derives every variant's clustering from spatially partitioned slabs
with eps-width halos and a cross-border union-find merge.  Its one
contract is *exactness*: labels and core masks are **byte-identical**
to the serial kernels, for every index kind, kernel, scheduler, reuse
policy, and region count — including the degenerate geometries where
sharding earns nothing (one region, more regions than points, halos
swallowing the whole database, empty stripes from duplicate
coordinates).

Covers, in order:

* partition planning (:func:`resolve_n_regions`, :func:`plan_shards`)
  and halo geometry (:func:`shard_members`) — ownership is an exact
  partition, boundary points appear in *both* adjacent slabs;
* randomized shard-equivalence properties (Hypothesis) across
  kernel x region-count grids, plus metamorphic translation /
  permutation invariance;
* the executor-level matrix: ``sharded`` vs ``serial`` across every
  scheduler x reuse-policy combination and the index-kind oracle grid;
* differential quality vs scikit-learn when installed (>= 0.998);
* resilience: a killed shard worker recovers region-by-region to the
  exact fault-free labels, with zero leaked shared-memory segments.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dbscan import dbscan
from repro.core.result import ClusteringResult, relabel_dense
from repro.core.reuse import POLICIES
from repro.core.scheduling import SCHEDULERS
from repro.core.shard import (
    cluster_shard,
    merge_shards,
    plan_shards,
    resolve_n_regions,
    shard_members,
    sharded_dbscan,
)
from repro.core.taskgraph import merge_task_id
from repro.core.variants import Variant, VariantSet
from repro.engine.factory import INDEX_KINDS
from repro.engine.session import Session
from repro.exec import EXECUTORS
from repro.index.brute import BruteForceIndex
from repro.index.cellgraph import CellGraphIndex
from repro.index.grid import UniformGridIndex
from repro.index.kdtree import KDTree
from repro.index.rtree import RTree
from repro.metrics.quality import quality_score
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy, VariantStatus
from repro.util.rng import resolve_rng

QUALITY_BAR = 0.998

KERNELS = ["bfs", "cellgraph"]


def canonical(labels: np.ndarray) -> np.ndarray:
    return relabel_dense(np.asarray(labels))[0]


def _repro_segments() -> set[str]:
    return {p.rsplit("/", 1)[-1] for p in glob.glob("/dev/shm/repro_*")}


def make_cloud(seed: int, n: int = 400) -> np.ndarray:
    """A mixed-density cloud: two blobs plus uniform scatter."""
    g = resolve_rng(seed)
    return np.ascontiguousarray(
        np.vstack(
            [
                g.normal(0.0, 0.6, (n // 2, 2)),
                g.normal((5.0, 4.0), 0.8, (n // 4, 2)),
                g.uniform(-3.0, 8.0, (n - n // 2 - n // 4, 2)),
            ]
        )
    )


def assert_exact(points, eps, minpts, *, regions, kernel="bfs"):
    """Sharded output must be byte-identical to the serial kernel."""
    ref = dbscan(points, eps, minpts)
    got = sharded_dbscan(points, eps, minpts, regions=regions, kernel=kernel)
    assert np.array_equal(got.labels, ref.labels), (
        f"labels diverged (eps={eps}, minpts={minpts}, "
        f"regions={regions}, kernel={kernel})"
    )
    assert np.array_equal(got.core_mask, ref.core_mask), (
        f"core mask diverged (eps={eps}, minpts={minpts}, "
        f"regions={regions}, kernel={kernel})"
    )
    return got


# ----------------------------------------------------------------------
# partition planning
# ----------------------------------------------------------------------
class TestPlanning:
    def test_regions_wins_over_part_size(self):
        # mutual exclusion is enforced at the Session/executor layer;
        # the resolver itself lets an explicit region count win
        assert resolve_n_regions(100, 4, 25) == 4

    def test_part_size_derives_ceil(self):
        assert resolve_n_regions(100, None, 30) == 4
        assert resolve_n_regions(90, None, 30) == 3
        assert resolve_n_regions(1, None, 30) == 1

    def test_default_when_unset(self):
        assert resolve_n_regions(100, None, None) == 1
        assert resolve_n_regions(100, None, None, default=8) == 8

    def test_empty_database_plans_one_region(self):
        plan = plan_shards(np.empty((0, 2)), 0.5, 8)
        assert plan.n_regions == 1
        assert plan.cuts == ()

    def test_cuts_are_sorted_and_interior(self):
        pts = make_cloud(3)
        plan = plan_shards(pts, 0.4, 5)
        cuts = np.asarray(plan.cuts)
        assert np.all(np.diff(cuts) >= 0)
        coord = pts[:, plan.axis]
        assert cuts.min() >= coord.min() and cuts.max() <= coord.max()

    def test_axis_is_wider_spread(self):
        g = resolve_rng(5)
        wide_x = np.column_stack([g.uniform(0, 100, 200), g.uniform(0, 1, 200)])
        assert plan_shards(wide_x, 0.5, 4).axis == 0
        assert plan_shards(wide_x[:, ::-1].copy(), 0.5, 4).axis == 1

    def test_ownership_is_exact_partition(self):
        pts = make_cloud(7)
        plan = plan_shards(pts, 0.4, 6)
        seen = np.zeros(len(pts), dtype=int)
        for region in range(plan.n_regions):
            owned, slab = shard_members(pts, plan, region)
            seen[owned] += 1
            # owned always rides inside its own slab
            assert np.all(np.isin(owned, slab))
        assert np.all(seen == 1), "every point owned exactly once"


# ----------------------------------------------------------------------
# halo geometry
# ----------------------------------------------------------------------
class TestHaloGeometry:
    def test_boundary_points_in_both_slabs(self):
        """Any point within eps of a cut is in both adjacent halos."""
        pts = make_cloud(11)
        eps = 0.5
        plan = plan_shards(pts, eps, 4)
        coord = pts[:, plan.axis]
        slabs = [set(shard_members(pts, plan, r)[1].tolist())
                 for r in range(plan.n_regions)]
        for cut_pos, cut in enumerate(plan.cuts):
            left, right = cut_pos, cut_pos + 1
            near = np.flatnonzero(np.abs(coord - cut) <= eps)
            assert near.size, "expected boundary points near every cut"
            for i in near:
                # the defining property: both sides see it
                assert int(i) in slabs[left] and int(i) in slabs[right]

    def test_halo_width_scales_with_eps(self):
        pts = make_cloud(13)
        plan = plan_shards(pts, 0.2, 3)
        slim = sum(len(shard_members(pts, plan, r)[1])
                   for r in range(plan.n_regions))
        wide_plan = plan.with_eps(1.5)
        wide = sum(len(shard_members(pts, wide_plan, r)[1])
                   for r in range(wide_plan.n_regions))
        assert wide > slim

    def test_translation_invariance(self):
        """Shifting the whole database must not change the clustering."""
        pts = make_cloud(17, n=300)
        base = sharded_dbscan(pts, 0.5, 4, regions=3)
        shifted = sharded_dbscan(pts + [113.0, -77.0], 0.5, 4, regions=3)
        assert np.array_equal(base.labels, shifted.labels)
        assert np.array_equal(base.core_mask, shifted.core_mask)

    def test_permutation_invariance(self):
        """Row order must not change the partition (canonically)."""
        pts = make_cloud(19, n=300)
        perm = resolve_rng(23).permutation(len(pts))
        base = sharded_dbscan(pts, 0.5, 4, regions=3)
        shuffled = sharded_dbscan(pts[perm], 0.5, 4, regions=3)
        assert np.array_equal(
            canonical(base.labels[perm]), canonical(shuffled.labels)
        )
        assert np.array_equal(base.core_mask[perm], shuffled.core_mask)


# ----------------------------------------------------------------------
# randomized shard equivalence (the property suite)
# ----------------------------------------------------------------------
seeds = st.integers(0, 2**20)
eps_vals = st.sampled_from([0.3, 0.5, 0.8, 1.2])
minpts_vals = st.sampled_from([1, 3, 4, 8])
region_counts = st.sampled_from([1, 2, 3, 5, 8])


class TestShardEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seeds, eps_vals, minpts_vals, region_counts,
           st.sampled_from(KERNELS))
    def test_random_grids_byte_equal(self, seed, eps, minpts, regions, kernel):
        pts = make_cloud(seed, n=220)
        assert_exact(pts, eps, minpts, regions=regions, kernel=kernel)

    @settings(max_examples=10, deadline=None)
    @given(seeds, st.sampled_from(KERNELS))
    def test_more_regions_than_points(self, seed, kernel):
        pts = make_cloud(seed, n=12)
        assert_exact(pts, 0.6, 3, regions=40, kernel=kernel)

    @settings(max_examples=10, deadline=None)
    @given(seeds, st.sampled_from(KERNELS))
    def test_all_points_inside_one_halo(self, seed, kernel):
        """eps wider than the extent: every slab is the whole database."""
        pts = make_cloud(seed, n=80)
        extent = float(np.ptp(pts, axis=0).max())
        assert_exact(pts, extent + 1.0, 4, regions=4, kernel=kernel)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_single_region_is_serial(self, kernel):
        pts = make_cloud(29)
        assert_exact(pts, 0.5, 4, regions=1, kernel=kernel)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_duplicate_points_make_empty_stripes(self, kernel):
        """50 identical points: all cuts coincide, most stripes empty."""
        pts = np.full((50, 2), 3.25)
        assert_exact(pts, 0.5, 4, regions=8, kernel=kernel)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_collinear_points(self, kernel):
        ys = resolve_rng(31).uniform(0.0, 40.0, 200)
        pts = np.column_stack([np.zeros(200), ys])
        assert_exact(pts, 0.8, 3, regions=5, kernel=kernel)

    def test_empty_database(self):
        res = sharded_dbscan(np.empty((0, 2)), 0.5, 4, regions=4)
        assert res.n_points == 0 and res.n_clusters == 0

    def test_single_point(self):
        res = sharded_dbscan(np.asarray([[1.0, 2.0]]), 0.5, 1, regions=4)
        assert res.n_clusters == 1

    def test_part_size_routing(self):
        pts = make_cloud(37, n=200)
        ref = dbscan(pts, 0.5, 4)
        got = sharded_dbscan(pts, 0.5, 4, part_size=30)
        assert np.array_equal(got.labels, ref.labels)

    def test_merge_rejects_incomplete_cover(self):
        pts = make_cloud(41, n=100)
        plan = plan_shards(pts, 0.5, 3)
        pieces = [cluster_shard(pts, plan, r, 4) for r in range(2)]
        with pytest.raises(ValueError):
            merge_shards(pts, plan, pieces)


# ----------------------------------------------------------------------
# index-kind oracle grid
# ----------------------------------------------------------------------
def _build_index(points, kind, eps):
    if kind == "rtree":
        return RTree(points, r=1)
    if kind == "grid":
        return UniformGridIndex(points, cell_width=eps)
    if kind == "cellgraph":
        return CellGraphIndex(points, eps)
    if kind == "kdtree":
        return KDTree(points)
    return BruteForceIndex(points)


class TestIndexKindOracle:
    @pytest.mark.parametrize("kind", sorted(INDEX_KINDS))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_exact_vs_every_index_kind(self, kind, kernel):
        """Sharded output equals serial DBSCAN under every index kind."""
        pts = make_cloud(43, n=250)
        eps, minpts = 0.5, 4
        ref = dbscan(pts, eps, minpts, index=_build_index(pts, kind, eps))
        got = sharded_dbscan(pts, eps, minpts, regions=3, kernel=kernel)
        assert np.array_equal(got.labels, ref.labels)
        assert np.array_equal(got.core_mask, ref.core_mask)


# ----------------------------------------------------------------------
# executor-level matrix
# ----------------------------------------------------------------------
EXEC_VSET = VariantSet.from_product([0.45, 0.7], [4, 8])


@pytest.fixture(scope="module")
def exec_cloud():
    return make_cloud(47, n=500)


@pytest.fixture(scope="module")
def exec_oracle(exec_cloud):
    return {v: dbscan(exec_cloud, v.eps, v.minpts) for v in EXEC_VSET}


class TestShardedExecutor:
    def test_registered(self):
        assert EXECUTORS["sharded"] == ("lanes", "shard")

    def test_regions_and_part_size_mutually_exclusive(self):
        with pytest.raises(ValueError):
            Session(np.zeros((4, 2)), regions=2, part_size=100)
        with Session(np.zeros((4, 2))) as s, pytest.raises(ValueError):
            s.run(EXEC_VSET, executor="sharded", regions=2, part_size=100)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_byte_equal_vs_serial_kernel(self, exec_cloud, exec_oracle, kernel):
        with Session(exec_cloud) as s:
            batch = s.run(
                EXEC_VSET, executor="sharded", n_threads=2,
                regions=3, kernel=kernel,
            )
        for v in EXEC_VSET:
            assert np.array_equal(batch[v].labels, exec_oracle[v].labels)
            assert np.array_equal(batch[v].core_mask, exec_oracle[v].core_mask)

    @pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_scheduler_policy_matrix(
        self, exec_cloud, exec_oracle, scheduler_name, policy_name
    ):
        """Ordering knobs must never change sharded output."""
        with Session(
            exec_cloud,
            kernel="bfs",
            scheduler=SCHEDULERS[scheduler_name],
            policy=POLICIES[policy_name],
        ) as s:
            batch = s.run(EXEC_VSET, executor="sharded", n_threads=2, regions=2)
        for v in EXEC_VSET:
            assert np.array_equal(batch[v].labels, exec_oracle[v].labels)

    def test_session_default_knobs_thread_through(self, exec_cloud, exec_oracle):
        v = Variant(0.45, 4)
        with Session(exec_cloud, part_size=120) as s:
            batch = s.run(VariantSet([v]), executor="sharded", n_threads=2)
        assert np.array_equal(batch[v].labels, exec_oracle[v].labels)

    def test_records_account_every_variant(self, exec_cloud):
        with Session(exec_cloud) as s:
            batch = s.run(EXEC_VSET, executor="sharded", n_threads=2, regions=2)
        ran = sorted(r.variant.as_tuple() for r in batch.record.records)
        assert ran == sorted(v.as_tuple() for v in EXEC_VSET)
        for r in batch.record.records:
            assert r.reused_from is None  # sharding forfeits reuse
            assert r.finish >= r.start >= 0.0
        assert batch.record.makespan == pytest.approx(
            max(r.finish for r in batch.record.records)
        )


# ----------------------------------------------------------------------
# differential quality (sklearn-gated)
# ----------------------------------------------------------------------
class TestShardedDifferential:
    def test_quality_vs_sklearn(self, exec_cloud):
        cluster_mod = pytest.importorskip(
            "sklearn.cluster",
            reason="scikit-learn not installed in this environment",
        )
        for v in EXEC_VSET:
            sk = cluster_mod.DBSCAN(eps=v.eps, min_samples=v.minpts).fit(
                exec_cloud
            )
            labels = np.asarray(sk.labels_, dtype=np.int64)
            core = np.zeros(labels.shape[0], dtype=bool)
            core[sk.core_sample_indices_] = True
            sk_result = ClusteringResult(labels, core, variant=v)
            ours = sharded_dbscan(exec_cloud, v.eps, v.minpts, regions=4)
            q = quality_score(sk_result, ours)
            assert q >= QUALITY_BAR, (
                f"variant {v}: sharded vs sklearn quality {q:.5f}"
            )
            assert np.array_equal(core, ours.core_mask)


# ----------------------------------------------------------------------
# resilience: a dead shard is a re-plannable unit
# ----------------------------------------------------------------------
class TestShardedResilience:
    @pytest.fixture(scope="class")
    def cloud(self):
        return make_cloud(53, n=600)

    @pytest.fixture(scope="class")
    def oracle(self, cloud):
        return {v: dbscan(cloud, v.eps, v.minpts) for v in EXEC_VSET}

    def test_killed_shard_recovers_exactly(self, cloud, oracle):
        before = _repro_segments()
        plan = FaultPlan([FaultSpec("kill", 0)])
        with Session(cloud) as s:
            batch = s.run(
                EXEC_VSET, executor="sharded", n_threads=2, regions=3,
                retry_policy=RetryPolicy(max_retries=2), fault_plan=plan,
            )
        for v in EXEC_VSET:
            assert np.array_equal(batch[v].labels, oracle[v].labels)
        target = list(EXEC_VSET)[0]
        out = batch.report.outcomes[target]
        assert out.status is VariantStatus.RETRIED
        assert out.attempts >= 2
        assert batch.report.complete
        # no leaked shared-memory segments (the `repro doctor` contract)
        assert _repro_segments() <= before

    @pytest.mark.parametrize("keyed", ["variant", "merge"])
    @pytest.mark.parametrize("executor", ["sharded", "simulated"])
    def test_corrupt_merge_retries_whole_variant(
        self, cloud, oracle, executor, keyed
    ):
        target = list(EXEC_VSET)[1]
        spec = (
            FaultSpec("corrupt", 1, phase="finish")
            if keyed == "variant"
            else FaultSpec(
                "corrupt", -1, task=merge_task_id(target), phase="finish"
            )
        )
        with Session(cloud) as s:
            batch = s.run(
                EXEC_VSET, executor=executor, n_threads=2, regions=2,
                retry_policy=RetryPolicy(max_retries=2),
                fault_plan=FaultPlan([spec]),
            )
        for v in EXEC_VSET:
            assert np.array_equal(batch[v].labels, oracle[v].labels)
        assert batch.report.outcomes[target].status is VariantStatus.RETRIED

    @pytest.mark.parametrize("executor", ["sharded", "simulated"])
    def test_budget_exhaustion_fails_only_that_variant(
        self, cloud, oracle, executor
    ):
        plan = FaultPlan([
            FaultSpec("crash", 0, attempt=a) for a in range(4)
        ])
        with Session(cloud) as s:
            batch = s.run(
                EXEC_VSET, executor=executor, n_threads=2, regions=2,
                retry_policy=RetryPolicy(max_retries=1), fault_plan=plan,
            )
        target = list(EXEC_VSET)[0]
        assert target not in batch.results
        assert batch.report.outcomes[target].status is VariantStatus.FAILED
        for v in EXEC_VSET:
            if v is target:
                continue
            assert np.array_equal(batch[v].labels, oracle[v].labels)

    def test_doctor_reports_no_orphans_after_kills(self, cloud):
        from repro.resilience.audit import scan_segments

        plan = FaultPlan([FaultSpec("kill", 0)])
        v = Variant(0.45, 4)
        with Session(cloud) as s:
            s.run(
                VariantSet([v]), executor="sharded", n_threads=2, regions=2,
                retry_policy=RetryPolicy(max_retries=2), fault_plan=plan,
            )
        assert sum(1 for seg in scan_segments() if seg.orphaned) == 0
