"""Tests for the executor names.

Every executor must produce the same *clusterings* (up to the
documented near-equivalence of reuse) for the same variant set; they
differ only in timing model and parallel substrate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dbscan import dbscan
from repro.core.reuse import CLUS_DENSITY, CLUS_SIZE
from repro.core.scheduling import SchedGreedy, SchedMinpts
from repro.core.variants import Variant, VariantSet
from repro.engine import Session
from repro.exec import EXECUTORS
from repro.exec.graph import partition_reuse_chains
from repro.metrics.quality import quality_score
from repro.util.rng import resolve_rng
from tests.helpers import run_batch

VSET = VariantSet.from_product([0.5, 0.7], [4, 8, 12])


@pytest.fixture(scope="module")
def blobs():
    g = resolve_rng(3)
    a = g.normal(0.0, 0.4, (120, 2))
    b = g.normal(0.0, 0.4, (120, 2)) + [7.0, 7.0]
    c = g.uniform(-3, 10, (30, 2))
    return np.vstack([a, b, c])


@pytest.fixture(scope="module")
def reference_results(blobs):
    return {v: dbscan(blobs, v.eps, v.minpts) for v in VSET}


class TestSerialExecutor:
    def test_all_variants_completed(self, blobs):
        batch = run_batch(blobs, VSET)
        assert set(batch.results) == set(VSET)
        assert batch.record.n_variants == len(VSET)

    def test_results_match_scratch(self, blobs, reference_results):
        batch = run_batch(blobs, VSET)
        for v in VSET:
            assert quality_score(reference_results[v], batch.results[v]) >= 0.99

    def test_only_first_variant_from_scratch(self, blobs):
        batch = run_batch(blobs, VSET, kernel="bfs")
        # Figure 3-style chain: everything after the root can reuse.
        assert batch.record.n_from_scratch == 1

    def test_makespan_is_sum_of_durations(self, blobs):
        batch = run_batch(blobs, VSET)
        assert batch.record.makespan == pytest.approx(
            batch.record.total_response_time
        )

    def test_forces_single_thread(self, blobs):
        assert run_batch(blobs, VSET, n_threads=8).record.n_threads == 1

    def test_deterministic(self, blobs):
        a = run_batch(blobs, VSET)
        b = run_batch(blobs, VSET)
        assert a.record.makespan == b.record.makespan
        for v in VSET:
            assert np.array_equal(a.results[v].labels, b.results[v].labels)


class TestSimulatedExecutor:
    def test_scratch_count_equals_threads(self, blobs):
        batch = run_batch(blobs, VSET, "simulated", n_threads=3, kernel="bfs")
        assert batch.record.n_from_scratch == 3

    def test_scratch_bounded_by_reuse_cap(self, blobs):
        """At most (|V| - T)/|V| variants reuse (Section IV-D)."""
        for t in (1, 2, 4):
            batch = run_batch(blobs, VSET, "simulated", n_threads=t)
            reused = sum(1 for r in batch.record.records if not r.from_scratch)
            assert reused / len(VSET) <= VSET.max_reuse_fraction(t) + 1e-9

    def test_makespan_bounds(self, blobs):
        batch = run_batch(blobs, VSET, "simulated", n_threads=2)
        rec = batch.record
        assert rec.makespan >= max(r.response_time for r in rec.records)
        assert rec.makespan <= rec.total_response_time

    def test_makespan_at_least_lower_bound(self, blobs):
        rec = run_batch(blobs, VSET, "simulated", n_threads=4).record
        assert rec.makespan >= rec.lower_bound_makespan - 1e-9

    def test_timeline_no_overlap_within_thread(self, blobs):
        rec = run_batch(blobs, VSET, "simulated", n_threads=2).record
        for lane in rec.thread_timelines().values():
            for prev, cur in zip(lane, lane[1:]):
                assert cur.start >= prev.finish - 1e-9

    def test_deterministic_bit_for_bit(self, blobs):
        a = run_batch(blobs, VSET, "simulated", n_threads=4).record
        b = run_batch(blobs, VSET, "simulated", n_threads=4).record
        assert [r.finish for r in a.records] == [r.finish for r in b.records]

    def test_results_match_scratch(self, blobs, reference_results):
        batch = run_batch(blobs, VSET, "simulated", n_threads=4)
        for v in VSET:
            assert quality_score(reference_results[v], batch.results[v]) >= 0.99

    def test_more_threads_never_worse_makespan(self, blobs):
        m1 = run_batch(blobs, VSET, "simulated", n_threads=1).record.makespan
        m2 = run_batch(blobs, VSET, "simulated", n_threads=6).record.makespan
        # contention can eat gains but idle threads can't hurt more
        # than the full serial schedule
        assert m2 <= m1 * 1.01

    def test_schedminpts_head_runs_scratch(self, blobs):
        batch = run_batch(
            blobs, VSET, "simulated", n_threads=1, kernel="bfs", scheduler=SchedMinpts()
        )
        heads = {(0.5, 12), (0.7, 12)}
        for r in batch.record.records:
            if r.variant.as_tuple() in heads:
                assert r.from_scratch


class TestProcessPool:
    def test_partition_covers_all_variants(self):
        groups = partition_reuse_chains(VSET, 3)
        flat = [v for g in groups for v in g]
        assert sorted(v.as_tuple() for v in flat) == sorted(v.as_tuple() for v in VSET)
        assert len(groups) <= 3

    def test_partition_prefix_closed_under_parents(self):
        """Within a group, each variant's best source (if in the group)
        appears before it."""
        groups = partition_reuse_chains(VSET, 2)
        for g in groups:
            seen = set()
            for v in g:
                sources = [u for u in g if v.can_reuse(u)]
                if sources:
                    assert any(u in seen for u in sources) or v == g[0] or not (
                        set(sources) & seen == set()
                    )
                seen.add(v)

    def test_single_worker_is_one_group(self):
        assert len(partition_reuse_chains(VSET, 1)) == 1

    def test_completes_and_matches(self, blobs, reference_results):
        batch = run_batch(blobs, VSET, "processes", n_threads=2)
        assert set(batch.results) == set(VSET)
        for v in VSET:
            assert quality_score(reference_results[v], batch.results[v]) >= 0.99


class _SchedNoReuse(SchedGreedy):
    """SCHEDGREEDY's order, but every variant clusters from scratch."""

    name = "SCHEDNOREUSE"

    def select_source(self, planned, vset, registry, before=None):
        return None


#: CLUSDENSITY tuned so that no cluster is big enough to seed from.
NO_SEED_POLICY = type(CLUS_DENSITY)(min_cluster_size=10**6)

#: Executors whose variants run in lane worker processes, plus the
#: in-process reference.
LANE_CASES = {"serial": {}, "processes": {}, "hybrid": {"regions": 2}}


@pytest.mark.parametrize("executor", sorted(LANE_CASES))
class TestLanesRunTheCallersReuseSpec:
    """Lane workers use the run's own scheduler and reuse-policy objects."""

    def _run(self, blobs, executor, **knobs):
        return run_batch(
            blobs, VSET, executor, n_threads=2, kernel="bfs", **LANE_CASES[executor], **knobs
        ).record

    def test_custom_scheduler(self, blobs, executor):
        assert self._run(blobs, executor).n_from_scratch < len(VSET)
        rec = self._run(blobs, executor, scheduler=_SchedNoReuse())
        assert rec.scheduler == "SCHEDNOREUSE"
        assert [r.reused_from for r in rec.records] == [None] * len(VSET)

    def test_tuned_policy_instance(self, blobs, executor):
        assert sum(r.points_reused for r in self._run(blobs, executor).records) > 0
        rec = self._run(blobs, executor, policy=NO_SEED_POLICY)
        assert rec.reuse_policy == "CLUSDENSITY"
        assert sum(r.points_reused for r in rec.records) == 0


class TestRegistry:
    def test_executor_registry(self):
        assert set(EXECUTORS) == {
            "serial", "simulated", "processes", "sharded", "hybrid"
        }

    def test_record_carries_config(self, blobs):
        cells = [
            ({}, "SCHEDGREEDY", "CLUSDENSITY"),
            ({"scheduler": SchedGreedy(), "policy": CLUS_DENSITY}, "SCHEDGREEDY", "CLUSDENSITY"),
            ({"scheduler": SchedMinpts(), "policy": CLUS_SIZE}, "SCHEDMINPTS", "CLUSSIZE"),
        ]
        for knobs, scheduler, policy in cells:
            kernel = "bfs" if knobs else "cellgraph"
            batch = run_batch(
                blobs, VSET, "simulated", n_threads=2, dataset="blobs", kernel=kernel, **knobs
            )
            rec = batch.record
            assert rec.scheduler == scheduler
            assert rec.reuse_policy == policy
            assert rec.dataset == "blobs"
            assert rec.executor == "simulated"
            assert rec.n_threads == 2

    def test_shared_indexes_accepted(self, blobs):
        with Session(blobs) as session:
            a = session.run(VSET)
            first = session.indexes()
            b = session.run(VSET)
            assert session.indexes().t_high is first.t_high
            assert session.indexes().t_low is first.t_low
        assert a.record.makespan == b.record.makespan
