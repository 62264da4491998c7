"""Session engine: point store, shared memory, index factory, sessions.

Covers the engine layer's contracts end to end:

* :class:`PointStore` — immutability, fingerprinting, shared-memory
  materialization and the close/unlink lifecycle (no ``/dev/shm``
  leaks, even when a process-pool worker raises mid-batch);
* :class:`IndexFactory` — memoization on (fingerprint, kind, params)
  across all four index kinds;
* :class:`Session` — the unified run entry point, executor/strategy
  resolution, and lifecycle;
* the balanced reuse-chain partitioner regression (skewed forests must
  not strand a near-idle worker).
"""

from __future__ import annotations

import dataclasses
import glob

import numpy as np
import pytest

from repro.core.dbscan import dbscan
from repro.core.scheduling import SchedMinpts
from repro.core.variants import Variant, VariantSet
from repro.engine import (
    IndexFactory,
    PointStore,
    ReuseSpec,
    RunContext,
    RunSpec,
    Session,
    fingerprint_points,
)
from repro.exec import EXECUTORS
from repro.exec.cost import CostModel
from repro.exec.graph import partition_reuse_chains


def _repro_segments() -> set[str]:
    return {p.rsplit("/", 1)[-1] for p in glob.glob("/dev/shm/repro_*")}


@pytest.fixture
def points(rng):
    return np.ascontiguousarray(
        np.vstack([rng.normal(0, 0.5, (120, 2)), rng.normal(6, 0.5, (120, 2))])
    )


VSET = VariantSet.from_product([0.4, 0.5], [4, 8])


# ----------------------------------------------------------------------
# PointStore
# ----------------------------------------------------------------------
class TestPointStore:
    def test_points_are_read_only(self, points):
        store = PointStore.from_points(points)
        with pytest.raises((ValueError, RuntimeError)):
            store.points[0, 0] = 99.0

    def test_fingerprint_matches_content(self, points):
        a = PointStore.from_points(points)
        b = PointStore.from_points(points.copy())
        assert a.fingerprint == b.fingerprint == fingerprint_points(a.points)

    def test_fingerprint_changes_with_content(self, points):
        mutated = points.copy()
        mutated[0, 0] += 1.0
        assert (
            PointStore.from_points(points).fingerprint
            != PointStore.from_points(mutated).fingerprint
        )

    def test_from_points_adopts_existing_store(self, points):
        store = PointStore.from_points(points)
        assert PointStore.from_points(store) is store

    def test_binsort_order_is_memoized(self, points):
        store = PointStore.from_points(points)
        assert store.binsort_order(1.0) is store.binsort_order(1.0)

    def test_ensure_shared_idempotent_and_closed_on_exit(self, points):
        before = _repro_segments()
        with PointStore.from_points(points) as store:
            h1 = store.ensure_shared()
            h2 = store.ensure_shared()
            assert h1 == h2
            assert store.is_shared and store.owns_segment
            assert h1.name in _repro_segments() - before
            np.testing.assert_array_equal(store.points, points)
        assert _repro_segments() == before

    def test_attach_roundtrip(self, points):
        with PointStore.from_points(points) as owner:
            handle = owner.ensure_shared()
            attached = PointStore.attach(handle)
            np.testing.assert_array_equal(attached.points, points)
            assert attached.fingerprint == owner.fingerprint
            assert not attached.owns_segment
            attached.close()  # close only; must not unlink
            assert handle.name in _repro_segments()
        assert handle.name not in _repro_segments()

    def test_close_is_idempotent(self, points):
        store = PointStore.from_points(points)
        store.ensure_shared()
        store.close()
        store.close()
        with pytest.raises(ValueError):
            store.ensure_shared()


# ----------------------------------------------------------------------
# IndexFactory
# ----------------------------------------------------------------------
class TestIndexFactory:
    @pytest.mark.parametrize(
        "kind,params",
        [
            ("rtree", {"r": 4}),
            ("rtree", {"r": 1}),
            ("cellgraph", {"eps": 0.5}),
            ("brute", {}),
        ],
    )
    def test_memoizes_each_kind(self, points, kind, params):
        factory = IndexFactory()
        store = PointStore.from_points(points)
        first = factory.get(store, kind, **params)
        assert factory.get(store, kind, **params) is first
        assert len(factory) == 1

    def test_same_content_different_store_hits(self, points):
        factory = IndexFactory()
        a = PointStore.from_points(points)
        b = PointStore.from_points(points.copy())
        assert factory.get(a, "rtree", r=4) is factory.get(b, "rtree", r=4)

    def test_mutated_points_miss(self, points):
        factory = IndexFactory()
        mutated = points.copy()
        mutated[0] += 1.0
        a = factory.get(PointStore.from_points(points), "rtree", r=4)
        b = factory.get(PointStore.from_points(mutated), "rtree", r=4)
        assert a is not b
        assert len(factory) == 2

    def test_different_params_miss(self, points):
        factory = IndexFactory()
        store = PointStore.from_points(points)
        assert factory.get(store, "rtree", r=1) is not factory.get(store, "rtree", r=4)

    def test_unknown_kind_raises(self, points):
        with pytest.raises(KeyError, match="unknown index kind"):
            IndexFactory().get(PointStore.from_points(points), "voronoi")

    def test_index_pair_reuses_cache_and_shares_order(self, points):
        factory = IndexFactory()
        store = PointStore.from_points(points)
        pair1 = factory.index_pair(store, 16)
        pair2 = factory.index_pair(store, 16)
        assert pair1.t_high is pair2.t_high and pair1.t_low is pair2.t_low
        # Both trees presort with the store's shared permutation.
        order = store.binsort_order()
        assert pair1.t_high._order is order and pair1.t_low._order is order

    def test_clear_forces_rebuild(self, points):
        factory = IndexFactory()
        store = PointStore.from_points(points)
        first = factory.get(store, "brute")
        factory.clear()
        assert factory.get(store, "brute") is not first


# ----------------------------------------------------------------------
# RunContext
# ----------------------------------------------------------------------
class TestRunContext:
    def test_frozen_and_with(self, points):
        with Session(points, executor="processes") as session:
            ctx = session.context()
            assert isinstance(ctx, RunContext)
            with pytest.raises(AttributeError):
                ctx.spec = RunSpec()
            with pytest.raises(AttributeError):
                ctx.spec.n_threads = 5
            assert session.context(n_threads=5).spec.n_threads == 5
            assert session.spec.n_threads == 1  # overrides never stick
            assert ctx.points is session.store.points


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------
#: A non-default value for every ReuseSpec field.
REUSE_KNOBS = {"scheduler": "SCHEDMINPTS", "policy": "CLUSSIZE", "low_res_r": 50}


class TestRunSpec:
    def test_reuse_knobs_cover_every_field(self):
        assert set(REUSE_KNOBS) == {f.name for f in dataclasses.fields(ReuseSpec)}

    @pytest.mark.parametrize("knob", sorted(REUSE_KNOBS))
    def test_reuse_knob_needs_bfs(self, points, knob):
        change = {knob: REUSE_KNOBS[knob]}
        with pytest.raises(ValueError, match="kernel='bfs'"):
            Session(points, **change)
        with Session(points) as session, pytest.raises(ValueError, match="kernel='bfs'"):
            session.run(VSET, **change)
        with pytest.raises(ValueError, match="kernel='bfs'"):
            RunSpec(reuse=ReuseSpec(**change))
        assert RunSpec(kernel="bfs", reuse=ReuseSpec(**change)).reuse == ReuseSpec(**change)

    def test_bfs_defaults_to_the_default_reuse_spec(self):
        assert RunSpec(kernel="bfs").reuse == ReuseSpec()
        assert RunSpec().reuse is None
        spec = RunSpec().override(kernel="bfs", scheduler="SCHEDMINPTS")
        assert spec.reuse.scheduler.name == "SCHEDMINPTS"
        assert spec.override(kernel="cellgraph").reuse is None

    def test_part_size_is_not_a_field(self, points):
        assert "part_size" not in {f.name for f in dataclasses.fields(RunSpec)}
        with pytest.raises(TypeError, match="part_size"):
            RunSpec(part_size=100)
        with pytest.raises(TypeError, match="part_size"):
            RunSpec().override(part_size=100)
        with pytest.raises(TypeError, match="part_size"):
            Session(points, part_size=100)
        with Session(points) as session, pytest.raises(TypeError, match="part_size"):
            session.run(VSET, part_size=100)


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
class TestSession:
    def test_run_matches_direct_serial(self, points):
        direct = {v: dbscan(points, v.eps, v.minpts) for v in VSET}
        with Session(points, dataset="unit") as session:
            batch = session.run(VSET)
        assert set(batch.results) == set(VSET)
        assert batch.record.dataset == "unit"
        assert batch.record.executor == "serial"
        for v in VSET:
            np.testing.assert_array_equal(batch[v].labels, direct[v].labels)

    def test_indexes_memoized_across_runs(self, points):
        with Session(points, kernel="bfs") as session:
            session.run(VSET)
            cached = len(session.factory)
            assert cached == 2  # T_high + T_low, built once
            session.run(VSET, executor="simulated", n_threads=4)
            assert len(session.factory) == cached

    def test_rtree_pair_is_built_only_for_bfs(self, points):
        def kinds(session):
            return sorted((key[1], dict(key[2]).get("r")) for key in session.factory._cache)

        with Session(points) as session:
            session.run(VSET)
            assert all(kind == "cellgraph" for kind, _ in kinds(session))
            session.run(VSET, kernel="bfs")
            rtrees = [r for kind, r in kinds(session) if kind == "rtree"]
            assert rtrees == sorted([1, session.spec.effective_reuse.low_res_r])

    def test_executor_resolution_forms(self, points):
        with Session(points) as session:
            for name in EXECUTORS:
                rec = session.run(
                    VSET, executor=name, n_threads=2, kernel="bfs",
                    scheduler=SchedMinpts(), regions=2,
                ).record
                assert rec.executor == name
                assert rec.n_threads == (1 if name == "serial" else 2)
                assert rec.scheduler == "SCHEDMINPTS"
                # The cell-graph kernel plans with the default scheduler.
                rec = session.run(VSET, executor=name, n_threads=2, regions=2).record
                assert rec.executor == name
                assert rec.scheduler == "SCHEDGREEDY"

    def test_unknown_names_raise(self, points):
        with Session(points) as session:
            with pytest.raises(KeyError, match="unknown executor"):
                session.run(VSET, executor="gpu")
            with pytest.raises(KeyError, match="unknown scheduler"):
                session.run(VSET, kernel="bfs", scheduler="SCHEDRANDOM")
            with pytest.raises(KeyError, match="unknown reuse policy"):
                session.run(VSET, kernel="bfs", policy="CLUSWRONG")
            with pytest.raises(KeyError, match="unknown executor"):
                session.run(VSET, executor=42)

    def test_sharded_executor_is_unknown(self, points):
        assert "sharded" not in EXECUTORS
        with pytest.raises(KeyError, match="unknown executor 'sharded'"):
            RunSpec(executor="sharded")
        with pytest.raises(KeyError, match="unknown executor 'sharded'"):
            Session(points, executor="sharded")
        with Session(points) as session:
            with pytest.raises(KeyError, match="unknown executor 'sharded'"):
                session.run(VSET, executor="sharded", regions=2)

    def test_session_defaults_apply(self, points):
        with Session(
            points, kernel="bfs", scheduler="SCHEDMINPTS", policy="CLUSSIZE"
        ) as s:
            rec = s.run(VSET).record
            assert s.reuse_policy.name == "CLUSSIZE"
            # A cellgraph run drops the session's reuse knobs.
            cg = s.run(VSET, kernel="cellgraph").record
        assert rec.scheduler == "SCHEDMINPTS"
        assert rec.reuse_policy == "CLUSSIZE"
        with Session(points) as s:
            rec = s.run(VSET).record
            assert s.reuse_policy.name == "CLUSDENSITY"
        for r in (rec, cg):
            assert (r.scheduler, r.reuse_policy) == ("SCHEDGREEDY", "CLUSDENSITY")

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("shard_threshold", -1),
            ("regions", 0),
            ("n_threads", 0),
        ],
    )
    def test_out_of_range_knobs_raise(self, points, knob, value):
        if knob != "n_threads":  # a per-run knob only
            with pytest.raises(ValueError, match=knob):
                Session(points, **{knob: value})
        with Session(points) as session, pytest.raises(ValueError, match=knob):
            session.run(VSET, executor="hybrid", **{knob: value})

    def test_serial_clamps_threads(self, points):
        with Session(points) as session:
            rec = session.run(VSET, executor="serial", n_threads=8).record
        assert rec.n_threads == 1

    def test_closed_session_raises(self, points):
        from repro.util.errors import SessionClosedError

        session = Session(points)
        session.close()
        assert session.closed
        with pytest.raises(ValueError, match="closed"):
            session.run(VSET)
        with pytest.raises(SessionClosedError, match="already closed"):
            session.close()  # double close is a lifecycle bug now

    def test_procpool_run_cleans_segments(self, points):
        before = _repro_segments()
        with Session(points) as session:
            batch = session.run(VSET, executor="processes", n_threads=2)
            assert set(batch.results) == set(VSET)
        assert _repro_segments() == before


class _ExplodingCostModel(CostModel):
    """Picklable cost model that fails inside the worker process."""

    def duration(self, counters, concurrency: int = 1) -> float:
        raise RuntimeError("exploding cost model")


class TestShmLifecycleOnFailure:
    def test_failed_procpool_run_leaks_nothing(self, points):
        before = _repro_segments()
        with Session(points, cost_model=_ExplodingCostModel()) as session:
            with pytest.raises(RuntimeError, match="exploding cost model"):
                session.run(VSET, executor="processes", n_threads=2)
        assert _repro_segments() == before


# ----------------------------------------------------------------------
# balanced reuse-chain partitioning (regression)
# ----------------------------------------------------------------------
class TestPartitionBalance:
    def test_single_chain_splits_evenly(self):
        # 13 variants in one reuse chain (same minpts, stepped eps).
        chain = VariantSet(Variant(0.2 + 0.05 * i, 4) for i in range(13))
        groups = partition_reuse_chains(chain, 4)
        sizes = sorted(len(g) for g in groups)
        # Regression: the old target-size prefix walk produced
        # [1, 4, 4, 4], leaving one worker nearly idle.
        assert sizes == [3, 3, 3, 4]

    def test_skewed_forest_balances_with_singletons(self):
        # One 10-variant chain plus 3 unrelated singleton roots: the
        # singleton leftovers must be folded into the balance.
        chain = [Variant(0.2 + 0.05 * i, 4) for i in range(10)]
        singles = [Variant(50.0 + 10 * i, 64 + i) for i in range(3)]
        groups = partition_reuse_chains(VariantSet(chain + singles), 4)
        sizes = sorted(len(g) for g in groups)
        assert sum(sizes) == 13
        assert max(sizes) - min(sizes) <= 1

    def test_balance_never_worse_than_two_to_one(self):
        # Property over assorted forest shapes: with equal-cost
        # variants, no worker should get more than ~2x an even share.
        for n_eps, n_minpts, workers in [(5, 5, 4), (7, 2, 3), (3, 4, 8), (13, 1, 4)]:
            vset = VariantSet.from_product(
                [0.2 + 0.1 * i for i in range(n_eps)],
                [4 * (j + 1) for j in range(n_minpts)],
            )
            groups = partition_reuse_chains(vset, workers)
            even = len(vset) / max(1, min(workers, len(vset)))
            assert max(len(g) for g in groups) <= max(2, 2 * even)
