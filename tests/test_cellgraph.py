"""Cell-graph DBSCAN kernel: exactness, metamorphic, and wiring tests.

The kernel's contract is stronger than the usual "same clustering":
its output is **byte-identical** to the BFS path at the same
parameters (see :mod:`repro.core.cellgraph` for the proof sketch).
The suite asserts that bar directly, then layers on:

* the differential oracle (paper Section V-D): per-point Jaccard
  quality >= 0.998 against plain DBSCAN (it is 1.0 by exactness);
* the inclusion-criteria metamorphic properties of Section IV-B on
  cellgraph output alone;
* canonical-label equality against the R-tree BFS reference across
  every executor x scheduler x reuse-policy combination of the batch
  engine with ``kernel="cellgraph"``;
* unit tests for the index's cell-graph state and the vectorized
  union-find.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cellgraph import (
    MinptsPass,
    cellgraph_dbscan,
    flatten_parents,
    union_edges,
)
from repro.core.dbscan import dbscan
from repro.core.result import relabel_dense
from repro.core.reuse import POLICIES
from repro.core.scheduling import SCHEDULERS
from repro.core.variants import VariantSet
from repro.data.registry import load_dataset
from repro.engine import Session
from repro.index.cellgraph import (
    NEIGHBOR_OFFSETS,
    POSITIVE_OFFSETS,
    CellGraphIndex,
)
from repro.index.rtree import RTree
from repro.metrics.counters import WorkCounters
from repro.metrics.quality import quality_score
from repro.util.rng import resolve_rng

QUALITY_BAR = 0.998

EPS_GRID = [0.3, 0.45, 0.6, 0.75, 1.5]
MINPTS_GRID = [1, 2, 4, 8, 20]


def canonical(labels: np.ndarray) -> np.ndarray:
    return relabel_dense(np.asarray(labels))[0]


def bfs_oracle(points, eps, minpts):
    """Plain BFS DBSCAN over the exact r=1 R-tree — the byte-level oracle."""
    return dbscan(points, eps, minpts, index=RTree(points, r=1))


# ---------------------------------------------------------------------------
# index state
# ---------------------------------------------------------------------------


class TestCellGraphIndex:
    def test_cell_width_is_eps_over_sqrt2(self, two_blobs):
        idx = CellGraphIndex(two_blobs, 0.6)
        assert idx.eps == 0.6
        assert idx.cell_width == pytest.approx(0.6 / np.sqrt(2.0), rel=1e-9)
        # the safety shrink keeps the all-core guarantee: never wider
        assert idx.cell_width <= 0.6 / np.sqrt(2.0)

    def test_invalid_eps_rejected(self, two_blobs):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                CellGraphIndex(two_blobs, bad)

    def test_cell_assignment_is_consistent(self, two_blobs):
        idx = CellGraphIndex(two_blobs, 0.6)
        n = two_blobs.shape[0]
        # every point maps to a slot; slot populations match cell_counts
        assert idx.cell_of_point.shape == (n,)
        counts = np.bincount(idx.cell_of_point, minlength=idx.n_cells)
        np.testing.assert_array_equal(counts, idx.cell_counts)
        # point_order visits each point once, grouped by ascending slot
        order = idx.point_order
        assert np.array_equal(np.sort(order), np.arange(n))
        slots_in_order = idx.cell_of_point[order]
        assert np.all(np.diff(slots_in_order) >= 0)
        # the key actually matches the coordinates
        keys = idx.cell_keys[idx.cell_of_point]
        np.testing.assert_array_equal(
            keys, np.floor(two_blobs / idx.cell_width).astype(np.int64)
        )

    def test_points_in_cells_roundtrip(self, two_blobs):
        idx = CellGraphIndex(two_blobs, 0.6)
        slots = np.arange(idx.n_cells, dtype=np.int64)
        pts = idx.points_in_cells(slots)
        assert np.array_equal(np.sort(pts), np.arange(two_blobs.shape[0]))
        assert idx.points_in_cells(np.empty(0, dtype=np.int64)).size == 0

    def test_neighbor_slots_match_key_lookup(self, two_blobs):
        idx = CellGraphIndex(two_blobs, 0.6)
        slots = np.arange(idx.n_cells, dtype=np.int64)
        key_to_slot = {
            (int(kx), int(ky)): s
            for s, (kx, ky) in enumerate(idx.cell_keys)
        }
        for off in NEIGHBOR_OFFSETS:
            nb = idx.neighbor_slots(slots, off)
            for s in range(idx.n_cells):
                want = key_to_slot.get(
                    (
                        int(idx.cell_keys[s, 0]) + int(off[0]),
                        int(idx.cell_keys[s, 1]) + int(off[1]),
                    ),
                    -1,
                )
                assert nb[s] == want

    @pytest.mark.parametrize("case", ["sw1", "empty", "huge-coords"])
    def test_from_arrays_round_trip(self, case):
        eps = 0.5
        if case == "sw1":
            pts = load_dataset("SW1", 0.002).points
        elif case == "empty":
            pts = np.empty((0, 2))
        else:
            # Cell keys too far apart for the packed int64 encoding.
            g = resolve_rng(3)
            pts = np.vstack(
                [g.normal(0.0, 0.3, (40, 2)), g.normal(1e15, 0.3, (40, 2))]
            )
        built = CellGraphIndex(pts, eps)
        assert (built._enc is None) == (case != "sw1")
        arrays = {k: v.copy() for k, v in built.shareable_arrays.items()}
        for arr in arrays.values():
            arr.flags.writeable = False  # attached views are read-only
        shell = CellGraphIndex.from_arrays(pts, eps, arrays=arrays)
        assert shell.cell_width == built.cell_width
        assert (shell._enc is None) == (built._enc is None)
        np.testing.assert_array_equal(shell.cell_counts, built.cell_counts)
        np.testing.assert_array_equal(shell.cell_of_point, built.cell_of_point)
        slots = np.arange(built.n_cells, dtype=np.int64)
        for off in NEIGHBOR_OFFSETS:
            np.testing.assert_array_equal(
                shell.neighbor_slots(slots, off), built.neighbor_slots(slots, off)
            )
        top = 8
        want = MinptsPass(pts, built, top)
        got = MinptsPass(pts, shell, top)
        for m in range(1, top + 1):
            a, b = want.cluster(m), got.cluster(m)
            assert a.labels.tobytes() == b.labels.tobytes()
            assert a.core_mask.tobytes() == b.core_mask.tobytes()

    def test_offset_tables(self):
        # 5x5 block minus the center; the positive half enumerates each
        # unordered pair exactly once.
        assert NEIGHBOR_OFFSETS.shape == (24, 2)
        assert POSITIVE_OFFSETS.shape == (12, 2)
        as_set = {tuple(o) for o in NEIGHBOR_OFFSETS}
        assert (0, 0) not in as_set
        assert {(-dx, -dy) for dx, dy in as_set} == as_set
        pos = {tuple(o) for o in POSITIVE_OFFSETS}
        assert pos | {(-dx, -dy) for dx, dy in pos} == as_set


# ---------------------------------------------------------------------------
# vectorized union-find
# ---------------------------------------------------------------------------


class TestVectorizedUnionFind:
    def test_flatten_compresses_chains(self):
        parent = np.array([0, 0, 1, 2, 3], dtype=np.int64)
        flatten_parents(parent)
        np.testing.assert_array_equal(parent, np.zeros(5, dtype=np.int64))

    def test_union_transitive_chain(self):
        parent = np.arange(6, dtype=np.int64)
        union_edges(
            parent,
            np.array([5, 4, 3, 2, 1], dtype=np.int64),
            np.array([4, 3, 2, 1, 0], dtype=np.int64),
        )
        np.testing.assert_array_equal(parent, np.zeros(6, dtype=np.int64))

    def test_union_roots_are_component_minima(self):
        parent = np.arange(8, dtype=np.int64)
        union_edges(
            parent,
            np.array([7, 3, 5], dtype=np.int64),
            np.array([3, 7, 1], dtype=np.int64),
        )
        assert parent[7] == parent[3] == 3
        assert parent[5] == parent[1] == 1
        assert parent[0] == 0 and parent[2] == 2

    def test_union_random_vs_scalar_reference(self):
        g = resolve_rng(99)
        n = 200
        a = g.integers(0, n, 400).astype(np.int64)
        b = g.integers(0, n, 400).astype(np.int64)
        parent = np.arange(n, dtype=np.int64)
        union_edges(parent, a, b)
        flatten_parents(parent)

        ref = list(range(n))

        def find(i):
            while ref[i] != i:
                ref[i] = ref[ref[i]]
                i = ref[i]
            return i

        for i, j in zip(a.tolist(), b.tolist()):
            ri, rj = find(i), find(j)
            if ri != rj:
                hi, lo = max(ri, rj), min(ri, rj)
                ref[hi] = lo
        ref_root = np.array([find(i) for i in range(n)])
        # identical partition AND identical (minimum) representatives
        np.testing.assert_array_equal(parent, ref_root)


# ---------------------------------------------------------------------------
# byte-identical exactness vs the BFS path
# ---------------------------------------------------------------------------


class TestExactEquality:
    @pytest.mark.parametrize("eps", EPS_GRID)
    @pytest.mark.parametrize("minpts", MINPTS_GRID)
    def test_blobs_grid(self, two_blobs, eps, minpts):
        ref = bfs_oracle(two_blobs, eps, minpts)
        got = cellgraph_dbscan(two_blobs, eps, minpts)
        np.testing.assert_array_equal(got.labels, ref.labels)
        np.testing.assert_array_equal(got.core_mask, ref.core_mask)

    @pytest.mark.parametrize("eps,minpts", [(0.5, 4), (1.0, 2), (2.0, 10)])
    def test_uniform_cloud(self, uniform_cloud, eps, minpts):
        ref = bfs_oracle(uniform_cloud, eps, minpts)
        got = cellgraph_dbscan(uniform_cloud, eps, minpts)
        np.testing.assert_array_equal(got.labels, ref.labels)
        np.testing.assert_array_equal(got.core_mask, ref.core_mask)

    def test_synthetic_with_structure(self, small_synthetic):
        points, _truth = small_synthetic
        for eps, minpts in [(0.8, 4), (1.2, 8)]:
            ref = bfs_oracle(points, eps, minpts)
            got = cellgraph_dbscan(points, eps, minpts)
            np.testing.assert_array_equal(got.labels, ref.labels)
            np.testing.assert_array_equal(got.core_mask, ref.core_mask)

    def test_degenerate_databases(self):
        empty = np.empty((0, 2), dtype=np.float64)
        res = cellgraph_dbscan(empty, 0.5, 4)
        assert res.labels.size == 0 and res.n_clusters == 0

        single = np.array([[1.0, 2.0]])
        for minpts in (1, 2):
            ref = bfs_oracle(single, 0.5, minpts)
            got = cellgraph_dbscan(single, 0.5, minpts)
            np.testing.assert_array_equal(got.labels, ref.labels)
            np.testing.assert_array_equal(got.core_mask, ref.core_mask)

        # coincident points: one dense cell, everything core at minpts<=5
        dupes = np.zeros((5, 2))
        got = cellgraph_dbscan(dupes, 0.5, 5)
        assert got.core_mask.all() and (got.labels == 0).all()

    def test_cell_boundary_pairs(self):
        # Points at exactly eps separation exercise the closed predicate
        # across the (+-2, +-2) corner offsets.
        eps = 1.0
        pts = np.array(
            [[0.0, 0.0], [eps, 0.0], [0.0, eps], [eps / np.sqrt(2)] * 2]
        )
        for minpts in (1, 2, 3, 4):
            ref = bfs_oracle(pts, eps, minpts)
            got = cellgraph_dbscan(pts, eps, minpts)
            np.testing.assert_array_equal(got.labels, ref.labels)
            np.testing.assert_array_equal(got.core_mask, ref.core_mask)

    def test_prebuilt_index_and_eps_mismatch(self, two_blobs):
        idx = CellGraphIndex(two_blobs, 0.6)
        got = cellgraph_dbscan(two_blobs, 0.6, 4, index=idx)
        ref = bfs_oracle(two_blobs, 0.6, 4)
        np.testing.assert_array_equal(got.labels, ref.labels)
        with pytest.raises(ValueError, match="built for eps"):
            cellgraph_dbscan(two_blobs, 0.7, 4, index=idx)

    def test_dbscan_dispatches_on_cellgraph_index(self, two_blobs):
        # dbscan() takes the cell-graph path when handed a matching index
        idx = CellGraphIndex(two_blobs, 0.6)
        c = WorkCounters()
        got = dbscan(two_blobs, 0.6, 4, index=idx, counters=c)
        ref = bfs_oracle(two_blobs, 0.6, 4)
        np.testing.assert_array_equal(got.labels, ref.labels)
        # the kernel never issues one search per point
        assert c.neighbor_searches < two_blobs.shape[0]

    def test_counters_charged(self, two_blobs):
        c = WorkCounters()
        cellgraph_dbscan(two_blobs, 0.6, 4, counters=c)
        assert c.index_nodes_visited > 0
        assert c.distance_computations > 0


# ---------------------------------------------------------------------------
# differential oracle (paper Section V-D bar)
# ---------------------------------------------------------------------------


class TestDifferentialOracle:
    @pytest.mark.parametrize("eps", [0.45, 0.6, 0.75])
    @pytest.mark.parametrize("minpts", [4, 8])
    def test_quality_vs_plain_dbscan(self, two_blobs, eps, minpts):
        q = quality_score(
            bfs_oracle(two_blobs, eps, minpts),
            cellgraph_dbscan(two_blobs, eps, minpts),
        )
        assert q >= QUALITY_BAR
        # exactness actually buys the maximum score
        assert q == pytest.approx(1.0)

    def test_quality_on_random_databases(self):
        g = resolve_rng(4242)
        for trial in range(5):
            pts = g.uniform(0.0, 12.0, (600, 2))
            q = quality_score(
                bfs_oracle(pts, 0.5, 4), cellgraph_dbscan(pts, 0.5, 4)
            )
            assert q >= QUALITY_BAR, f"trial {trial}: {q}"


# ---------------------------------------------------------------------------
# metamorphic inclusion criteria (Section IV-B) on cellgraph output
# ---------------------------------------------------------------------------


STRICT_RELAXED = [
    ((0.45, 8), (0.45, 4)),   # minpts loosened
    ((0.45, 8), (0.6, 8)),    # eps grown
    ((0.45, 8), (0.75, 3)),   # both relaxed
]


class TestMetamorphicInclusion:
    @pytest.mark.parametrize("strict,relaxed", STRICT_RELAXED)
    def test_core_monotonicity(self, two_blobs, strict, relaxed):
        rs = cellgraph_dbscan(two_blobs, *strict)
        rr = cellgraph_dbscan(two_blobs, *relaxed)
        assert not (rs.core_mask & ~rr.core_mask).any()

    @pytest.mark.parametrize("strict,relaxed", STRICT_RELAXED)
    def test_clustered_monotonicity(self, two_blobs, strict, relaxed):
        rs = cellgraph_dbscan(two_blobs, *strict)
        rr = cellgraph_dbscan(two_blobs, *relaxed)
        assert not ((rs.labels >= 0) & (rr.labels < 0)).any()

    @pytest.mark.parametrize("strict,relaxed", STRICT_RELAXED)
    def test_cluster_containment_on_cores(self, two_blobs, strict, relaxed):
        rs = cellgraph_dbscan(two_blobs, *strict)
        rr = cellgraph_dbscan(two_blobs, *relaxed)
        for cid in range(rs.n_clusters):
            members = np.flatnonzero((rs.labels == cid) & rs.core_mask)
            if members.size:
                assert np.unique(rr.labels[members]).size == 1

    def test_permutation_invariance(self, two_blobs):
        g = resolve_rng(7)
        perm = g.permutation(two_blobs.shape[0])
        base = cellgraph_dbscan(two_blobs, 0.6, 4)
        shuffled = cellgraph_dbscan(two_blobs[perm], 0.6, 4)
        # same partition after undoing the permutation, canonically
        np.testing.assert_array_equal(
            canonical(base.labels[perm]), canonical(shuffled.labels)
        )
        np.testing.assert_array_equal(
            base.core_mask[perm], shuffled.core_mask
        )

    def test_translation_invariance(self, two_blobs):
        base = cellgraph_dbscan(two_blobs, 0.6, 4)
        moved = cellgraph_dbscan(two_blobs + [137.25, -59.5], 0.6, 4)
        np.testing.assert_array_equal(
            canonical(base.labels), canonical(moved.labels)
        )
        np.testing.assert_array_equal(base.core_mask, moved.core_mask)


# ---------------------------------------------------------------------------
# batch-engine wiring: kernel="cellgraph" across every combination
# ---------------------------------------------------------------------------


WIRING_VARIANTS = VariantSet.from_product([0.45, 0.6], [4, 8])


@pytest.fixture(scope="module")
def wiring_reference(two_blobs):
    """Canonical per-variant labels from the serial BFS batch engine."""
    with Session(two_blobs, kernel="bfs") as session:
        batch = session.run(WIRING_VARIANTS)
    return {v: canonical(batch.results[v].labels) for v in WIRING_VARIANTS}


#: The cell-graph kernel with its (only) settings, then the reuse path
#: under every scheduler x policy.
WIRING_CELLS = [pytest.param({}, id="cellgraph")] + [
    pytest.param({"kernel": "bfs", "scheduler": s, "policy": p}, id=f"{s}-{p}")
    for s in sorted(SCHEDULERS)
    for p in sorted(POLICIES)
]


@pytest.mark.parametrize("knobs", WIRING_CELLS)
@pytest.mark.parametrize("executor", ["serial", "processes", "simulated"])
def test_kernel_matches_bfs_reference(two_blobs, wiring_reference, executor, knobs):
    with Session(two_blobs) as session:
        batch = session.run(WIRING_VARIANTS, executor=executor, n_threads=2, **knobs)
    for v in WIRING_VARIANTS:
        np.testing.assert_array_equal(
            canonical(batch.results[v].labels), wiring_reference[v]
        )


def test_kernel_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError, match="unknown kernel"):
        Session(pts, kernel="quantum")
    with Session(pts) as session, pytest.raises(ValueError, match="unknown kernel"):
        session.run(VariantSet.from_product([0.5], [2]), kernel="quantum")


def test_session_run_kernel_override(two_blobs):
    # The session default is cellgraph; the override pins the first run
    # to bfs, whose reuse path permutes cluster ids, so labels compare
    # canonically.  Reuse reports a conservative core mask, so core
    # masks compare on the bfs run's from-scratch variants.
    with Session(two_blobs) as session:
        bfs = session.run(WIRING_VARIANTS, kernel="bfs")
        cg = session.run(WIRING_VARIANTS)
    # Only the bfs kernel reuses, so this shows the override took effect.
    assert any(r.reused_from is not None for r in bfs.record.records)
    assert all(r.reused_from is None for r in cg.record.records)
    for v in WIRING_VARIANTS:
        np.testing.assert_array_equal(
            canonical(cg.results[v].labels), canonical(bfs.results[v].labels)
        )
        if bfs.results[v].reused_from is None:
            np.testing.assert_array_equal(
                cg.results[v].core_mask, bfs.results[v].core_mask
            )


def test_factory_memoizes_cellgraph_index(two_blobs):
    with Session(two_blobs) as session:
        session.run(WIRING_VARIANTS, kernel="cellgraph")
        kinds = {key[1] for key in session.factory._cache}
        assert "cellgraph" in kinds
        before = len(session.factory)
        session.run(WIRING_VARIANTS, kernel="cellgraph")
        assert len(session.factory) == before  # second run hits the cache
