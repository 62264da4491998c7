"""Batched epsilon-search engine: exact parity with the scalar path.

The whole batched stack — ``query_candidates_batch`` on every index,
``NeighborSearcher.search_batch``, and the blocked frontier expansion
in DBSCAN/VariantDBSCAN — promises
*byte-identical* labels, core masks, and work-counter totals versus the
original one-point-at-a-time code.  These tests pin that promise down
with hypothesis-driven point sets spanning the empty/singleton/small/
clustered regimes, all four index types, and the paper's index
resolutions r in {1, 8, 70}.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dbscan import dbscan
from repro.core.neighbors import NeighborSearcher
from repro.core.variant_dbscan import variant_dbscan
from repro.core.variants import Variant
from repro.index.brute import BruteForceIndex
from repro.index.grid import UniformGridIndex
from repro.index.kdtree import KDTree
from repro.index.rtree import RTree
from repro.metrics.counters import WorkCounters
from repro.util.rng import resolve_rng

R_VALUES = [1, 8, 70]

INDEX_BUILDERS = {
    "rtree-r1": lambda pts: RTree(pts, r=1),
    "rtree-r8": lambda pts: RTree(pts, r=8),
    "rtree-r70": lambda pts: RTree(pts, r=70),
    "grid": lambda pts: UniformGridIndex(pts, cell_width=0.9),
    "kdtree": lambda pts: KDTree(pts, leaf_size=8),
    "brute": lambda pts: BruteForceIndex(pts),
}


def _make_points(kind: str, seed: int) -> np.ndarray:
    """Deterministic point sets across the size/shape regimes."""
    g = resolve_rng(seed)
    if kind == "empty":
        return np.empty((0, 2), dtype=np.float64)
    if kind == "single":
        return np.array([[0.3, -1.2]])
    if kind == "small":
        return g.uniform(-2.0, 2.0, (17, 2))
    # clustered: two dense blobs + uniform background
    return np.vstack(
        [
            g.normal(0.0, 0.4, (120, 2)),
            g.normal(5.0, 0.6, (150, 2)),
            g.uniform(-3.0, 8.0, (40, 2)),
        ]
    )


point_kinds = st.sampled_from(["empty", "single", "small", "clustered"])
index_names = st.sampled_from(sorted(INDEX_BUILDERS))
eps_values = st.sampled_from([0.25, 0.6, 1.3])
seeds = st.integers(0, 2**16)


def _scalar_reference(searcher: NeighborSearcher, idxs: np.ndarray):
    """Per-point search results + counter totals, on fresh counters."""
    rows = [searcher.search(int(i)) for i in idxs]
    return rows


class TestSearchBatchParity:
    """search_batch == per-point search, rows and counters both."""

    @settings(max_examples=40, deadline=None)
    @given(point_kinds, index_names, eps_values, seeds)
    def test_rows_and_counters_match(self, kind, index_name, eps, seed):
        points = _make_points(kind, seed)
        index = INDEX_BUILDERS[index_name](points)
        n = points.shape[0]
        g = resolve_rng(seed + 1)
        # include duplicates and unsorted order on purpose
        idxs = g.integers(0, n, size=min(2 * n, 64)) if n else np.empty(0, int)
        idxs = np.asarray(idxs, dtype=np.int64)

        c_scalar = WorkCounters()
        scalar = _scalar_reference(
            NeighborSearcher(index, eps, c_scalar), idxs
        )
        c_batch = WorkCounters()
        indptr, flat = NeighborSearcher(index, eps, c_batch).search_batch(idxs)

        assert indptr.shape == (idxs.size + 1,)
        assert indptr[0] == 0
        for i, ref in enumerate(scalar):
            row = flat[indptr[i] : indptr[i + 1]]
            np.testing.assert_array_equal(row, ref)
        assert c_batch.as_dict() == c_scalar.as_dict()

    @pytest.mark.parametrize("r", R_VALUES)
    def test_rtree_resolutions_clustered(self, r):
        points = _make_points("clustered", 5)
        index = RTree(points, r=r)
        idxs = np.arange(points.shape[0], dtype=np.int64)
        c_scalar, c_batch = WorkCounters(), WorkCounters()
        scalar = _scalar_reference(NeighborSearcher(index, 0.6, c_scalar), idxs)
        indptr, flat = NeighborSearcher(index, 0.6, c_batch).search_batch(idxs)
        for i, ref in enumerate(scalar):
            np.testing.assert_array_equal(flat[indptr[i] : indptr[i + 1]], ref)
        assert c_batch.as_dict() == c_scalar.as_dict()

    def test_empty_block(self):
        points = _make_points("clustered", 1)
        searcher = NeighborSearcher(RTree(points, r=8), 0.5, WorkCounters())
        indptr, flat = searcher.search_batch(np.empty(0, dtype=np.int64))
        assert indptr.tolist() == [0]
        assert flat.size == 0


class TestBatchedClusteringParity:
    """Whole-pipeline parity: batched DBSCAN == scalar DBSCAN."""

    @settings(max_examples=20, deadline=None)
    @given(
        point_kinds,
        eps_values,
        st.sampled_from([2, 4, 8]),
        st.sampled_from([2, 7, 256]),
        seeds,
    )
    def test_dbscan_batched_equals_scalar(self, kind, eps, minpts, bs, seed):
        points = _make_points(kind, seed)
        index = RTree(points, r=8)
        c_s, c_b = WorkCounters(), WorkCounters()
        ref = dbscan(points, eps, minpts, index=index, counters=c_s, batch_size=1)
        got = dbscan(points, eps, minpts, index=index, counters=c_b, batch_size=bs)
        np.testing.assert_array_equal(got.labels, ref.labels)
        np.testing.assert_array_equal(got.core_mask, ref.core_mask)
        assert c_b.as_dict() == c_s.as_dict()

    @settings(max_examples=10, deadline=None)
    @given(seeds, st.sampled_from([4, 64]))
    def test_variant_dbscan_reuse_path_parity(self, seed, bs):
        points = _make_points("clustered", seed)
        t_high = RTree(points, r=1)
        t_low = RTree(points, r=70)
        prev = variant_dbscan(points, Variant(0.4, 8), None, t_low=t_low, batch_size=1)
        c_s, c_b = WorkCounters(), WorkCounters()
        ref = variant_dbscan(
            points, Variant(0.7, 4), prev, t_high=t_high, t_low=t_low,
            counters=c_s, batch_size=1,
        )
        got = variant_dbscan(
            points, Variant(0.7, 4), prev, t_high=t_high, t_low=t_low,
            counters=c_b, batch_size=bs,
        )
        np.testing.assert_array_equal(got.labels, ref.labels)
        np.testing.assert_array_equal(got.core_mask, ref.core_mask)
        assert c_b.as_dict() == c_s.as_dict()
