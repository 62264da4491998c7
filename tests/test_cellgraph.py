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
# dense cell-pair prefilter: box gap and facing strips
# ---------------------------------------------------------------------------

#: Radius of the hand-built cell pairs below; its cells are ~0.354 wide,
#: so cell (0, 0) spans [0, 0.354) on both axes and cell (2, 0) starts
#: at x = 0.707.
HALF = 0.5
_W = CellGraphIndex(np.zeros((1, 2)), HALF).cell_width


def _block(x0, x1, y0, y1, k=4):
    """A ``k x k`` lattice filling the rectangle: one dense cell's bulk."""
    gx, gy = np.meshgrid(np.linspace(x0, x1, k), np.linspace(y0, y1, k))
    return np.column_stack([gx.ravel(), gy.ravel()])


def _partner(p, qx, *, outward=False):
    """A ``q`` whose computed ``d^2`` to ``p`` is exactly eps^2.

    Walks ``q``'s coordinates one ulp at a time around the real root;
    ``outward`` then keeps walking ``q.x`` away from ``p`` until the
    pair is just outside the closed ball.
    """
    e2 = HALF * HALF
    for _ in range(64):
        qy = p[1] + np.sqrt(e2 - (qx - p[0]) ** 2)
        for y in (np.nextafter(qy, -np.inf), qy, np.nextafter(qy, np.inf)):
            if (qx - p[0]) ** 2 + (y - p[1]) ** 2 == e2:
                while outward and (qx - p[0]) ** 2 + (y - p[1]) ** 2 <= e2:
                    qx = np.nextafter(qx, np.inf)
                return np.array([qx, y])
        qx = np.nextafter(qx, np.inf)
    raise AssertionError("no exact-eps partner found")


def _min_cross_d2(points, index):
    """Smallest computed ``d^2`` between points of different cells."""
    x, y = points[:, 0], points[:, 1]
    d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
    cell = index.cell_of_point
    return d2[cell[:, None] != cell[None, :]].min()


def _assert_matches_oracle(points, eps, minpts_grid):
    for minpts in minpts_grid:
        ref = bfs_oracle(points, eps, minpts)
        got = cellgraph_dbscan(points, eps, minpts)
        np.testing.assert_array_equal(got.labels, ref.labels)
        np.testing.assert_array_equal(got.core_mask, ref.core_mask)


#: Two dense cells at each offset, each with one point of the pair
#: ``p``-``q`` that is exactly eps apart.  ``decoys`` are the cells'
#: stage-1 representatives toward each other, placed more than eps
#: from every point of the other cell, so the pair is found by stage 2
#: (a (2, 2) pair at exactly eps sits at the facing corners, which are
#: the representatives themselves).
EXACT_PAIRS = {
    (2, 0): ((0.25, 0.2), 0.75, [(0.26, 0.01), (0.74, 0.34)]),
    (2, 1): ((0.3, 0.3), 0.75, [(0.26, 0.35), (0.9, 0.36)]),
    (2, 2): ((_W - 5e-14, _W - 5e-14), 2 * _W + 5e-14, []),
}


def _exact_pair_db(offset, *, outward=False):
    p, qx, decoys = EXACT_PAIRS[offset]
    # The second cell's bulk sits in its far corner, in row offset[1].
    far_y = {0: (0.01, 0.1), 1: (0.6, 0.7), 2: (0.97, 1.05)}[offset[1]]
    pts = np.vstack(
        [
            _block(0.01, 0.1, 0.01, 0.1),
            _block(0.97, 1.05, *far_y),
            [p, _partner(np.array(p), qx, outward=outward)],
            np.reshape(decoys, (-1, 2)),
        ]
    )
    return np.ascontiguousarray(pts)


class TestCellPairPrefilter:
    """Pruned dense cell pairs link exactly as the full product would."""

    @pytest.mark.parametrize("offset", sorted(EXACT_PAIRS))
    @pytest.mark.parametrize("outward", [False, True])
    def test_pair_at_exactly_eps(self, offset, outward):
        pts = _exact_pair_db(offset, outward=outward)
        index = CellGraphIndex(pts, HALF)
        keys = {tuple(k) for k in index.cell_keys.tolist()}
        assert keys == {(0, 0), offset}
        # The p-q pair is the closest cross pair, on the closed ball's
        # edge or one step outside it.
        d2 = _min_cross_d2(pts, index)
        assert (d2 > HALF * HALF) if outward else (d2 == HALF * HALF)
        _assert_matches_oracle(pts, HALF, [1, 2, 8, 16, 17, 30])
        c = WorkCounters()
        res = cellgraph_dbscan(pts, HALF, 16, counters=c)
        assert res.n_clusters == (2 if outward else 1)
        if EXACT_PAIRS[offset][2]:
            # Stage 1 rejected the pair: the strips' product ran.
            assert c.distance_computations > 1

    def test_points_on_box_edges(self):
        # Each cell's facing edge is a column of points, and the columns
        # are the cells' strips.  They are exactly eps apart, and only
        # the rows at y = 0.2 line up: third in one strip, first in the
        # other.  The stage-1 pair (the first point of each column) is
        # off by a row, and every edge point lies on its own cell's box.
        a_col = [(0.25, y) for y in (0.02, 0.1, 0.2, 0.28)]
        b_col = [(0.75, y) for y in (0.2, 0.05, 0.13, 0.25)]
        pts = np.ascontiguousarray(
            np.vstack(
                [a_col, b_col, _block(0.01, 0.1, 0.01, 0.3),
                 _block(0.97, 1.05, 0.01, 0.3)]
            )
        )
        assert _min_cross_d2(pts, CellGraphIndex(pts, HALF)) == HALF * HALF
        _assert_matches_oracle(pts, HALF, [1, 4, 16, 20, 21])
        c = WorkCounters()
        assert cellgraph_dbscan(pts, HALF, 20, counters=c).n_clusters == 1
        assert c.distance_computations > 1

    def test_boxes_within_eps_points_not(self):
        # Two parallel segments 0.502 apart: the cells' boxes are 0.38
        # apart, so the pair passes the box test and no point pair links.
        t = np.linspace(0.01, 0.34, 40)
        pts = np.ascontiguousarray(
            np.vstack(
                [np.column_stack([t, 0.35 - t]), np.column_stack([t + 0.71, 0.35 - t])]
            )
        )
        index = CellGraphIndex(pts, HALF)
        assert index.n_cells == 2
        assert _min_cross_d2(pts, index) > HALF * HALF
        _assert_matches_oracle(pts, HALF, [1, 8, 40])
        c = WorkCounters()
        assert cellgraph_dbscan(pts, HALF, 40, counters=c).n_clusters == 2
        assert c.distance_computations > 1

    def test_lattice_at_half_eps(self):
        # Lattice spacing 1/8 divides eps = 0.5, so many cross pairs sit
        # exactly on the closed ball's edge.
        g = resolve_rng(2024)
        gx, gy = np.meshgrid(np.arange(24) / 8.0, np.arange(24) / 8.0)
        lattice = np.column_stack([gx.ravel(), gy.ravel()])
        pts = np.ascontiguousarray(lattice[g.random(lattice.shape[0]) < 0.6])
        _assert_matches_oracle(pts, HALF, [1, 2, 3, 5, 8, 12])

    def test_two_huge_cells_stream(self, monkeypatch):
        import repro.core.cellgraph as cellgraph

        monkeypatch.setattr(cellgraph, "CELL_PRODUCT_CHUNK", 64)
        t = np.linspace(0.01, 0.34, 400)
        a = np.column_stack([t, 0.35 - t])
        b = np.column_stack([t + 0.71, 0.35 - t])
        # Strips by brute force: points within eps of the other box.
        sa = int(np.count_nonzero(t + 0.5 >= 0.72))
        sb = int(np.count_nonzero(t + 0.71 - 0.5 <= 0.34))
        assert sa * sb > 64
        far = np.ascontiguousarray(np.vstack([a, b]))
        c = WorkCounters()
        res = cellgraph_dbscan(far, HALF, 400, counters=c)
        assert res.n_clusters == 2
        # One stage-1 test, then the whole streamed product: no hit.
        assert c.distance_computations == 1 + sa * sb
        # One b point moved next to a's strip: the stream stops early.
        near = far.copy()
        near[400 + 200] = near[399] + [0.45, 0.0]
        c = WorkCounters()
        res = cellgraph_dbscan(near, HALF, 400, counters=c)
        assert res.n_clusters == 1
        assert c.distance_computations < 1 + sa * sb
        for pts in (far, near):
            _assert_matches_oracle(pts, HALF, [1, 400])

    @pytest.mark.parametrize("chunk", [None, 8])
    @pytest.mark.parametrize("seed", [3, 17, 101])
    def test_components_match_unfiltered_product(self, monkeypatch, seed, chunk):
        import repro.core.cellgraph as cellgraph

        if chunk is not None:
            # Small chunks: strip groups of one pair, products split
            # across chunks, and streamed pairs.
            monkeypatch.setattr(cellgraph, "CELL_PRODUCT_CHUNK", chunk)
        # Isolated scenes of two cells each, at every neighbor offset,
        # with 3-16 points spread over each cell: many pairs fail the
        # quick-accept, and no link elsewhere joins a scene's cells.
        eps = 0.3
        g = resolve_rng(seed)
        w = CellGraphIndex(np.zeros((1, 2)), eps).cell_width
        offsets = POSITIVE_OFFSETS[g.integers(0, len(POSITIVE_OFFSETS), 150)]
        parts = []
        for i, off in enumerate(offsets):
            origin = np.array([10 * (i % 15), 10 * (i // 15)], dtype=float)
            for cell in (origin, origin + off):
                parts.append((cell + g.random((g.integers(3, 17), 2))) * w)
        pts = np.ascontiguousarray(np.vstack(parts))
        x, y = pts[:, 0], pts[:, 1]
        index = CellGraphIndex(pts, eps)
        dense = index.cell_counts >= 3
        slots = np.flatnonzero(dense)
        parent = np.arange(index.n_cells, dtype=np.int64)
        summary = cellgraph._CellSummary(index, pts, dense)
        cellgraph._link_cells(index, summary, parent, WorkCounters())
        flatten_parents(parent)
        # The unfiltered product over all points (every cell holds at
        # least 3, so all are dense): each eps-close pair links its cells.
        cell = index.cell_of_point
        d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
        i, j = np.nonzero(d2 <= eps * eps)
        ref = np.arange(index.n_cells, dtype=np.int64)
        union_edges(ref, cell[i], cell[j])
        np.testing.assert_array_equal(parent[slots], ref[slots])
        assert 0 < np.unique(ref).size < index.n_cells
        _assert_matches_oracle(pts, eps, [3])

    def test_gap_separated_pair_charges_no_distance(self):
        # Two dense cells at offset (2, 0) whose boxes are 0.87 apart:
        # one box test, no point pair.
        pts = np.ascontiguousarray(
            np.vstack([_block(0.01, 0.1, 0.01, 0.1), _block(0.97, 1.05, 0.01, 0.1)])
        )
        c = WorkCounters()
        res = cellgraph_dbscan(pts, HALF, 16, counters=c)
        assert res.n_clusters == 2
        assert c.distance_computations == 0
        assert c.candidates_examined == 1


# ---------------------------------------------------------------------------
# sparse scan: whole-cell tests over the 5x5 block
# ---------------------------------------------------------------------------


def _assert_pass_matches_oracle(points, eps, top):
    """Every ``m <= top`` from one pass equals the BFS oracle."""
    built = MinptsPass(points, CellGraphIndex(points, eps), top)
    for minpts in range(1, top + 1):
        ref = bfs_oracle(points, eps, minpts)
        got = built.cluster(minpts)
        np.testing.assert_array_equal(got.labels, ref.labels)
        np.testing.assert_array_equal(got.core_mask, ref.core_mask)
    return built


def _scan_scene(seed):
    """Blobs, a uniform background and a 1/8 lattice patch: dense cells,
    sparse cells and lattice ties in one database."""
    g = resolve_rng(seed)
    gx, gy = np.meshgrid(np.arange(12) / 8.0, np.arange(12) / 8.0)
    lattice = np.column_stack([gx.ravel(), gy.ravel()]) + [4.0, 0.0]
    return np.ascontiguousarray(
        np.vstack(
            [
                g.normal(0.0, 0.25, (120, 2)),
                g.uniform(-1.0, 6.0, (150, 2)),
                lattice[g.random(lattice.shape[0]) < 0.7],
            ]
        )
    )


class TestSparseScan:
    """Step 2 counts and pairs sparse points by whole-cell tests, exactly."""

    def test_lattice_ties_on_box_edges_and_facing_representative(self):
        # On a 1/8 lattice at eps = 0.5 the exact-eps pairs are four steps
        # apart along an axis.  p (cell (2, 0)) is saturated by the dense
        # cell (1, 0), which lies wholly within eps.  The dense cell
        # (3, 0) starts exactly eps from p, and its representative facing
        # p (its first point of least x) is exactly eps away, so the box
        # test keeps the cell and the representative links it.  s, alone
        # in cell (0, 0), is exactly eps from p: that one-point box is
        # covered on its edge.
        p, s = (0.75, 0.125), (0.25, 0.125)
        west = [(x / 8, y / 8) for x in (3, 4, 5) for y in (0, 1, 2)]
        east = [(1.25, 0.125)] + [(x / 8, y / 8) for x in (10, 11) for y in (0, 1, 2)
                                  if (x, y) != (10, 1)]
        pts = np.ascontiguousarray(np.array([p, s] + west + east))
        index = CellGraphIndex(pts, HALF)
        assert {tuple(k) for k in index.cell_keys.tolist()} == {
            (0, 0), (1, 0), (2, 0), (3, 0)
        }
        built = _assert_pass_matches_oracle(pts, HALF, 6)
        assert built.cluster(6).n_clusters == 1
        c = WorkCounters()
        MinptsPass(pts, index, 6, counters=c)
        # The one distance is p's representative test; the two dense
        # cells are more than eps apart by box, and every other cell is
        # covered.
        assert c.distance_computations == 1

    def test_dense_cell_within_eps_is_counted_without_distances(self):
        # p is alone in cell (1, 0); the dense cell (0, 0) lies wholly
        # within eps of it.
        top = 12
        g = resolve_rng(5)
        dense = np.column_stack([g.uniform(0.25, 0.34, top), g.uniform(0.0, 0.1, top)])
        pts = np.ascontiguousarray(np.vstack([dense, [(0.40, 0.05)]]))
        index = CellGraphIndex(pts, HALF)
        assert index.n_cells == 2
        c = WorkCounters()
        built = MinptsPass(pts, index, top, counters=c)
        assert built._count[-1] == top
        assert c.distance_computations == 0
        # Two box tests: p's own cell and the dense cell.
        assert c.candidates_examined == 2
        assert c.neighbor_searches == 1
        _assert_pass_matches_oracle(pts, HALF, top)

    def test_saturated_point_falls_back_when_representative_misses(self):
        # p (cell (2, 0)) is saturated by the covered dense cell (1, 0).
        # Its only neighbor q in the dense cell (3, 0) is not that cell's
        # representative facing p (r, the point of least x), and r lies
        # just beyond eps, so the cell's distances decide: p links both
        # dense cells into one cluster.
        top = 8
        p = (0.80, 0.20)
        g = resolve_rng(9)
        west = np.column_stack([g.uniform(0.62, 0.68, top), g.uniform(0.15, 0.25, top)])
        r, q = (1.26, 0.0), (1.27, 0.20)
        east = np.vstack(
            [[r, q], np.column_stack([g.uniform(1.33, 1.40, top - 2),
                                      g.uniform(0.0, 0.3, top - 2)])]
        )
        pts = np.ascontiguousarray(np.vstack([[p], west, east]))
        assert np.hypot(*np.subtract(r, p)) > HALF >= np.hypot(*np.subtract(q, p))
        index = CellGraphIndex(pts, HALF)
        assert {tuple(k) for k in index.cell_keys.tolist()} == {(1, 0), (2, 0), (3, 0)}
        c = WorkCounters()
        built = MinptsPass(pts, index, top, counters=c)
        # One representative test, then the east cell's product.
        assert c.distance_computations == 1 + top
        assert built.cluster(top).n_clusters == 1
        _assert_pass_matches_oracle(pts, HALF, top)

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_pairs_straddling_blocks(self, monkeypatch, block, seed):
        import repro.core.cellgraph as cellgraph

        pts = _scan_scene(seed)
        index = CellGraphIndex(pts, HALF)
        base = WorkCounters()
        ref = MinptsPass(pts, index, 6, counters=base)
        monkeypatch.setattr(cellgraph, "SEARCH_BLOCK", block)
        c = WorkCounters()
        built = MinptsPass(pts, index, 6, counters=c)
        # Blocks change how rows are grouped, never what is computed.
        assert c.as_dict() == base.as_dict()
        for m in range(1, 7):
            np.testing.assert_array_equal(built.cluster(m).labels, ref.cluster(m).labels)
        _assert_pass_matches_oracle(pts, HALF, 6)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_top_one_and_top_above_every_cell(self, seed):
        pts = _scan_scene(seed)
        index = CellGraphIndex(pts, HALF)
        # top = 1: every cell is dense and nothing is scanned.
        c = WorkCounters()
        MinptsPass(pts, index, 1, counters=c)
        assert c.neighbor_searches == 0
        _assert_pass_matches_oracle(pts, HALF, 1)
        # top above every cell count: no dense cell, every point scanned.
        top = int(index.cell_counts.max()) + 1
        c = WorkCounters()
        MinptsPass(pts, index, top, counters=c)
        assert c.neighbor_searches == pts.shape[0]
        _assert_pass_matches_oracle(pts, HALF, top)


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
