"""The per-eps cell-graph pass: one build, every minpts, byte-exact.

:class:`~repro.core.cellgraph.MinptsPass` is built once for the largest
requested ``minpts`` (``top``) and answers every ``m <= top`` with a
threshold and a union-find.  Its contract is the cell-graph kernel's:
labels and core mask byte-identical to the BFS :func:`dbscan` oracle,
whatever order the ``minpts`` values are asked in.  The batch engine's
default ``kernel="cellgraph"`` serves every variant from such a pass, so
the substrates now agree with each other byte for byte as well.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cellgraph import _DIRECTIONS, MinptsPass, _CellSummary, cellgraph_dbscan
from repro.core.dbscan import dbscan
from repro.core.variants import Variant, VariantSet
from repro.data.registry import load_dataset
from repro.engine import Session
from repro.index.cellgraph import CellGraphIndex
from repro.index.rtree import RTree
from repro.metrics.counters import WorkCounters
from repro.util.rng import resolve_rng

EPS_GRID = [0.2, 0.35, 0.6, 1.1]
MINPTS_GRID = [1, 2, 3, 5, 8, 13, 21]


def bfs(points, eps, minpts):
    """Plain BFS DBSCAN over the exact r=1 R-tree: the byte-level oracle."""
    return dbscan(points, eps, minpts, index=RTree(points, r=1))


def assert_same(got, ref):
    np.testing.assert_array_equal(got.labels, ref.labels)
    np.testing.assert_array_equal(got.core_mask, ref.core_mask)


def blobs(seed: int, n: int) -> np.ndarray:
    g = resolve_rng(seed)
    k = n // 3
    return np.ascontiguousarray(
        np.vstack(
            [
                g.normal(0.0, 0.5, (k, 2)),
                g.normal(0.0, 0.3, (k, 2)) + [2.5, 0.5],
                g.uniform(-2.0, 4.0, (n - 2 * k, 2)),
            ]
        )
    )


class TestPassMatchesBFS:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 250),  # sizes 1-2 are uniform points only
        eps=st.sampled_from(EPS_GRID),
        minpts=st.lists(st.sampled_from(MINPTS_GRID), min_size=1, max_size=5, unique=True),
        order=st.sampled_from(["descending", "ascending", "shuffled"]),
    )
    def test_every_minpts_in_any_order(self, seed, n, eps, minpts, order):
        points = blobs(seed, n)
        built = MinptsPass(points, CellGraphIndex(points, eps), max(minpts))
        if order == "descending":
            asked = sorted(minpts, reverse=True)
        elif order == "ascending":
            asked = sorted(minpts)
        else:
            asked = list(resolve_rng(seed).permutation(minpts))
        for m in asked:
            assert_same(built.cluster(int(m)), bfs(points, eps, int(m)))

    def test_minpts_below_top(self, small_synthetic):
        points, _ = small_synthetic
        built = MinptsPass(points, CellGraphIndex(points, 1.0), 40)
        for m in (39, 17, 4, 1, 40):
            assert_same(built.cluster(m), bfs(points, 1.0, m))

    def test_minpts_above_top_rejected(self, two_blobs):
        built = MinptsPass(two_blobs, CellGraphIndex(two_blobs, 0.6), 8)
        with pytest.raises(ValueError, match="minpts <= 8"):
            built.cluster(9)

    def test_build_charges_once(self, two_blobs):
        c = WorkCounters()
        built = MinptsPass(two_blobs, CellGraphIndex(two_blobs, 0.6), 8, counters=c)
        assert c.distance_computations > 0
        charged = c.as_dict()
        after = WorkCounters()
        built.cluster(4, counters=after)
        assert c.as_dict() == charged
        # Thresholding searches nothing; its union-find touches cells.
        assert after.index_nodes_visited > 0
        assert {k: v for k, v in after.as_dict().items() if v} == {
            "index_nodes_visited": after.index_nodes_visited
        }

    def test_one_minpts_call_is_the_pass(self, two_blobs):
        idx = CellGraphIndex(two_blobs, 0.6)
        c = WorkCounters()
        built = MinptsPass(two_blobs, idx, 4, counters=c)
        one = cellgraph_dbscan(two_blobs, 0.6, 4, index=idx)
        assert_same(one, built.cluster(4))
        # The one-minpts kernel charges its build only (the shard band
        # merge runs it under every kernel, so its counters must not move).
        assert one.counters.as_dict() == c.as_dict()


class TestDegenerateInputs:
    def check(self, points, eps, minpts_values):
        built = MinptsPass(points, CellGraphIndex(points, eps), max(minpts_values))
        for m in minpts_values:
            ref = bfs(points, eps, m)
            assert_same(built.cluster(m), ref)
            assert_same(cellgraph_dbscan(points, eps, m), ref)

    def test_empty_database(self):
        points = np.empty((0, 2))
        built = MinptsPass(points, CellGraphIndex(points, 0.5), 4)
        got = built.cluster(2)
        assert got.labels.shape == (0,) and got.core_mask.shape == (0,)

    def test_single_point(self):
        self.check(np.array([[1.0, 2.0]]), 0.5, [1, 2, 5])

    def test_duplicate_points(self):
        points = np.vstack([np.zeros((20, 2)), np.full((5, 2), 3.0), [[0.3, 0.0]]])
        self.check(points, 0.5, [1, 4, 6, 21, 30])

    def test_one_cell_holds_everything(self):
        g = resolve_rng(3)
        points = g.uniform(0.0, 0.05, (60, 2))
        idx = CellGraphIndex(points, 1.0)
        assert idx.n_cells == 1
        self.check(points, 1.0, [1, 30, 60, 61])

    def test_minpts_one_is_all_core(self, two_blobs):
        built = MinptsPass(two_blobs, CellGraphIndex(two_blobs, 0.3), 1)
        got = built.cluster(1)
        assert got.core_mask.all()
        assert_same(got, bfs(two_blobs, 0.3, 1))

    def test_minpts_above_n_is_all_noise(self, two_blobs):
        n = two_blobs.shape[0]
        built = MinptsPass(two_blobs, CellGraphIndex(two_blobs, 0.6), n + 5)
        for m in (n + 5, n + 1, 4):
            assert_same(built.cluster(m), bfs(two_blobs, 0.6, m))
        assert (built.cluster(n + 1).labels == -1).all()


class TestBatchEngine:
    VSET = VariantSet(
        [Variant(e, m) for e in (0.5, 0.8) for m in (12, 4, 8, 6)]
        + [Variant(1.2, 3)]
    )

    def test_default_kernel_is_exact_on_every_substrate(self, small_synthetic):
        points, _ = small_synthetic
        ref = {v: bfs(points, v.eps, v.minpts) for v in self.VSET}
        with Session(points) as session:
            assert session.spec.kernel == "cellgraph"
            runs = {
                "serial": session.run(self.VSET),
                "simulated": session.run(self.VSET, executor="simulated", n_threads=3),
                "processes": session.run(self.VSET, executor="processes", n_threads=2),
                "hybrid": session.run(
                    self.VSET, executor="hybrid", n_threads=2, regions=2,
                    shard_threshold=0,
                ),
            }
        for name, batch in runs.items():
            assert batch.record.n_from_scratch == len(self.VSET), name
            for v in self.VSET:
                assert_same(batch[v], ref[v])

    def test_processes_equal_serial_byte_for_byte(self, small_synthetic):
        points, _ = small_synthetic
        with Session(points) as session:
            serial = session.run(self.VSET)
            proc = session.run(self.VSET, executor="processes", n_threads=2)
        for v in self.VSET:
            assert_same(proc[v], serial[v])

    def test_pass_work_is_charged_to_the_variant_that_built_it(self, small_synthetic):
        points, _ = small_synthetic
        with Session(points) as session:
            batch = session.run(self.VSET)
        by_eps: dict[float, list] = {}
        for rec in batch.record.records:
            by_eps.setdefault(rec.variant.eps, []).append(rec.counters.neighbor_searches)
        for eps, searches in by_eps.items():
            # One variant per eps built the pass; the rest only thresholded.
            assert sum(1 for s in searches if s) <= 1, eps


def _member_reps(summary, dense_cell) -> np.ndarray:
    """``_CellSummary.reps`` the long way: gather the dense cells' members,
    then take each cell's first extreme point per direction."""
    counts = summary.counts
    dense = np.flatnonzero(dense_cell)
    size = counts[dense]
    ptr = np.cumsum(size) - size
    member = np.repeat(dense_cell, counts)
    pos = np.flatnonzero(member)
    mx, my = summary.xs[member], summary.ys[member]
    reps = np.empty((len(_DIRECTIONS), dense.size), dtype=np.int64)
    for k, (dx, dy) in enumerate(_DIRECTIONS):
        values = dx * mx + dy * my
        best = np.maximum.reduceat(values, ptr)
        at = np.flatnonzero(values == np.repeat(best, size))
        seg = np.searchsorted(ptr, at, side="right") - 1
        first = np.r_[True, seg[1:] != seg[:-1]]
        reps[k] = pos[at[first]]
    return reps


class TestCellSummaryReps:
    """The dense cells' extreme points, found over every cell's run."""

    @staticmethod
    def check(points, eps, top):
        index = CellGraphIndex(points, eps)
        dense_cell = index.cell_counts >= top
        summary = _CellSummary(index, points, dense_cell)
        assert dense_cell.any()
        assert np.array_equal(summary.reps, _member_reps(summary, dense_cell))

    @pytest.mark.parametrize("eps,top", [(0.3, 4), (0.5, 12), (0.8, 24)])
    def test_sw1_sample(self, eps, top):
        self.check(load_dataset("SW1", 0.01).points, eps, top)

    @pytest.mark.parametrize("top", [1, 2, 4])
    def test_tie_heavy_lattice(self, top):
        # Every cell holds a lattice patch whose extremes tie in every
        # direction, with duplicated points on top.
        grid = np.stack(np.meshgrid(np.arange(12.0), np.arange(9.0)), -1).reshape(-1, 2)
        points = np.vstack([grid * 0.1, grid[::5] * 0.1])
        self.check(points, 0.25, top)
