"""Bulk-loaded, array-backed R-tree with a tunable points-per-leaf knob.

This is the index of paper Section IV-A.  Points are first bin-sorted
(:mod:`repro.index.binsort`) for spatial locality, then packed ``r``
consecutive points per leaf MBB; internal levels group ``fanout``
consecutive child MBBs until a single root remains.  Because packing is
contiguous, the whole tree is four flat float64 arrays per level plus
one permutation — no node objects, no pointers — and query descent is a
handful of vectorized interval tests per level.

The ``r`` parameter reproduces the paper's accuracy/traffic trade-off:

* ``r = 1``: every leaf MBB is a degenerate box around one point.  The
  candidate set equals the exact box result, but the tree has ``n``
  leaves and the descent touches many nodes (memory-bound behaviour).
* large ``r`` (the paper finds 70-110 good): tree depth and node visits
  shrink dramatically while each query returns more candidates to
  distance-filter — cheap, vectorizable compute.

Two instances configured as ``T_high = RTree(points, r=1)`` and
``T_low = RTree(points, r=70..110)`` are the inputs to VariantDBSCAN
(Algorithm 3).
"""

from __future__ import annotations


import numpy as np

from repro.index._ranges import ranges_to_indices
from repro.index.base import SpatialIndex, empty_csr
from repro.index.binsort import binsort_order
from repro.index.mbb import XMAX, XMIN, YMAX, YMIN, mbb_contains_points
from repro.metrics.counters import WorkCounters
from repro.util.errors import ValidationError
from repro.util.validation import as_points_array, check_positive_int

__all__ = ["RTree"]


def _pack_level(child_boxes: np.ndarray, group: int) -> np.ndarray:
    """Aggregate consecutive groups of ``group`` child boxes into parent MBBs."""
    m = child_boxes.shape[0]
    n_parents = (m + group - 1) // group
    pad = n_parents * group - m
    if pad:
        # Pad with copies of the last real box so min/max reductions are
        # unaffected, then reduce each group in one shot.
        child_boxes = np.vstack([child_boxes, np.repeat(child_boxes[-1:], pad, axis=0)])
    grouped = child_boxes.reshape(n_parents, group, 4)
    parents = np.empty((n_parents, 4), dtype=np.float64)
    parents[:, XMIN] = grouped[:, :, XMIN].min(axis=1)
    parents[:, YMIN] = grouped[:, :, YMIN].min(axis=1)
    parents[:, XMAX] = grouped[:, :, XMAX].max(axis=1)
    parents[:, YMAX] = grouped[:, :, YMAX].max(axis=1)
    return parents


class RTree(SpatialIndex):
    """Packed R-tree over an immutable 2-D point database.

    Parameters
    ----------
    points:
        ``(n, 2)`` array-like of coordinates.
    r:
        Points per leaf MBB (the paper's ``r``).  ``ceil(n / r)`` leaf
        MBBs are created.
    fanout:
        Children per internal node.  The paper does not publish its
        fanout; 16 keeps descent arrays small while giving a shallow
        tree, and benchmarks show results are insensitive to it within
        8-64.
    bin_width:
        Width of the pre-sort bins (paper uses unit bins).
    presort:
        Disable to pack points in input order — only useful to
        demonstrate *why* the bin sort matters (ablation benchmark).
    order:
        Precomputed presort permutation (``int64``, length ``n``).
        A session's two trees presort identically, so sharing the
        permutation (see :meth:`repro.engine.store.PointStore.
        binsort_order`) avoids recomputing the lexsort per tree.
        Ignored when ``presort`` is false.
    """

    def __init__(
        self,
        points: np.ndarray,
        r: int = 1,
        *,
        fanout: int = 16,
        bin_width: float = 1.0,
        presort: bool = True,
        order: np.ndarray | None = None,
    ) -> None:
        self.points = as_points_array(points)
        self.r = check_positive_int(r, name="r")
        self.fanout = check_positive_int(fanout, name="fanout")
        if self.fanout < 2:
            raise ValidationError(f"fanout must be >= 2, got {fanout}")
        self.bin_width = float(bin_width)
        n = self.points.shape[0]

        if presort and n:
            if order is not None:
                order = np.asarray(order, dtype=np.int64)
                if order.shape != (n,):
                    raise ValidationError(
                        f"order must have shape ({n},); got {order.shape!r}"
                    )
                self._order = order
            else:
                self._order = binsort_order(self.points, bin_width=self.bin_width)
        else:
            self._order = np.arange(n, dtype=np.int64)
        sorted_pts = self.points[self._order]

        # ``levels[0]`` is the topmost stored level (<= fanout nodes);
        # ``levels[-1]`` is the leaf level with ceil(n / r) boxes.
        levels: list[np.ndarray] = []
        self.n_leaves = (n + self.r - 1) // self.r if n else 0
        if n:
            leaf_boxes = self._build_leaf_boxes(sorted_pts)
            levels.append(leaf_boxes)
            while levels[0].shape[0] > self.fanout:
                levels.insert(0, _pack_level(levels[0], self.fanout))
        # Per-level column arrays are the canonical stored form: descent
        # tests whole columns, and contiguous columns filter faster than
        # row-sliced boxes.
        self._cols = [
            tuple(np.ascontiguousarray(lvl[:, c]) for c in range(4)) for lvl in levels
        ]
        self._level_sizes = [c[0].shape[0] for c in self._cols]
        self.height = len(self._level_sizes)
        # Hoisted strides for the hot query path.
        self._arange_r = np.arange(self.r, dtype=np.int64)
        self._arange_fanout = np.arange(self.fanout, dtype=np.int64)
        # Root-level node ids, built once: every query descent starts
        # from this same array, so reallocating it per query is waste.
        self._root_ids = (
            np.arange(self._level_sizes[0], dtype=np.int64)
            if self._level_sizes
            else np.empty(0, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_leaf_boxes(self, sorted_pts: np.ndarray) -> np.ndarray:
        n = sorted_pts.shape[0]
        n_leaves = self.n_leaves
        pad = n_leaves * self.r - n
        if pad:
            sorted_pts = np.vstack([sorted_pts, np.repeat(sorted_pts[-1:], pad, axis=0)])
        grouped = sorted_pts.reshape(n_leaves, self.r, 2)
        boxes = np.empty((n_leaves, 4), dtype=np.float64)
        boxes[:, XMIN] = grouped[:, :, 0].min(axis=1)
        boxes[:, YMIN] = grouped[:, :, 1].min(axis=1)
        boxes[:, XMAX] = grouped[:, :, 0].max(axis=1)
        boxes[:, YMAX] = grouped[:, :, 1].max(axis=1)
        return boxes

    def _leaf_point_indices(self, leaves: np.ndarray) -> np.ndarray:
        """Map leaf ids to original point indices (the Alg. 2 ``dataLookup``).

        Leaf ``k`` owns sorted slots ``[k*r, min((k+1)*r, n))`` — a
        fixed stride, so the expansion is a broadcasted add plus one
        bounds filter (profiling showed a generic range expander on
        these tiny arrays dominated query time).
        """
        n = self.points.shape[0]
        slots = (leaves[:, None] * self.r + self._arange_r).reshape(-1)
        if slots.size and slots[-1] >= n:  # only the last leaf is short
            slots = slots[slots < n]
        return self._order[slots]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query_candidates(
        self, mbb: np.ndarray, counters: WorkCounters | None = None
    ) -> np.ndarray:
        """Indices of points inside leaf MBBs overlapping the query MBB.

        Implements the ``T.search`` + ``dataLookup`` steps of
        Algorithm 2.  Node-visit counts (every box tested during the
        descent, across all levels) are tallied into
        ``counters.index_nodes_visited``.
        """
        if not self._level_sizes:
            return np.empty(0, dtype=np.int64)
        qxmin, qymin, qxmax, qymax = (
            float(mbb[XMIN]),
            float(mbb[YMIN]),
            float(mbb[XMAX]),
            float(mbb[YMAX]),
        )
        visited = 0
        nodes = self._root_ids
        last = self.height - 1
        for depth in range(self.height):
            visited += nodes.size
            if nodes.size == 0:
                break
            cx0, cy0, cx1, cy1 = self._cols[depth]
            mask = (
                (cx0[nodes] <= qxmax)
                & (cx1[nodes] >= qxmin)
                & (cy0[nodes] <= qymax)
                & (cy1[nodes] >= qymin)
            )
            nodes = nodes[mask]
            if depth < last:
                n_next = self._level_sizes[depth + 1]
                # Children of node k are the fixed-stride range
                # [k*fanout, (k+1)*fanout) clipped to the level size.
                nodes = (nodes[:, None] * self.fanout + self._arange_fanout).reshape(-1)
                if nodes.size and nodes[-1] >= n_next:
                    nodes = nodes[nodes < n_next]
        if counters is not None:
            counters.index_nodes_visited += int(visited)
        if nodes.size == 0:
            return np.empty(0, dtype=np.int64)
        return self._leaf_point_indices(nodes)

    def query_candidates_batch(
        self, mbbs: np.ndarray, counters: WorkCounters | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized-across-queries descent for a block of query MBBs.

        The frontier is a flat ``(query id, node id)`` pair list: one
        interval test per level filters every query's surviving nodes
        at once, and the fixed-stride child expansion is a single
        broadcasted add.  Pairs stay sorted by query id with node ids
        ascending within each query, so each CSR row is elementwise
        identical to the scalar :meth:`query_candidates` result, and
        the per-level pair counts sum to exactly the node visits the
        scalar calls would have charged.
        """
        indptr, indices, visited, _ = self._batch_descend(mbbs, track_visits=False)
        if counters is not None:
            counters.index_nodes_visited += visited
        return indptr, indices

    def query_candidates_batch_visits(
        self, mbbs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch query plus *per-query* node-visit counts; charges nothing.

        Used by the speculative outer-scan prefetch (see
        :meth:`~repro.core.neighbors.NeighborSearcher.prefetch_block`):
        the caller charges each query's exact scalar-equivalent cost
        only when its result is actually consumed.
        """
        indptr, indices, _, visits = self._batch_descend(mbbs, track_visits=True)
        return indptr, indices, visits

    def _batch_descend(
        self, mbbs: np.ndarray, *, track_visits: bool
    ) -> tuple[np.ndarray, np.ndarray, int, np.ndarray | None]:
        mbbs = np.ascontiguousarray(np.asarray(mbbs, dtype=np.float64).reshape(-1, 4))
        m = mbbs.shape[0]
        visits = np.zeros(m, dtype=np.int64) if track_visits else None
        if m == 0 or not self._level_sizes:
            return (*empty_csr(m), 0, visits)
        qx0 = mbbs[:, XMIN]
        qy0 = mbbs[:, YMIN]
        qx1 = mbbs[:, XMAX]
        qy1 = mbbs[:, YMAX]
        n_root = self._root_ids.size
        qid = np.repeat(np.arange(m, dtype=np.int64), n_root)
        nodes = np.tile(self._root_ids, m)
        visited = 0
        last = self.height - 1
        # Per-*level* loop (O(height), not O(points)): each iteration
        # filters the whole frontier with one broadcasted interval test.
        for depth in range(self.height):
            visited += nodes.size
            if nodes.size == 0:
                break
            if track_visits:
                visits += np.bincount(qid, minlength=m)
            cx0, cy0, cx1, cy1 = self._cols[depth]
            mask = (
                (cx0[nodes] <= qx1[qid])
                & (cx1[nodes] >= qx0[qid])
                & (cy0[nodes] <= qy1[qid])
                & (cy1[nodes] >= qy0[qid])
            )
            nodes = nodes[mask]
            qid = qid[mask]
            if depth < last:
                n_next = self._level_sizes[depth + 1]
                nodes = (nodes[:, None] * self.fanout + self._arange_fanout).reshape(-1)
                qid = np.repeat(qid, self.fanout)
                keep = nodes < n_next
                if not keep.all():
                    nodes = nodes[keep]
                    qid = qid[keep]
        if nodes.size == 0:
            return (*empty_csr(m), int(visited), visits)
        n = self.points.shape[0]
        starts = nodes * self.r
        leaf_counts = np.minimum(starts + self.r, n) - starts
        indices = self._order[ranges_to_indices(starts, leaf_counts)]
        per_query = np.bincount(qid, weights=leaf_counts, minlength=m).astype(np.int64)
        indptr = np.zeros(m + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(per_query)
        return indptr, indices, int(visited), visits

    def query_rect(
        self, mbb: np.ndarray, counters: WorkCounters | None = None
    ) -> np.ndarray:
        """Exact rectangle query.

        For ``r = 1`` every leaf MBB is the point itself, so an
        overlapping leaf *is* a contained point and no filter pass is
        needed — this is why Algorithm 3 sweeps cluster MBBs with the
        high-resolution tree.  For ``r > 1`` falls back to candidate
        filtering.
        """
        cand = self.query_candidates(mbb, counters)
        if self.r == 1 or cand.size == 0:
            return cand
        if counters is not None:
            counters.candidates_examined += int(cand.size)
        return cand[mbb_contains_points(mbb, self.points[cand])]

    # ------------------------------------------------------------------
    # introspection (used by tests and the ablation benchmarks)
    # ------------------------------------------------------------------
    @property
    def level_sizes(self) -> list[int]:
        """Number of nodes per level, root level first."""
        return list(self._level_sizes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RTree(n={self.n_points}, r={self.r}, fanout={self.fanout}, "
            f"height={self.height}, leaves={self.n_leaves})"
        )
