"""Epsilon-neighborhood search — Algorithm 2 of the paper.

The search is three steps with observable costs:

1. build the query MBB around the point, augmented by ``eps``;
2. search the index for overlapping MBBs and look up their points
   (``index.query_candidates`` — charges ``index_nodes_visited``);
3. filter candidates by exact Euclidean distance (charges
   ``candidates_examined`` / ``distance_computations``).

The trade the paper's Section IV-A studies is entirely between steps 2
and 3: a coarse index (large ``r``) makes step 2 cheap and step 3
expensive, and step 3 vectorizes while step 2 does not.

:class:`NeighborSearcher` binds ``(points, index, eps, counters)`` once
so DBSCAN's inner loop does no repeated attribute lookups.  Two kernels
are exposed:

* :meth:`NeighborSearcher.search` — one point, one query (Algorithm 2
  as written; the tests' scalar Algorithm 1 oracle runs on it).
* :meth:`NeighborSearcher.search_batch` — a whole block of points in
  one CSR-shaped result, riding the indexes' vectorized
  ``query_candidates_batch`` so per-query Python overhead amortizes
  across the block.  Counter totals are identical to issuing the same
  block through :meth:`search` point by point.

The clustering kernels issue their searches in blocks of
:data:`BATCH_BLOCK` points.
"""

from __future__ import annotations


import numpy as np

from repro.index.base import SpatialIndex
from repro.index.mbb import XMAX, XMIN, YMAX, YMIN, point_query_mbb
from repro.metrics.counters import WorkCounters

__all__ = ["BATCH_BLOCK", "neighbor_search", "NeighborSearcher", "OuterScanPrefetcher"]

#: Block size of the batched epsilon-search engine: frontier waves,
#: boundary discovery and outer-scan prefetch search this many points
#: per :meth:`NeighborSearcher.search_batch` call.  Big enough to
#: amortize per-batch overhead over hundreds of queries, small enough
#: that a block's candidate buffers stay cache-resident.  Labels, core
#: masks and counters do not depend on it.
BATCH_BLOCK = 256


def neighbor_search(
    index: SpatialIndex,
    point_idx: int,
    eps: float,
    counters: WorkCounters | None = None,
) -> np.ndarray:
    """Return indices of all points within ``eps`` of point ``point_idx``.

    The result always contains ``point_idx`` itself (``dist(p, p) = 0 <=
    eps``), matching the paper's ``N_eps(p)`` definition, so ``minpts``
    thresholds count the point itself.
    """
    searcher = NeighborSearcher(index, eps, counters)
    return searcher.search(point_idx)


class NeighborSearcher:
    """Reusable epsilon-search kernel bound to one index and radius.

    Thread-safety: instances hold no mutable state besides the caller's
    counters; one searcher per
    worker thread/process is the intended usage (each worker owns its
    counters).
    """

    __slots__ = ("index", "points", "eps", "_eps2", "counters", "_x", "_y")

    def __init__(
        self,
        index: SpatialIndex,
        eps: float,
        counters: WorkCounters | None = None,
    ) -> None:
        self.index = index
        self.points = index.points
        self.eps = float(eps)
        self._eps2 = self.eps * self.eps
        self.counters = counters if counters is not None else WorkCounters()
        # Column views: contiguous per-axis access beats fancy-indexing
        # rows in the filter kernel.
        self._x = np.ascontiguousarray(self.points[:, 0])
        self._y = np.ascontiguousarray(self.points[:, 1])

    def search(self, point_idx: int) -> np.ndarray:
        """Epsilon-neighborhood of an indexed point (Algorithm 2)."""
        x = self._x[point_idx]
        y = self._y[point_idx]
        return self.search_xy(float(x), float(y))

    def search_xy(self, x: float, y: float) -> np.ndarray:
        """Epsilon-neighborhood of an arbitrary location.

        :meth:`search` is this at an indexed point's coordinates.
        """
        c = self.counters
        mbb = point_query_mbb(x, y, self.eps)
        cand = self.index.query_candidates(mbb, c)
        c.neighbor_searches += 1
        m = int(cand.size)
        c.candidates_examined += m
        c.distance_computations += m
        if m == 0:
            return cand
        dx = self._x[cand] - x
        dy = self._y[cand] - y
        mask = dx * dx + dy * dy <= self._eps2
        neigh = cand[mask]
        c.neighbors_found += int(neigh.size)
        return neigh

    # ------------------------------------------------------------------
    # batched kernel
    # ------------------------------------------------------------------
    def search_batch(self, point_idxs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Epsilon-neighborhoods of a block of indexed points, CSR-encoded.

        Parameters
        ----------
        point_idxs:
            int64 array of point indices (need not be unique or sorted).

        Returns
        -------
        (indptr, indices)
            Query ``i``'s neighborhood is
            ``indices[indptr[i]:indptr[i + 1]]``, elementwise equal to
            ``search(point_idxs[i])``.  Counter totals match the scalar
            calls exactly.
        """
        idxs = np.asarray(point_idxs, dtype=np.int64).reshape(-1)
        m = idxs.size
        if m == 0:
            return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
        c = self.counters
        c.neighbor_searches += m
        indptr, neigh = self._filter_block(idxs)
        c.neighbors_found += int(neigh.size)
        return indptr, neigh

    def _query_mbbs(self, idxs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        xs = self._x[idxs]
        ys = self._y[idxs]
        mbbs = np.empty((idxs.size, 4), dtype=np.float64)
        mbbs[:, XMIN] = xs - self.eps
        mbbs[:, YMIN] = ys - self.eps
        mbbs[:, XMAX] = xs + self.eps
        mbbs[:, YMAX] = ys + self.eps
        return mbbs, xs, ys

    def _distance_filter(
        self,
        cptr: np.ndarray,
        cand: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        m: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        qid = np.repeat(np.arange(m, dtype=np.int64), np.diff(cptr))
        dx = self._x[cand] - xs[qid]
        dy = self._y[cand] - ys[qid]
        mask = dx * dx + dy * dy <= self._eps2
        neigh = cand[mask]
        per_query = np.bincount(qid[mask], minlength=m)
        indptr = np.zeros(m + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(per_query)
        return indptr, neigh

    def _filter_block(self, idxs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch query + vectorized distance filter."""
        c = self.counters
        m = idxs.size
        mbbs, xs, ys = self._query_mbbs(idxs)
        cptr, cand = self.index.query_candidates_batch(mbbs, c)
        t = int(cand.size)
        c.candidates_examined += t
        c.distance_computations += t
        if t == 0:
            return cptr, cand
        return self._distance_filter(cptr, cand, xs, ys, m)

    def filter_block_visits(
        self, idxs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batch search that charges NOTHING, with per-query cost attribution.

        Returns ``(indptr, neigh, visits, cands)`` where ``visits[i]`` /
        ``cands[i]`` are exactly what a scalar :meth:`search` of
        ``idxs[i]`` would add to ``index_nodes_visited`` /
        ``candidates_examined`` (and ``distance_computations``).  The
        speculative outer-scan prefetcher charges these per row on
        consumption; rows that are never consumed charge nothing —
        matching the scalar machine, which never searches those points.
        """
        m = idxs.size
        mbbs, xs, ys = self._query_mbbs(idxs)
        cptr, cand, visits = self.index.query_candidates_batch_visits(mbbs)
        cands = np.diff(cptr)
        if cand.size == 0:
            return cptr, cand, visits, cands
        indptr, neigh = self._distance_filter(cptr, cand, xs, ys, m)
        return indptr, neigh, visits, cands


class OuterScanPrefetcher:
    """Speculative block prefetch for DBSCAN's outer point scan.

    The Algorithm 1 outer loop searches exactly the points that are
    still unvisited when the scan reaches them — a data-dependent set,
    because each founded cluster's expansion visits points ahead of the
    scan.  That dependency forced the outer scan to stay scalar while
    everything else batched; it is also where half the remaining wall
    time lives on the benchmark workloads.

    This prefetcher restores batching *without* changing the abstract
    machine: it speculatively searches the next :data:`BATCH_BLOCK`
    currently unvisited points in one uncharged batch
    (:meth:`NeighborSearcher.filter_block_visits`), then, as the scan
    consumes each point, charges that row's exact scalar-equivalent
    cost (per-query node visits, candidates, distances).  A prefetched
    row is a pure function of ``(points, eps)``, so it never goes stale;
    rows for points that an expansion visits first are simply dropped,
    uncharged — the scalar machine never searched them either.  Labels,
    core masks and work counters are therefore byte-identical to the
    scalar scan; the only side effect of a wasted row is wall-clock
    time, which the block amortization wins back many times over.
    """

    __slots__ = ("searcher", "visited", "_pending")

    def __init__(self, searcher: NeighborSearcher, visited: np.ndarray) -> None:
        self.searcher = searcher
        self.visited = visited
        self._pending: dict[int, tuple[np.ndarray, int, int]] = {}

    def take(self, p: int) -> np.ndarray:
        """Neighborhood of scan point ``p``; charges like ``search(p)``.

        ``p`` must be the current outer-scan point (already flagged
        visited by the caller, exactly like the scalar loop).
        """
        entry = self._pending.pop(p, None)
        if entry is None:
            self._refill(p)
            entry = self._pending.pop(p)
        row, visits, cands = entry
        c = self.searcher.counters
        c.neighbor_searches += 1
        c.index_nodes_visited += visits
        c.candidates_examined += cands
        c.distance_computations += cands
        c.neighbors_found += int(row.size)
        return row

    def _refill(self, p: int) -> None:
        # Everything still pending is behind the scan point and was
        # claimed by an expansion: wasted speculation, dropped uncharged.
        self._pending.clear()
        # How far ahead to look for unvisited points: wide enough to fill
        # a block in sparse regions, narrow enough that the bitmap scan
        # stays cheap.
        window = max(1024, 64 * BATCH_BLOCK)
        ahead = p + 1 + np.flatnonzero(~self.visited[p + 1 : p + 1 + window])
        block = np.empty(min(BATCH_BLOCK, 1 + ahead.size), dtype=np.int64)
        block[0] = p
        block[1:] = ahead[: block.size - 1]
        ptr, flat, visits, cands = self.searcher.filter_block_visits(block)
        pending = self._pending
        for k in range(block.size):
            pending[int(block[k])] = (
                flat[ptr[k] : ptr[k + 1]],
                int(visits[k]),
                int(cands[k]),
            )
