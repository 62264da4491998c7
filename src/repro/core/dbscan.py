"""DBSCAN — Algorithm 1 of the paper (Ester et al., KDD 1996).

This is the from-scratch clustering path: it is both the reference
implementation the paper compares against (sequential, ``r = 1``) and
the fallback inside VariantDBSCAN when no completed variant can be
reused (Algorithm 3 line 19).

Implementation notes
--------------------
* Frontier expansion pops the seed frontier in *blocks*: each wave of
  unvisited seeds goes through one
  :meth:`~repro.core.neighbors.NeighborSearcher.search_batch` call, so
  the per-query Python overhead of the scalar loop amortizes across
  the block while the distance filter stays one vectorized kernel.
  Blocks hold :data:`~repro.core.neighbors.BATCH_BLOCK` points.  The
  one-point-at-a-time loop of the paper survives only as the test
  suite's oracle.
* The batched expansion is *exactly* equivalent to the scalar loop —
  identical labels, core mask, and work-counter totals — because a
  point enters the frontier at most once (the ``in_seeds`` bitmap),
  every frontier point is searched iff it was unvisited when its
  cluster's expansion began, and label/core decisions depend only on
  each point's own neighborhood, never on intra-frontier order.
* A point that fails the core test is *tentatively* noise (label -1);
  it is promoted to a border point later if some core point reaches it
  — exactly the two-phase behaviour of the original algorithm.
* The outer scan's searches are batched too, even though which points
  need one depends on the clusters discovered before them: an
  :class:`~repro.core.neighbors.OuterScanPrefetcher` speculatively
  searches blocks of upcoming unvisited points with *uncharged*
  queries and charges each row's exact scalar-equivalent cost only
  when the scan actually consumes it, so counter totals still match
  the scalar machine exactly (see DESIGN.md substitutions).
* When a tracer is active (:mod:`repro.obs`), a
  :class:`~repro.obs.span.PhaseClock` partitions the run into
  ``outer_scan`` (scanning for founders, including their searches) and
  ``expand`` (frontier expansion of founded clusters) phases, switched
  at cluster granularity.  Disabled tracing costs one clock read per
  founded cluster: the result's ``elapsed`` is taken from the same
  stamps, so the phase totals sum to it exactly.
"""

from __future__ import annotations


import numpy as np

from repro.core import neighbors
from repro.core.cellgraph import cellgraph_dbscan
from repro.core.neighbors import NeighborSearcher, OuterScanPrefetcher
from repro.core.result import NOISE, ClusteringResult
from repro.core.variants import Variant
from repro.index.base import SpatialIndex
from repro.index.cellgraph import CellGraphIndex
from repro.index.rtree import RTree
from repro.metrics.counters import WorkCounters
from repro.util.tracing import PhaseClock, Tracer, resolve_tracer
from repro.util.validation import as_points_array, check_eps, check_minpts

__all__ = ["dbscan", "dbscan_into", "expand_frontier"]


def dbscan(
    points: np.ndarray,
    eps: float,
    minpts: int,
    *,
    index: SpatialIndex | None = None,
    counters: WorkCounters | None = None,
    tracer: Tracer | None = None,
) -> ClusteringResult:
    """Cluster ``points`` with DBSCAN.

    Parameters
    ----------
    points:
        ``(n, 2)`` array-like of coordinates.
    eps:
        Neighborhood radius.
    minpts:
        Core-point threshold; the epsilon-neighborhood includes the
        point itself.
    index:
        Spatial index to search with.  Defaults to an exact R-tree
        (``r = 1``) built over ``points`` — the paper's reference
        configuration.  Pass an ``RTree`` with large ``r`` for the
        optimized-index configuration.
    counters:
        Work-counter sink; a fresh one is created when omitted.
    tracer:
        Span/phase collector; ``None`` uses the active tracer
        (disabled by default — see :mod:`repro.obs`).

    Returns
    -------
    ClusteringResult
        Labels (noise = -1, cluster ids in generation order), core
        flags, and the work counters.
    """
    points = as_points_array(points)
    eps = check_eps(eps)
    minpts = check_minpts(minpts)
    if index is None:
        index = RTree(points, r=1)
    if isinstance(index, CellGraphIndex) and index.eps == eps:
        # The eps-scaled grid carries the whole-cell machinery: take the
        # cell-graph kernel (byte-identical labels and core mask, see
        # repro.core.cellgraph) instead of per-point BFS.  At any other
        # radius the index still answers exactly as a uniform grid
        # through the generic path below.
        return cellgraph_dbscan(
            points,
            eps,
            minpts,
            index=index,
            counters=counters,
            tracer=tracer,
        )
    if counters is None:
        counters = WorkCounters()

    variant = Variant(eps, minpts)
    n = points.shape[0]
    labels = np.full(n, NOISE, dtype=np.int64)
    core_mask = np.zeros(n, dtype=bool)
    visited = np.zeros(n, dtype=bool)

    phases = resolve_tracer(tracer).phase_clock(variant=str(variant))
    # Charges searcher/prefetcher construction inside dbscan_into to a
    # visible phase instead of leaking it from the wall-time partition.
    t0 = phases.switch("setup")
    n_clusters = dbscan_into(
        index,
        eps,
        minpts,
        labels=labels,
        core_mask=core_mask,
        visited=visited,
        counters=counters,
        next_cluster_id=0,
        phases=phases,
    )
    elapsed = phases.finish() - t0
    del n_clusters  # ids are already dense; ClusteringResult re-derives the count
    return ClusteringResult(
        labels,
        core_mask,
        variant=variant,
        counters=counters,
        elapsed=elapsed,
    )


def expand_frontier(
    searcher: NeighborSearcher,
    minpts: int,
    frontier: np.ndarray,
    *,
    labels: np.ndarray,
    core_mask: np.ndarray,
    visited: np.ndarray,
    in_seeds: np.ndarray,
    cid: int,
    old_labels: np.ndarray | None = None,
    destroyed: set[int] | None = None,
) -> None:
    """Breadth-first batched frontier expansion for cluster ``cid``.

    Every point of ``frontier`` must already be flagged in
    ``in_seeds`` (so it can never re-enter), and all frontier points
    across generations are distinct.  Each wave searches its unvisited
    members in blocks of :data:`~repro.core.neighbors.BATCH_BLOCK`;
    neighborhoods of the wave's core points, minus anything already
    seeded, form the next wave.

    When ``old_labels``/``destroyed`` are given (the VariantDBSCAN
    Algorithm 4 case), absorbing a previously unclustered point marks
    its old cluster as destroyed, exactly like the scalar loop.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    step = neighbors.BATCH_BLOCK
    while frontier.size:
        next_waves: list[np.ndarray] = []
        for s in range(0, frontier.size, step):
            block = frontier[s : s + step]
            unvisited = block[~visited[block]]
            if unvisited.size:
                visited[unvisited] = True
                indptr, neigh = searcher.search_batch(unvisited)
                counts = np.diff(indptr)
                core_rows = counts >= minpts
                if core_rows.any():
                    core_mask[unvisited[core_rows]] = True
                    cand = neigh[np.repeat(core_rows, counts)]
                    fresh = cand[~in_seeds[cand]]
                    if fresh.size:
                        fresh = np.unique(fresh)
                        in_seeds[fresh] = True
                        next_waves.append(fresh)
            newly = block[labels[block] == NOISE]
            if newly.size:
                labels[newly] = cid
                if old_labels is not None:
                    olds = old_labels[newly]
                    olds = olds[olds >= 0]
                    if olds.size:
                        destroyed.update(int(o) for o in np.unique(olds))
        frontier = (
            np.concatenate(next_waves) if next_waves else np.empty(0, dtype=np.int64)
        )


def dbscan_into(
    index: SpatialIndex,
    eps: float,
    minpts: int,
    *,
    labels: np.ndarray,
    core_mask: np.ndarray,
    visited: np.ndarray,
    counters: WorkCounters,
    next_cluster_id: int,
    phases: PhaseClock | None = None,
) -> int:
    """Run the Algorithm 1 main loop *into* caller-owned state arrays.

    This is the shared engine behind both plain :func:`dbscan` and the
    "cluster remainder of points" pass of VariantDBSCAN (Algorithm 3
    line 18): the caller may pre-mark points as visited/labeled (the
    reused clusters) and this loop only processes what is left.  Points
    already holding a label >= 0 are never re-assigned, so reused
    clusters keep their members.

    ``phases`` is a caller-owned phase clock (never finished here):
    the loop runs under ``outer_scan`` and switches to ``expand`` for
    each founded cluster's frontier expansion.

    Returns the next unused cluster id.
    """
    if phases is None:
        phases = resolve_tracer(None).phase_clock()
    searcher = NeighborSearcher(index, eps, counters)
    n = labels.shape[0]
    in_seeds = np.zeros(n, dtype=bool)
    cid = next_cluster_id
    prefetch = OuterScanPrefetcher(searcher, visited)

    phases.switch("outer_scan")
    for p in range(n):
        if visited[p]:
            continue
        visited[p] = True
        neigh = prefetch.take(p)
        if neigh.size < minpts:
            continue  # tentative noise; may become a border point later
        # p founds a new cluster
        labels[p] = cid
        core_mask[p] = True
        in_seeds[neigh] = True
        in_seeds[p] = True
        phases.switch("expand")
        expand_frontier(
            searcher,
            minpts,
            neigh[neigh != p],
            labels=labels,
            core_mask=core_mask,
            visited=visited,
            in_seeds=in_seeds,
            cid=cid,
        )
        phases.switch("outer_scan")
        cid += 1
    return cid

