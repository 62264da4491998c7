"""VariantDBSCAN — Algorithms 3 and 4 of the paper.

Clusters one variant ``v_i`` by *reusing* the completed result of a
variant ``v_j`` that satisfies the inclusion criteria
(``v_i.eps >= v_j.eps`` and ``v_i.minpts <= v_j.minpts``):

1. Copy each selected old cluster wholesale (no epsilon searches on its
   interior) — Algorithm 3 line 9.
2. Find the points that can *grow* the cluster with a single
   high-resolution sweep of the cluster's epsilon-augmented MBB
   followed by epsilon searches only on the points *outside* the
   cluster — lines 10-16.
3. Expand from the discovered boundary points with
   :func:`expand_cluster` (Algorithm 4), which records clusters
   *destroyed* by absorption so they are skipped as seeds.
4. Cluster whatever is left from scratch with plain DBSCAN — line 18.

Two index resolutions are used exactly as in the paper: ``t_high``
(``r = 1``) answers the big cluster-MBB rectangle query without
candidate filtering, while ``t_low`` (large ``r``) answers the many
small epsilon searches cheaply.

Caveat inherited from the approach: ``core_mask`` of a reused run is
*conservative* for interior reused points — old core points are
guaranteed still core (the inclusion criteria only relax density), but
old border points that would newly qualify as core are not re-examined
because the whole point of reuse is to skip those searches.
"""

from __future__ import annotations


import numpy as np

from repro.core.dbscan import DEFAULT_BATCH_SIZE, dbscan, dbscan_into, expand_frontier
from repro.core.neighbors import NeighborSearcher
from repro.core.result import NOISE, ClusteringResult
from repro.core.reuse import CLUS_DENSITY, ReusePolicy
from repro.core.variants import Variant
from repro.index.mbb import augment_mbb, mbb_of_points
from repro.index.rtree import RTree
from repro.metrics.counters import WorkCounters
from repro.util.errors import ReuseCriteriaError, ValidationError
from repro.util.tracing import Tracer, resolve_tracer
from repro.util.validation import as_points_array

__all__ = ["variant_dbscan", "expand_cluster", "DEFAULT_LOW_RES_R"]

#: Default points-per-MBB for the low-resolution epsilon-search tree.
#: The paper finds 70 <= r <= 110 consistently good (Section V-C) and
#: uses r = 70 for the reuse study (Figure 5).
DEFAULT_LOW_RES_R = 70


def expand_cluster(
    searcher: NeighborSearcher,
    minpts: int,
    grow_points: np.ndarray,
    *,
    labels: np.ndarray,
    core_mask: np.ndarray,
    visited: np.ndarray,
    in_seeds: np.ndarray,
    old_labels: np.ndarray,
    destroyed: set[int],
    cid: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> None:
    """Algorithm 4: grow cluster ``cid`` outward from ``grow_points``.

    ``grow_points`` are the boundary members discovered by the MBB
    sweep (already labeled ``cid``); standard DBSCAN frontier expansion
    proceeds from them — in blocks of ``batch_size`` through the
    batched epsilon-search engine, or one point at a time when
    ``batch_size <= 1`` (identical labels, cores, and counters either
    way).  Whenever a previously *unclustered* point is absorbed, the
    old cluster it belonged to (``old_labels``) is added to
    ``destroyed`` — that cluster's identity no longer survives into
    this variant, so it must not be used as a reuse seed later
    (Algorithm 4 lines 10-11).

    Points already claimed by another cluster of *this* run are never
    re-assigned (the ``clusterSet`` membership test of line 8).
    """
    in_seeds[grow_points] = True
    if batch_size > 1:
        expand_frontier(
            searcher,
            minpts,
            grow_points,
            labels=labels,
            core_mask=core_mask,
            visited=visited,
            in_seeds=in_seeds,
            cid=cid,
            batch_size=batch_size,
            old_labels=old_labels,
            destroyed=destroyed,
        )
        return
    seeds: list[int] = [int(i) for i in grow_points]
    k = 0
    while k < len(seeds):
        q = seeds[k]
        k += 1
        if not visited[q]:
            visited[q] = True
            nq = searcher.search(q)
            if nq.size >= minpts:
                core_mask[q] = True
                fresh = nq[~in_seeds[nq]]
                if fresh.size:
                    in_seeds[fresh] = True
                    seeds.extend(fresh.tolist())
        if labels[q] == NOISE:
            labels[q] = cid
            old = int(old_labels[q])
            if old >= 0:
                destroyed.add(old)


def variant_dbscan(
    points: np.ndarray,
    variant: Variant,
    previous: ClusteringResult | None = None,
    *,
    t_high: RTree | None = None,
    t_low: RTree | None = None,
    reuse_policy: ReusePolicy = CLUS_DENSITY,
    counters: WorkCounters | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    tracer: Tracer | None = None,
) -> ClusteringResult:
    """Cluster ``points`` under ``variant``, reusing ``previous`` if given.

    Parameters
    ----------
    points:
        ``(n, 2)`` database.
    variant:
        Target parameters ``(eps, minpts)``.
    previous:
        A completed :class:`ClusteringResult` over the *same* database
        whose parameters satisfy the inclusion criteria; ``None``
        clusters from scratch (Algorithm 3 line 19) using ``t_low``.
    t_high, t_low:
        The two shared R-trees (``r = 1`` and large ``r``).  Built on
        demand when omitted; executors build them once per dataset and
        pass them to every variant.
    reuse_policy:
        Cluster-seed prioritisation (Section IV-C); default CLUSDENSITY.
    counters:
        Work-counter sink.
    batch_size:
        Block size for the batched epsilon-search engine (boundary
        discovery and frontier expansion); ``<= 1`` selects the scalar
        reference loops.  Results and counters are identical.
    tracer:
        Span/phase collector; ``None`` uses the active tracer
        (disabled by default).  When enabled, a phase clock partitions
        the run into ``setup`` / ``seed_order`` / ``reuse_copy`` /
        ``mbb_sweep`` / ``boundary_search`` / ``expand`` /
        ``outer_scan`` phases (the last two shared with the remainder
        DBSCAN pass).

    Raises
    ------
    ReuseCriteriaError
        If ``previous`` does not satisfy the inclusion criteria for
        ``variant`` or was computed over a different database size.
    """
    points = as_points_array(points)
    n = points.shape[0]
    if counters is None:
        counters = WorkCounters()
    if t_low is None:
        t_low = RTree(points, r=DEFAULT_LOW_RES_R)

    if previous is None:
        return dbscan(
            points,
            variant.eps,
            variant.minpts,
            index=t_low,
            counters=counters,
            batch_size=batch_size,
            tracer=tracer,
        )

    if previous.variant is None:
        raise ReuseCriteriaError("previous result has no variant attached")
    if not variant.can_reuse(previous.variant):
        raise ReuseCriteriaError(
            f"variant {variant} may not reuse {previous.variant}: inclusion "
            "criteria require eps >= and minpts <= the source's"
        )
    if previous.n_points != n:
        raise ValidationError(
            f"previous result covers {previous.n_points} points, database has {n}"
        )
    if t_high is None:
        t_high = RTree(points, r=1)

    phases = resolve_tracer(tracer).phase_clock(variant=str(variant))
    t0 = phases.switch("setup")
    labels = np.full(n, NOISE, dtype=np.int64)
    core_mask = np.zeros(n, dtype=bool)
    visited = np.zeros(n, dtype=bool)
    in_seeds = np.zeros(n, dtype=bool)
    destroyed: set[int] = set()
    old_labels = previous.labels
    members = previous.cluster_members()
    searcher = NeighborSearcher(t_low, variant.eps, counters)

    phases.switch("seed_order")
    seed_list = reuse_policy.get_seed_list(previous, points, variant.eps)
    points_reused = 0
    cid = 0
    for j_raw in seed_list:
        j = int(j_raw)
        if j in destroyed:
            continue
        phases.switch("reuse_copy")
        c_idx = members[j]
        # Copy the old cluster wholesale: no searches on its interior.
        labels[c_idx] = cid
        visited[c_idx] = True
        # Old core points are guaranteed core under the relaxed params.
        core_mask[c_idx] = previous.core_mask[c_idx]
        points_reused += int(c_idx.size)

        # Boundary discovery (Algorithm 3 lines 10-16).
        phases.switch("mbb_sweep")
        sweep_mbb = augment_mbb(mbb_of_points(points[c_idx]), variant.eps)
        counters.cluster_mbb_sweeps += 1
        cand = t_high.query_rect(sweep_mbb, counters)
        outside = cand[labels[cand] != cid]
        boundary_hits: list[np.ndarray] = []
        phases.switch("boundary_search")
        if batch_size > 1:
            # Batched boundary discovery: the outside points are known
            # up front, so whole blocks go through search_batch and the
            # "reaches the cluster" test is one vectorized label
            # comparison per block.
            counters.outside_points_searched += int(outside.size)
            for s in range(0, outside.size, batch_size):
                _, neigh = searcher.search_batch(outside[s : s + batch_size])
                inside = neigh[labels[neigh] == cid]
                if inside.size:
                    boundary_hits.append(inside)
        else:
            for p in outside:
                counters.outside_points_searched += 1
                neigh = searcher.search(int(p))
                if neigh.size:
                    inside = neigh[labels[neigh] == cid]
                    if inside.size:
                        boundary_hits.append(inside)
        if boundary_hits:
            grow_points = np.unique(np.concatenate(boundary_hits))
        else:
            grow_points = np.empty(0, dtype=np.int64)
        visited[grow_points] = False
        phases.switch("expand")
        expand_cluster(
            searcher,
            variant.minpts,
            grow_points,
            labels=labels,
            core_mask=core_mask,
            visited=visited,
            in_seeds=in_seeds,
            old_labels=old_labels,
            destroyed=destroyed,
            cid=cid,
            batch_size=batch_size,
        )
        cid += 1

    counters.points_reused += points_reused

    # Cluster the remainder from scratch (Algorithm 3 line 18); shares
    # this run's phase clock, so its scan/expansion time lands in the
    # same ``outer_scan`` / ``expand`` buckets.
    dbscan_into(
        t_low,
        variant.eps,
        variant.minpts,
        labels=labels,
        core_mask=core_mask,
        visited=visited,
        counters=counters,
        next_cluster_id=cid,
        batch_size=batch_size,
        phases=phases,
    )
    elapsed = phases.finish() - t0
    return ClusteringResult(
        labels,
        core_mask,
        variant=variant,
        counters=counters,
        points_reused=points_reused,
        reused_from=previous.variant,
        elapsed=elapsed,
    )
