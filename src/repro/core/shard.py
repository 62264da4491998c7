"""Spatial sharding: stripe regions, eps-width halos, exact label merge.

The paper parallelizes across *variants*; this module adds the
orthogonal axis — dislib-style spatial data parallelism *within* one
variant — while keeping the output byte-identical to the serial
kernels.  The database is cut into ``k`` stripes along its wider axis
at equal-count coordinate cuts; each region owns the half-open stripe
and additionally sees an ``eps``-width **halo** on both sides (the
*slab*), so every owned point's full epsilon-ball lies inside the slab.

Exactness argument (why the merged labels equal the serial kernel's,
byte for byte, not merely up to relabeling):

* **Owned core flags are exact.**  An owned point's epsilon-ball is
  contained in its slab, so the shard-local neighbor count equals the
  global one.
* **Halo core flags only under-approximate.**  A halo point's ball may
  be truncated by the slab, so "locally core" implies "globally core"
  (never the reverse).  Every edge a shard-local clustering merges
  therefore connects two *globally* core points within ``eps`` — a
  globally valid core-graph edge — so shard-local components refine the
  global ones.
* **The band merge recovers every cross-shard edge.**  A core pair
  ``(p, q)`` within ``eps`` owned by different regions straddles at
  least one cut ``c`` between them, and both coordinates lie within
  ``eps`` of ``c``.  Re-searching the core points of each cut's
  ``+-eps`` band and unioning the shard-local components of every
  in-band pair therefore reproduces the global core graph's components
  exactly.
* **Canonical ids.**  Components are numbered by the rank of their
  minimum core point index — the order the serial BFS founds clusters —
  and a border point takes the minimum cluster id among its core
  neighbors, the label the first-arriving BFS expansion would assign.
  An owned non-core point's neighborhood is fully inside its slab and
  smaller than ``minpts``, so each shard ships a tiny candidate pair
  list and the parent resolves borders against the exact global core
  mask.

The pieces are deliberately decomposed (plan / cluster one shard /
merge) so the ``hybrid`` executor (:mod:`repro.exec.graph`) can run
:func:`cluster_shard` in workers over a shared-memory store, while the
in-process composition :func:`sharded_dbscan` drives the same code for
tests and single-process callers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.cellgraph import flatten_parents, union_edges
from repro.core.dbscan import dbscan
from repro.core.neighbors import NeighborSearcher
from repro.core.result import NOISE, ClusteringResult
from repro.core.variants import Variant
from repro.index.base import SpatialIndex
from repro.index.cellgraph import CellGraphIndex
from repro.index.grid import UniformGridIndex
from repro.metrics.counters import WorkCounters
from repro.util.timing import Stopwatch
from repro.util.tracing import Tracer, resolve_tracer
from repro.util.validation import as_points_array, check_eps, check_minpts

__all__ = [
    "ShardPiece",
    "ShardPlan",
    "cluster_shard",
    "merge_shards",
    "plan_shards",
    "resolve_n_regions",
    "shard_members",
    "sharded_dbscan",
]

#: Span emitted around one shard's clustering (region/owned/slab sizes).
SPAN_SHARD = "shard"
#: Span emitted around the parent-side cross-border merge.
SPAN_SHARD_MERGE = "shard_merge"


@dataclass(frozen=True)
class ShardPlan:
    """Geometry of one spatial partition (picklable, eps-parametric).

    Attributes
    ----------
    n_points:
        Size of the database the cuts were planned over.
    axis:
        Split axis: 0 stripes along x, 1 along y (the wider spread).
    cuts:
        Interior stripe boundaries, non-decreasing,
        ``len(cuts) == n_regions - 1``.  Region ``r`` owns the
        half-open interval ``[cuts[r-1], cuts[r])`` (the first region
        is unbounded below, the last unbounded above and closed), so
        every point is owned by exactly one region even when duplicate
        coordinates make some cuts coincide (those regions are simply
        empty).
    eps:
        Halo half-width; a region's slab is its owned interval padded
        by ``eps`` on both sides.  The cuts are eps-independent, so one
        plan serves a whole variant batch via :meth:`with_eps`.
    """

    n_points: int
    axis: int
    cuts: tuple[float, ...]
    eps: float

    @property
    def n_regions(self) -> int:
        return len(self.cuts) + 1

    def with_eps(self, eps: float) -> ShardPlan:
        """The same cuts with a different halo width (new object)."""
        return replace(self, eps=check_eps(eps))

    def owned_interval(self, region: int) -> tuple[float, float]:
        """The half-open ``[lo, hi)`` coordinate interval region owns."""
        if not 0 <= region < self.n_regions:
            raise ValueError(
                f"region must be in [0, {self.n_regions}), got {region}"
            )
        lo = self.cuts[region - 1] if region > 0 else -np.inf
        hi = self.cuts[region] if region < len(self.cuts) else np.inf
        return lo, hi


@dataclass(frozen=True)
class ShardPiece:
    """One region's contribution to the merged clustering.

    All indices are **global** (positions in the full database), so
    pieces assemble in the parent without any per-shard coordinate
    translation.

    Attributes
    ----------
    region:
        Which region produced this piece.
    owned_idx:
        Global indices of the points this region owns (ascending).
    core:
        Exact global core flags, aligned with ``owned_idx``.
    local_labels:
        Shard-local cluster id per owned point (aligned with
        ``owned_idx``); only the core rows are authoritative — an owned
        non-core point is resolved by the parent from the border pairs.
    n_local:
        Number of shard-local cluster ids (the merge offsets each
        region's id space by the regions before it).
    border_src / border_dst:
        Candidate border adjacency: for every owned **non-core** point
        ``border_src[i]``, ``border_dst[i]`` is one of its epsilon
        neighbors in the slab (== its full global neighborhood).  Each
        source repeats fewer than ``minpts`` times by definition of
        non-core, so the lists stay small.
    counters:
        Work performed clustering this shard.
    """

    region: int
    owned_idx: np.ndarray
    core: np.ndarray
    local_labels: np.ndarray
    n_local: int
    border_src: np.ndarray
    border_dst: np.ndarray
    counters: WorkCounters


def resolve_n_regions(regions: int | None, *, default: int = 1) -> int:
    """How many regions to cut: ``regions``, else ``default`` (the lane count)."""
    if regions is not None:
        k = int(regions)
        if k < 1:
            raise ValueError(f"regions must be >= 1, got {regions}")
        return k
    return max(1, int(default))


def plan_shards(points: np.ndarray, eps: float, n_regions: int) -> ShardPlan:
    """Cut the database into ``n_regions`` equal-count stripes.

    The split axis is the one with the wider coordinate spread (fewer
    points land in the halos); cut coordinates are the sorted axis
    values at the equal-count boundary positions, so region populations
    differ by at most the tie mass at a cut.  An empty database plans a
    single empty region regardless of the requested count.
    """
    points = as_points_array(points)
    eps = check_eps(eps)
    k = int(n_regions)
    if k < 1:
        raise ValueError(f"n_regions must be >= 1, got {n_regions}")
    n = points.shape[0]
    if n == 0 or k == 1:
        return ShardPlan(n_points=n, axis=0, cuts=(), eps=eps)
    spread = points.max(axis=0) - points.min(axis=0)
    axis = 0 if float(spread[0]) >= float(spread[1]) else 1
    coord = points[:, axis]
    order = np.argsort(coord, kind="stable")
    positions = (np.arange(1, k, dtype=np.int64) * n) // k
    cuts = tuple(float(c) for c in coord[order[positions]])
    return ShardPlan(n_points=n, axis=axis, cuts=cuts, eps=eps)


def shard_members(
    points: np.ndarray, plan: ShardPlan, region: int
) -> tuple[np.ndarray, np.ndarray]:
    """Global indices of a region's owned points and its halo-padded slab.

    Both arrays are ascending.  The slab is the owned interval padded
    by ``plan.eps`` on each side with *closed* bounds — a superset of
    every owned point's epsilon-ball footprint along the axis, which is
    all the exactness argument needs (extra halo points only add valid
    work).
    """
    coord = points[:, plan.axis]
    lo, hi = plan.owned_interval(region)
    owned = (coord >= lo) & (coord < hi)
    if region == plan.n_regions - 1:
        owned = coord >= lo  # the last stripe is closed above
    slab = (coord >= lo - plan.eps) & (coord <= hi + plan.eps)
    return np.flatnonzero(owned), np.flatnonzero(slab)


def _shard_index(sub_points: np.ndarray, eps: float, kernel: str) -> SpatialIndex:
    """The per-slab index matching the requested clustering kernel."""
    if kernel == "cellgraph":
        return CellGraphIndex(sub_points, eps)
    if kernel == "bfs":
        return UniformGridIndex(sub_points, cell_width=eps)
    raise ValueError(f"unknown kernel {kernel!r}; expected 'bfs' or 'cellgraph'")


def cluster_shard(
    points: np.ndarray,
    plan: ShardPlan,
    region: int,
    minpts: int,
    *,
    kernel: str = "bfs",
    counters: WorkCounters | None = None,
    tracer: Tracer | None = None,
) -> ShardPiece:
    """Cluster one region's slab and extract its owned-point piece.

    Runs the requested serial kernel over the slab sub-array (``bfs``
    over a uniform eps-grid, ``cellgraph`` over the eps-scaled cell
    grid), then keeps only what the merge needs: exact core flags and
    local component ids for the owned points, plus the bounded
    non-core adjacency pairs for border resolution.
    """
    points = as_points_array(points)
    minpts = check_minpts(minpts)
    if counters is None:
        counters = WorkCounters()
    tr = resolve_tracer(tracer)
    owned_idx, slab_idx = shard_members(points, plan, region)
    with tr.span(
        SPAN_SHARD,
        region=region,
        owned=int(owned_idx.size),
        slab=int(slab_idx.size),
    ):
        empty = np.empty(0, dtype=np.int64)
        if slab_idx.size == 0:
            return ShardPiece(
                region=region,
                owned_idx=owned_idx,
                core=np.zeros(owned_idx.size, dtype=bool),
                local_labels=np.full(owned_idx.size, NOISE, dtype=np.int64),
                n_local=0,
                border_src=empty,
                border_dst=empty,
                counters=counters,
            )
        sub = np.ascontiguousarray(points[slab_idx])
        index = _shard_index(sub, plan.eps, kernel)
        local = dbscan(
            sub,
            plan.eps,
            minpts,
            index=index,
            counters=counters,
            tracer=tracer,
        )
        owned_pos = np.searchsorted(slab_idx, owned_idx)
        core = local.core_mask[owned_pos]
        local_labels = local.labels[owned_pos]
        noncore_pos = owned_pos[~core]
        if noncore_pos.size:
            searcher = NeighborSearcher(index, plan.eps, counters)
            ptr, neigh = searcher.search_batch(noncore_pos)
            border_src = np.repeat(slab_idx[noncore_pos], np.diff(ptr))
            border_dst = slab_idx[neigh]
        else:
            border_src = border_dst = empty
        return ShardPiece(
            region=region,
            owned_idx=owned_idx,
            core=core,
            local_labels=local_labels,
            n_local=local.n_clusters,
            border_src=border_src,
            border_dst=border_dst,
            counters=counters,
        )


def merge_shards(
    points: np.ndarray,
    plan: ShardPlan,
    pieces: list[ShardPiece],
    *,
    counters: WorkCounters | None = None,
    tracer: Tracer | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stitch per-region pieces into the canonical global clustering.

    Returns ``(labels, core_mask)`` byte-identical to the serial
    kernels: shard-local components are unioned across each cut's
    ``+-eps`` core band, components are ranked by minimum core point
    index, and border points take the minimum cluster id among their
    core neighbors.
    """
    points = as_points_array(points)
    n = points.shape[0]
    if counters is None:
        counters = WorkCounters()
    tr = resolve_tracer(tracer)
    pieces = sorted(pieces, key=lambda p: p.region)
    if sum(p.owned_idx.size for p in pieces) != n:
        raise ValueError(
            f"pieces own {sum(p.owned_idx.size for p in pieces)} points, "
            f"database has {n}"
        )
    labels = np.full(n, NOISE, dtype=np.int64)
    core_mask = np.zeros(n, dtype=bool)
    comp_of_point = np.full(n, -1, dtype=np.int64)
    offset = 0
    for piece in pieces:
        owned_core = piece.owned_idx[piece.core]
        core_mask[owned_core] = True
        comp_of_point[owned_core] = offset + piece.local_labels[piece.core]
        offset += piece.n_local
    with tr.span(SPAN_SHARD_MERGE, regions=len(pieces), components=offset):
        parent = np.arange(offset, dtype=np.int64)
        coord = points[:, plan.axis]
        for cut in dict.fromkeys(plan.cuts):  # dedupe coincident cuts
            band = np.flatnonzero(core_mask & (np.abs(coord - cut) <= plan.eps))
            if band.size < 2:
                continue
            # Cross-cut edges via eps-connectivity, not pair listing:
            # every band member is globally core, so DBSCAN at
            # minpts = 1 over the band groups exactly the eps-chains of
            # core points — any direct cross-cut pair shares a band
            # component, and every transitive union is a genuine
            # density-connection.  The cell-graph kernel keeps this
            # O(band) even when an equal-count cut lands in a dense
            # blob, where enumerating neighbor pairs is quadratic.
            sub = np.ascontiguousarray(points[band])
            band_cc = dbscan(
                sub, plan.eps, 1,
                index=CellGraphIndex(sub, plan.eps),
                counters=counters,
            ).labels
            order = np.argsort(band_cc, kind="stable")
            cc = band_cc[order]
            comp = comp_of_point[band[order]]
            # Chain-union consecutive members of each band component.
            chain = cc[1:] == cc[:-1]
            comp_a, comp_b = comp[1:][chain], comp[:-1][chain]
            split = comp_a != comp_b
            if split.any():
                union_edges(parent, comp_a[split], comp_b[split])
        flatten_parents(parent)
        core_pts = np.flatnonzero(core_mask)
        n_clusters = 0
        if core_pts.size:
            comp = parent[comp_of_point[core_pts]]
            min_core = np.full(offset, n, dtype=np.int64)
            np.minimum.at(min_core, comp, core_pts)
            roots = np.flatnonzero(min_core < n)
            # Rank components by minimum core index — the order the
            # serial BFS founds clusters — so ids match byte for byte.
            cid_of_root = np.full(offset, NOISE, dtype=np.int64)
            cid_of_root[roots[np.argsort(min_core[roots], kind="stable")]] = (
                np.arange(roots.size, dtype=np.int64)
            )
            labels[core_pts] = cid_of_root[comp]
            n_clusters = int(roots.size)
        if pieces:
            src = np.concatenate([p.border_src for p in pieces])
            dst = np.concatenate([p.border_dst for p in pieces])
            keep = core_mask[dst] if src.size else np.zeros(0, dtype=bool)
            if keep.any():
                # A border point takes the earliest-founded cluster
                # that reaches it: the minimum id among core neighbors.
                border = np.full(n, n_clusters, dtype=np.int64)
                np.minimum.at(border, src[keep], labels[dst[keep]])
                hit = border < n_clusters
                labels[hit] = border[hit]
    return labels, core_mask


def sharded_dbscan(
    points: np.ndarray,
    eps: float,
    minpts: int,
    *,
    regions: int | None = None,
    kernel: str = "bfs",
    counters: WorkCounters | None = None,
    tracer: Tracer | None = None,
) -> ClusteringResult:
    """Single-process sharded DBSCAN: plan, cluster each region, merge.

    The in-process composition of the shard pipeline — the reference
    the property-test suite pins against the serial kernels, and the
    execution path ``hybrid``'s shard workers run one region at a
    time.  Output is byte-identical to
    :func:`repro.core.dbscan.dbscan` at the same parameters.
    """
    points = as_points_array(points)
    eps = check_eps(eps)
    minpts = check_minpts(minpts)
    if counters is None:
        counters = WorkCounters()
    k = resolve_n_regions(regions)
    sw = Stopwatch().start()
    plan = plan_shards(points, eps, k)
    pieces = [
        cluster_shard(
            points,
            plan,
            region,
            minpts,
            kernel=kernel,
            counters=counters,
            tracer=tracer,
        )
        for region in range(plan.n_regions)
    ]
    labels, core_mask = merge_shards(
        points, plan, pieces, counters=counters, tracer=tracer
    )
    return ClusteringResult(
        labels,
        core_mask,
        variant=Variant(eps, minpts),
        counters=counters,
        elapsed=sw.stop(),
    )
