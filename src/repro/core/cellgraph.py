"""Cell-graph exact DBSCAN: whole-cell operations instead of per-point BFS.

Every other execution path in the library answers DBSCAN with one
epsilon-search per point.  This kernel (the grid formulation of Wang,
Gu & Shun, arXiv:1912.06255, and de Berg et al., arXiv:1702.08607)
sidesteps that hot path, and it does so once per ``eps`` for *every*
``minpts`` at that radius.  For a fixed ``eps``, neighbor counts and
cell-pair proximity do not depend on ``minpts``, so a
:class:`MinptsPass` built for the largest requested ``minpts`` (``top``)
answers each ``m <= top`` with a threshold and a union-find:

1. **Bin** the database into ``eps / sqrt(2)`` cells
   (:class:`~repro.index.cellgraph.CellGraphIndex`).  A cell's diameter
   is at most ``eps``, so any cell holding ``top`` or more points is
   **all core at every m <= top without a single distance computation**.
2. **Count** every other point's neighbors with one batched epsilon
   search, issued in blocks of :data:`SEARCH_BLOCK` queries so the
   search's candidate scratch stays one block's worth.  Counts are capped at
   ``top``: a point is core at ``m`` iff its capped count is ``>= m``.
3. **Edge** core cells.  Every point of a cell is within ``eps`` of
   every other, so the core points of one cell always share a cluster,
   and two cells are linked at ``m`` iff some pair of points across them
   is eps-close with both counts ``>= m``.  Each cell-pair edge
   therefore carries a *strength*: the max over its eps-close pairs of
   ``min(count_p, count_q)``, the largest ``m`` at which it survives.
   Pairs with a sparse endpoint come straight from the step-2 CSR rows.
   Pairs of two dense cells (all counts ``top``) take a representative
   quick-accept (the directional extreme points of each cell) and a
   chunked full product for the survivors, skipped once the cells are
   already joined by links of strength ``top`` (alive at every m).
4. **Merge**, per ``m``: a vectorized union-find — a path-halving
   ``np.ndarray`` parent forest hooked by edge-list passes
   (``np.minimum.at``) — over the edges of strength ``>= m``, with no
   per-point Python loops.
5. **Assign** border points, per ``m``, from the step-2 rows kept for
   points that can be border points: the minimum cluster id among a
   point's core neighbors.

:func:`cellgraph_dbscan` is the one-``minpts`` call of the same pass
(``top = minpts``).

Exactness: the output is *byte-identical* to the BFS path
(:func:`repro.core.dbscan.dbscan`), not merely equivalent up to
relabeling.  The BFS outer scan founds each cluster at its minimum core
point index (a cluster's core points are never visited by another
cluster's expansion), so BFS cluster ids ascend with that minimum; and
a border point keeps the label of the *first* expansion that reaches it,
i.e. the minimum id among clusters owning a core neighbor.  Numbering
components by the rank of their minimum core index and taking the
minimum id over core neighbors therefore reproduces the BFS labels and
core mask exactly (the closed predicate ``d^2 <= eps^2`` is shared with
:class:`~repro.core.neighbors.NeighborSearcher`).

Work accounting: dense-cell core marking is free by construction; the
sparse count pass charges through :class:`NeighborSearcher` as usual;
cell probes charge ``index_nodes_visited`` and every dense cell-pair
distance test charges ``candidates_examined`` /
``distance_computations``.  All of it is charged once, when the pass is
built; serving one ``m`` from the pass charges only the cells its
union-find touches (``index_nodes_visited``), and the one-``minpts``
call charges the build alone.
"""

from __future__ import annotations

import numpy as np

from repro.core.neighbors import NeighborSearcher
from repro.core.result import NOISE, ClusteringResult
from repro.core.variants import Variant
from repro.index.cellgraph import POSITIVE_OFFSETS, CellGraphIndex
from repro.metrics.counters import WorkCounters
from repro.util.tracing import Tracer, resolve_tracer
from repro.util.validation import as_points_array, check_eps, check_minpts

__all__ = [
    "MinptsPass",
    "cellgraph_dbscan",
    "flatten_parents",
    "union_edges",
    "CELL_PRODUCT_CHUNK",
    "SEARCH_BLOCK",
]

#: Element budget per chunk of the full core-product fallback: big
#: enough to amortize the expansion overhead, small enough that one
#: chunk's scratch arrays stay far below cache-hostile sizes.
CELL_PRODUCT_CHUNK = 1 << 22

#: Queries per block of the step-2 count search.  One unblocked batch
#: over every sparse point holds all candidate lists at once, several
#: times the size of the neighbor lists it returns.
SEARCH_BLOCK = 512

_EMPTY = np.empty(0, dtype=np.int64)

#: The 8 compass directions whose extreme core points serve as
#: representative pairs in the quick-accept stage.
_DIRECTIONS = np.array(
    [(0, 1), (1, -1), (1, 0), (1, 1), (0, -1), (-1, 1), (-1, 0), (-1, -1)],
    dtype=np.int64,
)
_DIR_INDEX = {(int(dx), int(dy)): k for k, (dx, dy) in enumerate(_DIRECTIONS)}
#: Opposite direction's row for each row of ``_DIRECTIONS``.
_OPPOSITE = np.array(
    [_DIR_INDEX[(-int(dx), -int(dy))] for dx, dy in _DIRECTIONS], dtype=np.int64
)


def flatten_parents(parent: np.ndarray) -> None:
    """Full path compression: every entry points at its root."""
    gp = parent[parent]
    while not np.array_equal(gp, parent):
        parent[:] = gp
        gp = parent[parent]


def union_edges(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the components of every edge ``(a[i], b[i])``.

    Edge-list hooking: each pass points every edge's larger root at the
    smaller one (``np.minimum.at`` resolves conflicting writes to the
    same root in favor of the smallest), then re-flattens; the number of
    distinct roots among still-split edges strictly falls each pass, so
    the loop runs O(log) times, never per point.

    Public because the cross-border merge of :mod:`repro.core.shard`
    unions shard-local components with exactly this primitive.
    """
    while a.size:
        ra = parent[a]
        rb = parent[b]
        diff = ra != rb
        if not diff.any():
            return
        a, b = a[diff], b[diff]
        ra, rb = ra[diff], rb[diff]
        hi = np.maximum(ra, rb)
        lo = np.minimum(ra, rb)
        np.minimum.at(parent, hi, lo)
        flatten_parents(parent)


def _segmented_arg_extreme(
    values: np.ndarray, seg_ptr: np.ndarray, *, maximum: bool
) -> np.ndarray:
    """Index (into ``values``) of each segment's max (or min) element.

    Segments are ``values[seg_ptr[i]:seg_ptr[i + 1]]`` and must all be
    non-empty.  Ties resolve to the first position, deterministically.
    """
    reducer = np.maximum if maximum else np.minimum
    best = reducer.reduceat(values, seg_ptr[:-1])
    seg_of = np.repeat(
        np.arange(seg_ptr.size - 1, dtype=np.int64), np.diff(seg_ptr)
    )
    at_best = np.flatnonzero(values == best[seg_of])
    # seg_of[at_best] is sorted; the first hit per segment is the argmax.
    _, first = np.unique(seg_of[at_best], return_index=True)
    return at_best[first]


def _strongest(
    a: np.ndarray, b: np.ndarray, s: np.ndarray, n_cells: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct cell pair ``(a, b)`` once, with its largest ``s``."""
    if not a.size:
        return a, b, s
    key = a * n_cells + b
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    return a[order[first]], b[order[first]], np.maximum.reduceat(s[order], first)


def _link_cells(
    index: CellGraphIndex,
    x: np.ndarray,
    y: np.ndarray,
    slots: np.ndarray,
    parent: np.ndarray,
    counters: WorkCounters,
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of ``slots`` cells holding an eps-close pair of points.

    ``slots`` is ascending; ``parent`` is a union-find forest over all
    cell slots, already joined by whatever links are known, and gains
    every pair found.  A candidate pair whose cells are already joined
    is never tested, so the returned pairs together with ``parent``'s
    prior links span the linked-cell graph over ``slots``.  Stage 1
    tests one representative pair per candidate cell pair (the
    directional extreme points facing each other); stage 2 runs a
    chunked full product for the pairs stage 1 could not accept.
    """
    found_a: list[np.ndarray] = []
    found_b: list[np.ndarray] = []
    eps2 = index.eps * index.eps
    counts = index.cell_counts[slots]
    ptr = np.zeros(slots.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    members = index.points_in_cells(slots)  # grouped slot by slot
    rank = np.full(index.n_cells, -1, dtype=np.int64)
    rank[slots] = np.arange(slots.size, dtype=np.int64)

    def link(a: np.ndarray, b: np.ndarray) -> None:
        union_edges(parent, a, b)
        found_a.append(a)
        found_b.append(b)

    pair_a: list[np.ndarray] = []
    pair_b: list[np.ndarray] = []
    pair_dir: list[np.ndarray] = []
    for off in POSITIVE_OFFSETS:
        nb = index.neighbor_slots(slots, off)
        counters.index_nodes_visited += slots.size
        valid = nb >= 0
        valid[valid] &= rank[nb[valid]] >= 0
        if not valid.any():
            continue
        pair_a.append(slots[valid])
        pair_b.append(nb[valid])
        k = _DIR_INDEX[(int(np.sign(off[0])), int(np.sign(off[1])))]
        pair_dir.append(np.full(int(valid.sum()), k, dtype=np.int64))
    if pair_a:
        a = np.concatenate(pair_a)
        b = np.concatenate(pair_b)
        d = np.concatenate(pair_dir)
        # Directional extreme point per cell: the stage-1 representative
        # toward each compass direction.
        reps = np.empty((_DIRECTIONS.shape[0], slots.size), dtype=np.int64)
        mx = x[members]
        my = y[members]
        for k, (ux, uy) in enumerate(_DIRECTIONS):
            pos = _segmented_arg_extreme(
                float(ux) * mx + float(uy) * my, ptr, maximum=True
            )
            reps[k] = members[pos]
        # Stage 1: one representative pair per candidate cell pair.
        rep_a = reps[d, rank[a]]
        rep_b = reps[_OPPOSITE[d], rank[b]]
        d2 = (x[rep_a] - x[rep_b]) ** 2 + (y[rep_a] - y[rep_b]) ** 2
        counters.candidates_examined += int(a.size)
        counters.distance_computations += int(a.size)
        accept = d2 <= eps2
        link(a[accept], b[accept])
        # Stage 2: chunked full product for the survivors, skipping any
        # pair whose cells have already merged.
        rem_a, rem_b = a[~accept], b[~accept]
        while rem_a.size:
            alive = parent[rem_a] != parent[rem_b]
            rem_a, rem_b = rem_a[alive], rem_b[alive]
            if not rem_a.size:
                break
            sa = counts[rank[rem_a]]
            sb = counts[rank[rem_b]]
            prod = sa * sb
            if int(prod[0]) > CELL_PRODUCT_CHUNK:
                # A single pair of huge cells: stream its product in
                # blocks and stop at the first hit, so adversarial
                # two-cell databases never materialize n^2 scratch.
                ia = members[ptr[rank[rem_a[0]]] : ptr[rank[rem_a[0]] + 1]]
                ib = members[ptr[rank[rem_b[0]]] : ptr[rank[rem_b[0]] + 1]]
                step = max(1, CELL_PRODUCT_CHUNK // ib.size)
                for s in range(0, ia.size, step):
                    blk = ia[s : s + step]
                    bd2 = (x[blk, None] - x[ib][None, :]) ** 2 + (
                        y[blk, None] - y[ib][None, :]
                    ) ** 2
                    counters.candidates_examined += int(bd2.size)
                    counters.distance_computations += int(bd2.size)
                    if bool((bd2 <= eps2).any()):
                        link(rem_a[:1], rem_b[:1])
                        break
                rem_a, rem_b = rem_a[1:], rem_b[1:]
                continue
            ends = np.cumsum(prod)
            k = max(1, int(np.searchsorted(ends, CELL_PRODUCT_CHUNK, "right")))
            pid = np.repeat(np.arange(k, dtype=np.int64), prod[:k])
            t = np.arange(int(ends[k - 1]), dtype=np.int64) - (ends[:k] - prod[:k])[pid]
            pa = members[ptr[rank[rem_a[:k]]][pid] + t // sb[pid]]
            pb = members[ptr[rank[rem_b[:k]]][pid] + t % sb[pid]]
            d2 = (x[pa] - x[pb]) ** 2 + (y[pa] - y[pb]) ** 2
            counters.candidates_examined += int(pid.size)
            counters.distance_computations += int(pid.size)
            hit = np.unique(pid[d2 <= eps2])
            link(rem_a[hit], rem_b[hit])
            rem_a, rem_b = rem_a[k:], rem_b[k:]
    if not found_a:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(found_a), np.concatenate(found_b)


class MinptsPass:
    """One ``eps``'s cell graph, ready to cluster at every ``minpts <= top``.

    Parameters
    ----------
    points:
        ``(n, 2)`` array-like of coordinates.
    index:
        The :class:`CellGraphIndex` over ``points``; its ``eps`` is the
        pass's radius.
    top:
        The largest ``minpts`` the pass will be asked for.
    counters:
        Sink for the work of building the pass (see the module
        docstring); a fresh one is created when omitted.
    tracer:
        Span/phase collector; ``None`` uses the active tracer.
    variant:
        The variant whose request builds the pass: the build's phases
        are tagged with it (default: ``(eps, top)``).

    :meth:`cluster` then returns, for any ``1 <= m <= top``, labels and
    a core mask byte-identical to :func:`repro.core.dbscan.dbscan` at
    ``(eps, m)``.  The object is read-only once built, so threads may
    share it.
    """

    def __init__(
        self,
        points: np.ndarray,
        index: CellGraphIndex,
        top: int,
        *,
        counters: WorkCounters | None = None,
        tracer: Tracer | None = None,
        variant: Variant | None = None,
    ) -> None:
        self.eps = index.eps
        self.top = top = check_minpts(top)
        phases = resolve_tracer(tracer).phase_clock(
            variant=str(variant if variant is not None else Variant(self.eps, top))
        )

        # -- 1. dense cells: count top at every point, no search --------
        t0 = phases.switch("core_cells")
        points = as_points_array(points)
        if counters is None:
            counters = WorkCounters()
        n = points.shape[0]
        self.n = n
        self._n_cells = index.n_cells
        self._cell_of = cell_of = index.cell_of_point
        dense_cell = index.cell_counts >= top
        self._count = count = np.full(n, top, dtype=np.int64)

        # -- 2. sparse points: blocked count search, pairs from the rows --
        # Rows are consumed block by block and never kept whole.  A pair
        # of sparse points is taken from the row of whichever of the two
        # is searched later, when both counts are known.  The points of a
        # dense cell share count top and (all core, one cell) a label, so
        # one entry per run of a row's neighbors in a dense cell stands
        # for the whole run.
        phases.switch("sparse_scan")
        sparse = index.points_in_cells(np.flatnonzero(~dense_cell))
        seq = np.full(n, -1, dtype=np.int64)  # search order; -1 if dense
        seq[sparse] = np.arange(sparse.size, dtype=np.int64)
        searcher = NeighborSearcher(index, self.eps, counters)
        pieces: list[tuple[np.ndarray, ...]] = []
        border: list[tuple[np.ndarray, np.ndarray]] = []
        for s in range(0, sparse.size, SEARCH_BLOCK):
            rows = sparse[s : s + SEARCH_BLOCK]
            ptr, q = searcher.search_batch(rows)
            count[rows] = np.minimum(np.diff(ptr), top)
            p = np.repeat(rows, np.diff(ptr))
            cq = cell_of[q]
            in_dense = dense_cell[cq]
            run = in_dense.copy()
            run[1:] &= (cq[1:] != cq[:-1]) | (p[1:] != p[:-1])
            pair = ~in_dense & (seq[q] < seq[p])
            p = np.concatenate([p[run], p[pair]])
            q = np.concatenate([q[run], q[pair]])
            cp, cq, kp, kq = cell_of[p], cell_of[q], count[p], count[q]
            # p is non-core at m while q is core only if count_q > count_p
            # (and the other way round).
            up = kq > kp
            down = kp > kq
            border.append(
                (np.concatenate([p[up], q[down]]), np.concatenate([q[up], p[down]]))
            )
            cross = cp != cq
            pieces.append(
                _strongest(
                    np.minimum(cp[cross], cq[cross]),
                    np.maximum(cp[cross], cq[cross]),
                    np.minimum(kp[cross], kq[cross]),
                    index.n_cells,
                )
            )
        self._border_p = (
            np.concatenate([bp for bp, _ in border]) if border else _EMPTY
        )
        self._border_q = (
            np.concatenate([bq for _, bq in border]) if border else _EMPTY
        )

        # -- 3. strength-labelled cell-pair edges -----------------------
        phases.switch("cell_edges")
        if pieces:
            sparse_a, sparse_b, sparse_s = _strongest(
                *(np.concatenate(part) for part in zip(*pieces)), index.n_cells
            )
        else:
            sparse_a = sparse_b = sparse_s = _EMPTY
        # Edges of strength top hold at every m <= top, so dense pairs
        # they already join need no test.
        parent = np.arange(index.n_cells, dtype=np.int64)
        union_edges(parent, sparse_a[sparse_s == top], sparse_b[sparse_s == top])
        x = np.ascontiguousarray(points[:, 0])
        y = np.ascontiguousarray(points[:, 1])
        dense_a, dense_b = _link_cells(
            index, x, y, np.flatnonzero(dense_cell), parent, counters
        )
        a = np.concatenate([dense_a, sparse_a])
        b = np.concatenate([dense_b, sparse_b])
        s = np.concatenate([np.full(dense_a.size, top, dtype=np.int64), sparse_s])
        # Strongest first: the edges alive at m are a prefix.
        order = np.argsort(-s, kind="stable")
        self._edge_a = a[order]
        self._edge_b = b[order]
        self._neg_strength = -s[order]

        self.build_s = phases.finish() - t0

    def cluster(
        self,
        minpts: int,
        *,
        counters: WorkCounters | None = None,
        tracer: Tracer | None = None,
    ) -> ClusteringResult:
        """DBSCAN at ``(eps, minpts)``: a threshold and a union-find.

        ``counters`` (a fresh one when omitted) is charged only the
        cells this step's union-find touches, one per cell slot and one
        per live edge; the pass's own work was charged when it was
        built.
        """
        minpts = check_minpts(minpts)
        if minpts > self.top:
            raise ValueError(
                f"pass was built for minpts <= {self.top}, asked for {minpts}"
            )
        variant = Variant(self.eps, minpts)
        phases = resolve_tracer(tracer).phase_clock(variant=str(variant))

        # -- 4. components over the edges alive at minpts ----------------
        t0 = phases.switch("union_find")
        if counters is None:
            counters = WorkCounters()
        n = self.n
        labels = np.full(n, NOISE, dtype=np.int64)
        core_mask = self._count >= minpts
        alive = int(np.searchsorted(self._neg_strength, -minpts, side="right"))
        counters.index_nodes_visited += self._n_cells + alive
        parent = np.arange(self._n_cells, dtype=np.int64)
        union_edges(parent, self._edge_a[:alive], self._edge_b[:alive])
        core_pts = np.flatnonzero(core_mask)
        comp = parent[self._cell_of[core_pts]]
        min_core = np.full(self._n_cells, n, dtype=np.int64)
        np.minimum.at(min_core, comp, core_pts)
        roots = np.flatnonzero(min_core < n)
        # BFS founds clusters in ascending min-core-index order; rank the
        # components the same way so ids (and thus labels) match exactly.
        cid_of_root = np.full(self._n_cells, NOISE, dtype=np.int64)
        cid_of_root[roots[np.argsort(min_core[roots], kind="stable")]] = np.arange(
            roots.size, dtype=np.int64
        )
        labels[core_pts] = cid_of_root[comp]

        # -- 5. border points ---------------------------------------------
        phases.switch("border")
        bp, bq = self._border_p, self._border_q
        sel = ~core_mask[bp] & core_mask[bq]
        if sel.any():
            # A border point takes the earliest-founded cluster that
            # reaches it: the minimum id among its core neighbors.
            border = np.full(n, roots.size, dtype=np.int64)
            np.minimum.at(border, bp[sel], labels[bq[sel]])
            hit = border < roots.size
            labels[hit] = border[hit]
        elapsed = phases.finish() - t0
        return ClusteringResult(
            labels, core_mask, variant=variant, counters=counters, elapsed=elapsed
        )


def cellgraph_dbscan(
    points: np.ndarray,
    eps: float,
    minpts: int,
    *,
    index: CellGraphIndex | None = None,
    counters: WorkCounters | None = None,
    tracer: Tracer | None = None,
) -> ClusteringResult:
    """Cluster ``points`` with the cell-graph exact DBSCAN kernel.

    The one-``minpts`` call of :class:`MinptsPass` (``top = minpts``).

    Parameters
    ----------
    points:
        ``(n, 2)`` array-like of coordinates.
    eps / minpts:
        DBSCAN parameters (the epsilon-neighborhood includes the point
        itself, as everywhere in the library).
    index:
        A prebuilt :class:`CellGraphIndex` whose ``eps`` matches; one is
        built here (charged to the ``setup`` phase) when omitted.
    counters:
        Work-counter sink; a fresh one is created when omitted.
    tracer:
        Span/phase collector; ``None`` uses the active tracer.

    Returns
    -------
    ClusteringResult
        Byte-identical labels and core mask to
        :func:`repro.core.dbscan.dbscan` at the same parameters.
    """
    points = as_points_array(points)
    eps = check_eps(eps)
    minpts = check_minpts(minpts)
    if counters is None:
        counters = WorkCounters()
    setup_s = 0.0
    if index is None:
        phases = resolve_tracer(tracer).phase_clock(variant=str(Variant(eps, minpts)))
        t0 = phases.switch("setup")
        index = CellGraphIndex(points, eps)
        setup_s = phases.finish() - t0
    elif index.eps != eps:
        raise ValueError(
            f"index was built for eps={index.eps!r}, queried with eps={eps!r}"
        )
    built = MinptsPass(points, index, minpts, counters=counters, tracer=tracer)
    result = built.cluster(minpts, tracer=tracer)
    # Thresholding is charged only to variants served from a shared
    # pass: this kernel charges what its build charges, as it always
    # has, because the band merge of repro.core.shard runs it at
    # minpts=1 under every kernel, bfs included.
    result.counters = counters
    # Every term comes from the phase clocks' own stamps, so the phase
    # totals sum to elapsed exactly.
    result.elapsed += setup_s + built.build_s
    return result
