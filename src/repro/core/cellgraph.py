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
2. **Count** every other (*sparse*) point's neighbors by whole-cell
   tests over the 5x5 block of cells around it, from one per-pass cell
   summary: each cell's point bounding box and each dense cell's 8
   directional extreme points.  A cell whose box lies more than ``eps``
   from the point is skipped; one whose box lies wholly within ``eps``
   adds its size without a distance.  The rest are expanded point by
   point, except that a *saturated* point (one whose covered cells
   already hold ``top`` points, so its count is ``top`` whatever the
   rest hold) needs only a yes/no per partially covered dense cell,
   which the cell's extreme point facing it answers first.  Counts are
   capped at ``top``: a point is core at ``m`` iff its capped count is
   ``>= m``.  Rows go in blocks of :data:`SEARCH_BLOCK` points so the
   expansion scratch stays one block's worth.
3. **Edge** core cells.  Every point of a cell is within ``eps`` of
   every other, so the core points of one cell always share a cluster,
   and two cells are linked at ``m`` iff some pair of points across them
   is eps-close with both counts ``>= m``.  Each cell-pair edge
   therefore carries a *strength*: the max over its eps-close pairs of
   ``min(count_p, count_q)``, the largest ``m`` at which it survives.
   Pairs with a sparse endpoint come straight from the step-2 scan:
   each sparse pair once, from the row of its later point, and one
   pair per (sparse point, dense cell) that holds a neighbor of it,
   standing for the whole cell (all core, one cell, one label).
   Pairs of two dense cells (all counts ``top``) go through three
   filters.  A pair whose cell bounding boxes lie more than ``eps``
   apart is rejected: no pair of their points can be closer than their
   boxes.  A representative quick-accept (the directional extreme
   points of each cell) links most of the rest.  For the pairs still
   open, each cell keeps only its facing strip, the points within
   ``eps`` of the other cell's box (de Berg et al.), and a chunked
   product runs over the two strips.  A pair whose cells are already
   joined by links of strength ``top`` (alive at every m) is skipped.
4. **Merge**, per ``m``: a vectorized union-find — a path-halving
   ``np.ndarray`` parent forest hooked by edge-list passes
   (``np.minimum.at``) — over the edges of strength ``>= m``, with no
   per-point Python loops.
5. **Assign** border points, per ``m``, from the step-2 pairs kept for
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
:class:`~repro.core.neighbors.NeighborSearcher`).  The box and strip
filters drop only pairs of points whose computed ``d^2`` exceeds
``eps^2`` (see :func:`_gap2`), and a cell is covered only when the
``d^2`` computed to its farthest box corner is ``<= eps^2``, which
bounds the ``d^2`` of every point inside it; so steps 2 and 3 count and
link exactly as full products would.

Work accounting: dense-cell core marking is free by construction.
Cell probes charge ``index_nodes_visited`` (the sparse scan probes each
sparse cell's 24 neighbors once per pass).  The scan charges one
``neighbor_searches`` per sparse point.  Every point-box test (a sparse
point against a cell of its block) and every dense cell-pair box test
and strip point test charges ``candidates_examined``.  Only real
point-pair distances (the scan's representative tests and expanded
cells, the quick-accept pairs and the strip products) charge
``distance_computations``, and each also charges
``candidates_examined``; ``neighbors_found`` counts the ones within
``eps``.  So a cell a box test skips or covers computes no distance.
All of it is charged once, when the pass is built; serving one ``m``
from the pass charges only the cells its union-find touches
(``index_nodes_visited``), and the one-``minpts`` call charges the
build alone.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import NOISE, ClusteringResult
from repro.core.variants import Variant
from repro.index._ranges import ranges_to_indices
from repro.index.cellgraph import NEIGHBOR_OFFSETS, POSITIVE_OFFSETS, CellGraphIndex
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

#: Element budget per chunk of the dense cell-pair tests (strip points,
#: then strip-product pairs): big enough to amortize the expansion
#: overhead, small enough that one chunk's scratch arrays stay far
#: below cache-hostile sizes.
CELL_PRODUCT_CHUNK = 1 << 22

#: Sparse points per block of the step-2 scan.  One unblocked scan over
#: every sparse point would hold all of their expanded cells' points at
#: once, several times the size of the pairs it keeps.
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


def _gap2(u, v) -> np.ndarray:
    """Squared gap between boxes ``u`` and ``v``, elementwise.

    A box is a 4-sequence of arrays ``(lo_x, hi_x, lo_y, hi_y)``; a
    point is the box ``(x, x, y, y)``.  Floating-point subtraction,
    squaring and addition are monotone, so for any point ``p`` in ``u``
    and ``q`` in ``v`` the gap never exceeds the ``d^2`` the product
    computes for ``(p, q)``: a gap ``> eps^2`` rules out every pair.
    """
    gx = np.maximum(np.maximum(v[0] - u[1], u[0] - v[1]), 0.0)
    gy = np.maximum(np.maximum(v[2] - u[3], u[2] - v[3]), 0.0)
    return gx * gx + gy * gy


class _CellSummary:
    """One pass's per-cell data, shared by the sparse scan and dense linking.

    ``xs``/``ys`` are the coordinates in the grid's point order, so a
    cell's members are the contiguous run ``starts[c]:starts[c] +
    counts[c]`` and every point is named by its *grid position*
    (``index.point_order[g]`` is its point index).  ``box`` holds each
    cell's point bounding box, ``(lo_x, hi_x, lo_y, hi_y)`` by slot.
    ``reps[k, rank[c]]`` is the grid position of dense cell ``c``'s
    extreme point toward ``_DIRECTIONS[k]`` (the first one in grid
    order on ties); ``rank`` is -1 for sparse cells.
    """

    __slots__ = ("xs", "ys", "starts", "counts", "box", "dense", "rank", "reps")

    def __init__(
        self, index: CellGraphIndex, points: np.ndarray, dense_cell: np.ndarray
    ) -> None:
        order = index.point_order
        self.counts = counts = index.cell_counts
        self.starts = starts = np.cumsum(counts) - counts
        self.xs = xs = points[:, 0][order]
        self.ys = ys = points[:, 1][order]
        self.box = np.empty((4, index.n_cells), dtype=np.float64)
        if index.n_cells:
            for row, (reducer, axis) in enumerate(
                [(np.minimum, xs), (np.maximum, xs), (np.minimum, ys), (np.maximum, ys)]
            ):
                reducer.reduceat(axis, starts, out=self.box[row])
        self.dense = dense = np.flatnonzero(dense_cell)
        self.rank = np.full(index.n_cells, -1, dtype=np.int64)
        self.rank[dense] = np.arange(dense.size, dtype=np.int64)
        self.reps = np.empty((_DIRECTIONS.shape[0], dense.size), dtype=np.int64)
        if not dense.size:
            return
        # Each cell's extremes come from reductions over every cell's
        # run of xs/ys; a sparse cell's is NaN, which equals no point, so
        # the hits are the dense cells' extreme points, in grid order.
        # One projection u . p per pair of opposite directions: its max
        # serves u and its min -u (-x - y is -(x + y) and -x + y is
        # -(x - y) exactly, so these are the extremes of every u . p).
        # The axis extremes are the boxes.
        for ux, uy in ((1, 0), (0, 1), (1, 1), (1, -1)):
            if uy == 0:
                values, hi, lo = xs, self.box[1], self.box[0]
            elif ux == 0:
                values, hi, lo = ys, self.box[3], self.box[2]
            else:
                values = xs + ys if uy > 0 else xs - ys
                hi = np.maximum.reduceat(values, starts)
                lo = np.minimum.reduceat(values, starts)
            for best, k in ((hi, (ux, uy)), (lo, (-ux, -uy))):
                target = np.repeat(np.where(dense_cell, best, np.nan), counts)
                at = np.flatnonzero(values == target)
                # Every dense cell holds at least one hit; keep each one's first.
                cell = np.searchsorted(starts, at, side="right")
                first = np.r_[True, cell[1:] != cell[:-1]]
                self.reps[_DIR_INDEX[k]] = at[first]

    def members(self, cells: np.ndarray) -> np.ndarray:
        """Grid positions of the given cells' points, grouped cell by cell."""
        return ranges_to_indices(self.starts[cells], self.counts[cells])


def _strip(
    summary: _CellSummary, cells: np.ndarray, boxes: np.ndarray, eps2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points of each ``cells[i]`` within eps of the box ``boxes[:, i]``.

    Returns the survivors' grid positions grouped cell by cell, with
    each group's start and size.
    """
    pts = summary.members(cells)
    pid = np.repeat(np.arange(cells.size, dtype=np.int64), summary.counts[cells])
    px, py = summary.xs[pts], summary.ys[pts]
    keep = _gap2((px, px, py, py), boxes[:, pid]) <= eps2
    size = np.bincount(pid[keep], minlength=cells.size)
    return pts[keep], np.cumsum(size) - size, size


def _link_cells(
    index: CellGraphIndex,
    summary: _CellSummary,
    parent: np.ndarray,
    counters: WorkCounters,
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of dense cells holding an eps-close pair of points.

    ``parent`` is a union-find forest over all cell slots, already
    joined by whatever links are known, and gains every pair found.  A
    candidate pair whose cells are already joined is never tested, so
    the returned pairs together with ``parent``'s prior links span the
    linked-cell graph over ``summary.dense``.  A candidate pair whose
    cell bounding boxes lie more than eps apart is rejected outright
    (:func:`_gap2`).  Stage 1 tests one representative pair per
    remaining cell pair (the directional extreme points facing each
    other); stage 2 takes the pairs stage 1 could not accept, keeps
    each cell's facing strip (its points within eps of the other cell's
    box) and runs a chunked product over the two strips.
    """
    found_a: list[np.ndarray] = []
    found_b: list[np.ndarray] = []
    eps2 = index.eps * index.eps
    slots, rank, box = summary.dense, summary.rank, summary.box
    x, y = summary.xs, summary.ys
    counts = summary.counts

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
        near = _gap2(box[:, a], box[:, b]) <= eps2
        counters.candidates_examined += int(a.size)
        a, b, d = a[near], b[near], d[near]
        # Stage 1: one representative pair per candidate cell pair.
        rep_a = summary.reps[d, rank[a]]
        rep_b = summary.reps[_OPPOSITE[d], rank[b]]
        d2 = (x[rep_a] - x[rep_b]) ** 2 + (y[rep_a] - y[rep_b]) ** 2
        counters.candidates_examined += int(a.size)
        counters.distance_computations += int(a.size)
        accept = d2 <= eps2
        link(a[accept], b[accept])
        # Stage 2, a group of pairs at a time: the strip tests of one
        # group stay within one chunk's budget of points.
        rem_a, rem_b = a[~accept], b[~accept]
        while rem_a.size:
            alive = parent[rem_a] != parent[rem_b]
            rem_a, rem_b = rem_a[alive], rem_b[alive]
            if not rem_a.size:
                break
            span = np.cumsum(counts[rem_a] + counts[rem_b])
            g = max(1, int(np.searchsorted(span, CELL_PRODUCT_CHUNK, "right")))
            counters.candidates_examined += int(span[g - 1])
            ia, a0, sa = _strip(summary, rem_a[:g], box[:, rem_b[:g]], eps2)
            ib, b0, sb = _strip(summary, rem_b[:g], box[:, rem_a[:g]], eps2)
            group = np.stack([rem_a[:g], rem_b[:g], a0, sa, b0, sb])
            group = group[:, (sa > 0) & (sb > 0)]
            rem_a, rem_b = rem_a[g:], rem_b[g:]
            # Chunked product over the strips, skipping any pair whose
            # cells have merged meanwhile.
            while group.shape[1]:
                group = group[:, parent[group[0]] != parent[group[1]]]
                if not group.shape[1]:
                    break
                ga, gb, a0, sa, b0, sb = group
                prod = sa * sb
                if int(prod[0]) > CELL_PRODUCT_CHUNK:
                    # A single pair of huge strips: stream its product in
                    # blocks and stop at the first hit, so adversarial
                    # two-cell databases never materialize n^2 scratch.
                    pa = ia[a0[0] : a0[0] + sa[0]]
                    pb = ib[b0[0] : b0[0] + sb[0]]
                    step = max(1, CELL_PRODUCT_CHUNK // pb.size)
                    for s in range(0, pa.size, step):
                        blk = pa[s : s + step]
                        bd2 = (x[blk, None] - x[pb][None, :]) ** 2 + (
                            y[blk, None] - y[pb][None, :]
                        ) ** 2
                        counters.candidates_examined += int(bd2.size)
                        counters.distance_computations += int(bd2.size)
                        if bool((bd2 <= eps2).any()):
                            link(ga[:1], gb[:1])
                            break
                    group = group[:, 1:]
                    continue
                ends = np.cumsum(prod)
                k = max(1, int(np.searchsorted(ends, CELL_PRODUCT_CHUNK, "right")))
                pid = np.repeat(np.arange(k, dtype=np.int64), prod[:k])
                t = np.arange(int(ends[k - 1]), dtype=np.int64) - (ends[:k] - prod[:k])[pid]
                pa = ia[a0[pid] + t // sb[pid]]
                pb = ib[b0[pid] + t % sb[pid]]
                d2 = (x[pa] - x[pb]) ** 2 + (y[pa] - y[pb]) ** 2
                counters.candidates_examined += int(pid.size)
                counters.distance_computations += int(pid.size)
                hit = np.unique(pid[d2 <= eps2])
                link(ga[hit], gb[hit])
                group = group[:, k:]
    if not found_a:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(found_a), np.concatenate(found_b)


#: The 5x5 block as scan columns: the own cell first, then every offset
#: of :data:`NEIGHBOR_OFFSETS`.
_SCAN_OFFSETS = np.vstack([np.zeros((1, 2), dtype=np.int64), NEIGHBOR_OFFSETS])
#: Row of ``_DIRECTIONS`` pointing from each scan column's cell back at
#: the scanning point's cell (unused for the own cell).
_SCAN_FACING = np.array(
    [0] + [_DIR_INDEX[(-int(np.sign(dx)), -int(np.sign(dy)))] for dx, dy in NEIGHBOR_OFFSETS],
    dtype=np.int64,
)


def _scan_sparse(
    index: CellGraphIndex,
    summary: _CellSummary,
    dense_cell: np.ndarray,
    count: np.ndarray,
    top: int,
    counters: WorkCounters,
) -> tuple[np.ndarray, ...]:
    """Step 2: count every sparse point's neighbors and collect its pairs.

    Fills ``count`` for the sparse points (capped at ``top``, every
    dense point's count) and returns the border candidate pairs
    ``(p, q)`` (``q`` may be core where ``p`` is not) and the strongest
    edge ``(a, b, s)`` of every cell pair with a sparse point in it.
    See the module docstring, step 2, for the scan's cell tests.
    """
    eps2 = index.eps * index.eps
    order = index.point_order
    xs, ys = summary.xs, summary.ys
    counts, starts = summary.counts, summary.starts
    sparse_cells = np.flatnonzero(~dense_cell)
    width = _SCAN_OFFSETS.shape[0]
    # The 5x5 block of every sparse cell, probed once per pass; column j
    # holds the cell at _SCAN_OFFSETS[j], -1 where there is none.
    block = np.empty((sparse_cells.size, width), dtype=np.int64)
    for j, off in enumerate(_SCAN_OFFSETS):
        block[:, j] = index.neighbor_slots(sparse_cells, off) if j else sparse_cells
    counters.index_nodes_visited += int(sparse_cells.size) * (width - 1)
    # Strongest edge from each sparse cell to each block column.
    strength = np.zeros(block.size, dtype=np.int64)
    # Sparse points by grid position (ascending, so a smaller position
    # is an earlier row) and the rank of each one's cell.
    sparse = summary.members(sparse_cells)
    row_cell = np.repeat(
        np.arange(sparse_cells.size, dtype=np.int64), counts[sparse_cells]
    )
    counters.neighbor_searches += int(sparse.size)
    border_p: list[np.ndarray] = []
    border_q: list[np.ndarray] = []
    for s in range(0, sparse.size, SEARCH_BLOCK):
        rows = sparse[s : s + SEARCH_BLOCK]
        key = row_cell[s : s + SEARCH_BLOCK, None] * width + np.arange(width)
        cand = block.ravel()[key]
        valid = cand >= 0
        rx, ry = xs[rows], ys[rows]
        px, py = rx[:, None], ry[:, None]
        # cand -1 reads the last cell's box, masked by valid.
        lo_x, hi_x, lo_y, hi_y = (side[cand] for side in summary.box)
        counters.candidates_examined += int(np.count_nonzero(valid))
        near = valid & (_gap2((px, px, py, py), (lo_x, hi_x, lo_y, hi_y)) <= eps2)
        # A cell whose farthest box corner is within eps holds only
        # neighbors: its size counts without a distance.
        fx = np.maximum(px - lo_x, hi_x - px)
        fy = np.maximum(py - lo_y, hi_y - py)
        cover = near & (fx * fx + fy * fy <= eps2)
        dense = near & dense_cell[cand]
        low = np.where(cover, counts[cand], 0).sum(axis=1)
        # A saturated row (count top whatever the rest holds) needs one
        # yes/no per partially covered dense cell: the cell's
        # representative facing the row's cell answers most of them.
        known = dense & cover
        ri, ci = np.nonzero(dense & ~cover & (low >= top)[:, None])
        q = summary.reps[_SCAN_FACING[ci], summary.rank[cand[ri, ci]]]
        hit = (xs[q] - rx[ri]) ** 2 + (ys[q] - ry[ri]) ** 2 <= eps2
        known[ri[hit], ci[hit]] = True
        n_dist, n_hit = ri.size, int(np.count_nonzero(hit))
        # Every other near cell but a covered sparse one is expanded
        # with distances: the dense ones for a count and a yes/no, the
        # sparse ones for their pairs as well.
        grow = near & ~cover & ~known
        extra = np.zeros(rows.size, dtype=np.int64)
        pairs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for sel, in_dense in ((grow & dense, True), (grow & ~dense, False)):
            ti, tj = np.nonzero(sel)
            size = counts[cand[ti, tj]]
            pos = ranges_to_indices(starts[cand[ti, tj]], size)
            hit = (xs[pos] - np.repeat(rx[ti], size)) ** 2 + (
                ys[pos] - np.repeat(ry[ti], size)
            ) ** 2 <= eps2
            n_dist += pos.size
            n_hit += int(np.count_nonzero(hit))
            er = np.repeat(ti, size)
            extra += np.bincount(er[hit], minlength=rows.size)
            if in_dense:
                if ti.size:
                    some = np.logical_or.reduceat(hit, np.cumsum(size) - size)
                    known[ti[some], tj[some]] = True
                continue
            # Each sparse pair once, from the row of its later point.
            keep = hit & (pos < np.repeat(rows[ti], size))
            pairs.append((er[keep], pos[keep], np.repeat(key[ti, tj], size)[keep]))
        counters.candidates_examined += int(n_dist)
        counters.distance_computations += int(n_dist)
        counters.neighbors_found += n_hit
        kp_row = np.minimum(low + extra, top)
        count[order[rows]] = kp_row
        # Every point of a covered sparse cell is a neighbor.
        ki, kj = np.nonzero(cover & ~dense)
        size = counts[cand[ki, kj]]
        pos = ranges_to_indices(starts[cand[ki, kj]], size)
        keep = pos < np.repeat(rows[ki], size)
        pairs.append(
            (np.repeat(ki, size)[keep], pos[keep], np.repeat(key[ki, kj], size)[keep])
        )
        # A dense cell stands for all its points (all core, one cell, one
        # label): one pair per (row, dense cell) with a neighbor in it.
        di, dj = np.nonzero(known)
        pairs.append((di, starts[cand[di, dj]], key[di, dj]))
        pr, pq, pk = (np.concatenate(part) for part in zip(*pairs))
        p, q = order[rows[pr]], order[pq]
        kp, kq = kp_row[pr], count[q]
        # p is non-core at m while q is core only if count_q > count_p
        # (and the other way round).
        up = kq > kp
        down = kp > kq
        border_p.append(np.concatenate([p[up], q[down]]))
        border_q.append(np.concatenate([q[up], p[down]]))
        cross = pk % width > 0
        np.maximum.at(strength, pk[cross], np.minimum(kp[cross], kq[cross]))
    edge = np.flatnonzero(strength)
    a = sparse_cells[edge // width]
    b = block.ravel()[edge]
    return (
        np.concatenate(border_p) if border_p else _EMPTY,
        np.concatenate(border_q) if border_q else _EMPTY,
        *_strongest(np.minimum(a, b), np.maximum(a, b), strength[edge], index.n_cells),
    )


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
        self._cell_of = index.cell_of_point
        dense_cell = index.cell_counts >= top
        self._count = count = np.full(n, top, dtype=np.int64)

        # -- 2. sparse points: cell tests over the 5x5 block -------------
        # One summary of the cells serves this scan and step 3.
        phases.switch("cell_summary")
        summary = _CellSummary(index, points, dense_cell)
        phases.switch("sparse_scan")
        self._border_p, self._border_q, sparse_a, sparse_b, sparse_s = _scan_sparse(
            index, summary, dense_cell, count, top, counters
        )

        # -- 3. strength-labelled cell-pair edges -----------------------
        phases.switch("cell_edges")
        # Edges of strength top hold at every m <= top, so dense pairs
        # they already join need no test.
        parent = np.arange(index.n_cells, dtype=np.int64)
        union_edges(parent, sparse_a[sparse_s == top], sparse_b[sparse_s == top])
        dense_a, dense_b = _link_cells(index, summary, parent, counters)
        del summary  # the coordinate gathers are a pass's largest scratch
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
