"""Uniform-grid index: the classic alternative to the paper's R-tree.

Not part of the paper — included as an ablation baseline
(``benchmarks/bench_ablation_index.py``) to quantify how much of the
paper's Figure 4 gain comes from the R-tree specifically versus from
*any* locality-preserving candidate generator.  The grid plays the same
memory/compute trade as ``r``: the ``cell_width`` controls how many
candidates a query fetches versus how many cells it touches.

Implementation: cells are identified by ``(floor(x / w), floor(y / w))``
and stored CSR-style — a lexicographic sort of cell keys plus an offsets
array — so lookups are binary searches over flat arrays rather than
dict probes.
"""

from __future__ import annotations


import numpy as np

from repro.index._ranges import ranges_to_indices
from repro.index.base import SpatialIndex, empty_csr
from repro.index.mbb import XMAX, XMIN, YMAX, YMIN
from repro.metrics.counters import WorkCounters
from repro.util.validation import as_points_array


class UniformGridIndex(SpatialIndex):
    """Fixed-width square grid over a 2-D point database.

    Parameters
    ----------
    points:
        ``(n, 2)`` coordinates.
    cell_width:
        Side length of the square cells.  For epsilon-neighborhood
        workloads, ``cell_width ~ eps`` touches at most a 3x3 block of
        cells per query.
    """

    def __init__(self, points: np.ndarray, cell_width: float) -> None:
        if cell_width <= 0:
            raise ValueError(f"cell_width must be > 0, got {cell_width!r}")
        self.points = as_points_array(points)
        self.cell_width = float(cell_width)
        n = self.points.shape[0]
        if n == 0:
            self._cell_keys = np.empty((0, 2), dtype=np.int64)
            self._offsets = np.zeros(1, dtype=np.int64)
            self._order = np.empty(0, dtype=np.int64)
            self._build_encoded_keys()
            return
        cx = np.floor(self.points[:, 0] / self.cell_width).astype(np.int64)
        cy = np.floor(self.points[:, 1] / self.cell_width).astype(np.int64)
        order = np.lexsort((cy, cx))
        cx_s, cy_s = cx[order], cy[order]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = (cx_s[1:] != cx_s[:-1]) | (cy_s[1:] != cy_s[:-1])
        starts = np.flatnonzero(boundary)
        self._cell_keys = np.column_stack([cx_s[starts], cy_s[starts]])
        self._offsets = np.append(starts, n).astype(np.int64)
        self._order = order.astype(np.int64)
        self._build_encoded_keys()

    def _build_encoded_keys(self) -> None:
        """Pack lexicographic (cx, cy) keys into one sorted int64 array.

        ``cx * span + (cy - cy_min)`` is strictly increasing over the
        lex-sorted keys, so batched cell lookups become one
        ``searchsorted``.  If the packed range would overflow int64
        (astronomical coordinates / tiny cells), ``_enc`` stays ``None``
        and the batch query falls back to the scalar probe loop.
        """
        self._enc: np.ndarray | None = None
        keys = self._cell_keys
        if keys.shape[0] == 0:
            return
        cx_lo, cx_hi = int(keys[0, 0]), int(keys[-1, 0])
        cy_lo = int(keys[:, 1].min())
        cy_hi = int(keys[:, 1].max())
        span = cy_hi - cy_lo + 1
        if max(abs(cx_lo), abs(cx_hi) + 1) * span >= 2**62:
            return
        self._cx_lo, self._cx_hi = cx_lo, cx_hi
        self._cy_lo, self._cy_hi = cy_lo, cy_hi
        self._span = span
        self._enc = keys[:, 0] * span + (keys[:, 1] - cy_lo)

    @property
    def n_cells(self) -> int:
        """Number of non-empty cells."""
        return int(self._cell_keys.shape[0])

    def _cell_slot(self, cx: int, cy: int) -> int:
        """Binary-search a cell key; return its slot or -1 if empty."""
        keys = self._cell_keys
        lo = int(np.searchsorted(keys[:, 0], cx, side="left"))
        hi = int(np.searchsorted(keys[:, 0], cx, side="right"))
        if lo == hi:
            return -1
        sub = keys[lo:hi, 1]
        j = int(np.searchsorted(sub, cy, side="left"))
        if j < sub.shape[0] and sub[j] == cy:
            return lo + j
        return -1

    def query_candidates(
        self, mbb: np.ndarray, counters: WorkCounters | None = None
    ) -> np.ndarray:
        """All points in cells overlapping the query MBB.

        Each cell probe (hit or miss) counts as one index-node visit:
        a probe is one dependent memory lookup, the grid analogue of
        touching a tree node.
        """
        if self._order.size == 0:
            return np.empty(0, dtype=np.int64)
        w = self.cell_width
        cx0 = int(np.floor(mbb[XMIN] / w))
        cx1 = int(np.floor(mbb[XMAX] / w))
        cy0 = int(np.floor(mbb[YMIN] / w))
        cy1 = int(np.floor(mbb[YMAX] / w))
        slots = []
        probes = 0
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                probes += 1
                s = self._cell_slot(cx, cy)
                if s >= 0:
                    slots.append(s)
        if counters is not None:
            counters.index_nodes_visited += probes
        if not slots:
            return np.empty(0, dtype=np.int64)
        slot_arr = np.asarray(slots, dtype=np.int64)
        starts = self._offsets[slot_arr]
        counts = self._offsets[slot_arr + 1] - starts
        return self._order[ranges_to_indices(starts, counts)]

    def query_candidates_batch(
        self, mbbs: np.ndarray, counters: WorkCounters | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched cell probes: one ``searchsorted`` for every query's cells.

        Each query's (cx, cy) probe grid is expanded in the scalar loop
        order (cx outer, cy inner), probed against the packed key array
        in one shot, and hit cells' point ranges expanded CSR-style, so
        every row matches :meth:`query_candidates` elementwise and the
        probe tally is identical.
        """
        mbbs = np.asarray(mbbs, dtype=np.float64).reshape(-1, 4)
        m = mbbs.shape[0]
        if m == 0:
            return empty_csr(0)
        if self._order.size == 0:  # scalar returns before probing, too
            return empty_csr(m)
        if self._enc is None:  # packed-key overflow: scalar fallback
            return super().query_candidates_batch(mbbs, counters)
        w = self.cell_width
        cx0 = np.floor(mbbs[:, XMIN] / w).astype(np.int64)
        cx1 = np.floor(mbbs[:, XMAX] / w).astype(np.int64)
        cy0 = np.floor(mbbs[:, YMIN] / w).astype(np.int64)
        cy1 = np.floor(mbbs[:, YMAX] / w).astype(np.int64)
        ncx = cx1 - cx0 + 1
        ncy = cy1 - cy0 + 1
        if counters is not None:
            counters.index_nodes_visited += int((ncx * ncy).sum())
        # Expand (query, cx) pairs, then each pair's cy range.
        qid_x = np.repeat(np.arange(m, dtype=np.int64), ncx)
        cx_cells = ranges_to_indices(cx0, ncx)
        reps = ncy[qid_x]
        qid = np.repeat(qid_x, reps)
        cx_cells = np.repeat(cx_cells, reps)
        cy_cells = ranges_to_indices(cy0[qid_x], reps)
        # Probe: encode in-range cells and binary-search the key array.
        ok = (
            (cx_cells >= self._cx_lo)
            & (cx_cells <= self._cx_hi)
            & (cy_cells >= self._cy_lo)
            & (cy_cells <= self._cy_hi)
        )
        enc_q = cx_cells[ok] * self._span + (cy_cells[ok] - self._cy_lo)
        pos = np.searchsorted(self._enc, enc_q)
        pos[pos >= self._enc.size] = 0  # guard; verified by equality below
        hit = self._enc[pos] == enc_q
        slots = pos[hit]
        qid_hit = qid[ok][hit]
        if slots.size == 0:
            return empty_csr(m)
        starts = self._offsets[slots]
        counts = self._offsets[slots + 1] - starts
        indices = self._order[ranges_to_indices(starts, counts)]
        per_query = np.bincount(qid_hit, weights=counts, minlength=m).astype(np.int64)
        indptr = np.zeros(m + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(per_query)
        return indptr, indices

    def query_candidates_batch_visits(
        self, mbbs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch query plus per-query probe counts; charges nothing.

        A query's visit count is its probe-grid size ``ncx * ncy`` —
        exactly what the scalar loop tallies — so no separate traversal
        bookkeeping is needed.
        """
        mbbs = np.asarray(mbbs, dtype=np.float64).reshape(-1, 4)
        m = mbbs.shape[0]
        if m == 0 or self._order.size == 0 or self._enc is None:
            return super().query_candidates_batch_visits(mbbs)
        w = self.cell_width
        ncx = np.floor(mbbs[:, XMAX] / w).astype(np.int64) - np.floor(
            mbbs[:, XMIN] / w
        ).astype(np.int64) + 1
        ncy = np.floor(mbbs[:, YMAX] / w).astype(np.int64) - np.floor(
            mbbs[:, YMIN] / w
        ).astype(np.int64) + 1
        indptr, indices = self.query_candidates_batch(mbbs, None)
        return indptr, indices, ncx * ncy
