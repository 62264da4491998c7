"""Epsilon-scaled grid for the cell-graph DBSCAN kernel.

The grid formulation of exact DBSCAN (Wang, Gu & Shun, arXiv:1912.06255)
bins the database into square cells of side ``eps / sqrt(2)``.  That
width is the load-bearing constant: a cell's diameter is then at most
``eps``, so **every pair of points inside one cell is mutually within
eps** and a cell holding ``minpts`` or more points is all-core without a
single distance computation.  Conversely, two points within ``eps`` of
each other always live within a 5x5 block of cells (the offset
``(+-2, +-2)`` corners are reachable because the library's distance
predicate is the *closed* ball ``d^2 <= eps^2`` and the corner cells'
minimum separation is exactly ``eps``).

:class:`CellGraphIndex` extends :class:`~repro.index.grid.UniformGridIndex`
with the per-cell derived state the kernel consumes — per-point cell
slots, per-cell counts, cell centers, and a vectorized neighbor-slot
probe — while inheriting the grid's CSR storage and batched epsilon
query, so it remains a full :class:`~repro.index.base.SpatialIndex` and
slots into the :data:`~repro.engine.factory.INDEX_KINDS` registry and
every generic search path.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.index._ranges import ranges_to_indices
from repro.index.grid import UniformGridIndex

__all__ = ["CellGraphIndex", "NEIGHBOR_OFFSETS", "POSITIVE_OFFSETS"]

#: Shrink factor applied to ``eps / sqrt(2)``: guards the wholesale
#: all-core guarantee against the one-ulp case where two points at
#: opposite cell corners round to a distance marginally above ``eps``.
_WIDTH_SAFETY = 1.0 - 1e-12


def _cell_width(eps: float) -> float:
    """The grid's cell side at radius ``eps``."""
    return eps * (0.5**0.5) * _WIDTH_SAFETY


def _neighborhood_offsets() -> np.ndarray:
    """The 24 cell offsets (5x5 block minus the center) that can hold a
    point within ``eps`` of a point in the center cell."""
    grid = [
        (dx, dy)
        for dx in range(-2, 3)
        for dy in range(-2, 3)
        if (dx, dy) != (0, 0)
    ]
    return np.asarray(grid, dtype=np.int64)


#: All 24 neighbor offsets of the closed-ball eps neighborhood.
NEIGHBOR_OFFSETS = _neighborhood_offsets()

#: The lexicographically positive half (12 offsets): enumerating cell
#: pairs over these alone visits every unordered neighbor pair once.
POSITIVE_OFFSETS = NEIGHBOR_OFFSETS[
    (NEIGHBOR_OFFSETS[:, 0] > 0)
    | ((NEIGHBOR_OFFSETS[:, 0] == 0) & (NEIGHBOR_OFFSETS[:, 1] > 0))
]


class CellGraphIndex(UniformGridIndex):
    """Uniform grid with ``cell_width = eps / sqrt(2)`` plus cell-graph state.

    Parameters
    ----------
    points:
        ``(n, 2)`` coordinates.
    eps:
        The DBSCAN radius the grid is scaled to.  The kernel dispatch in
        :func:`repro.core.dbscan.dbscan` only takes the cell-graph path
        when the query radius matches this value; for any other radius
        the index still answers exactly through the inherited grid
        queries.
    """

    def __init__(self, points: np.ndarray, eps: float) -> None:
        eps = float(eps)
        if not np.isfinite(eps) or eps <= 0.0:
            raise ValueError(f"eps must be finite and > 0, got {eps!r}")
        self.eps = eps
        super().__init__(points, _cell_width(eps))

    # -- cell-graph state ------------------------------------------------
    @cached_property
    def cell_counts(self) -> np.ndarray:
        """Point count per non-empty cell slot."""
        return np.diff(self._offsets)

    @cached_property
    def cell_of_point(self) -> np.ndarray:
        """Cell slot of every point (aligned with ``points``)."""
        cell_of = np.empty(self.points.shape[0], dtype=np.int64)
        if cell_of.size:
            cell_of[self._order] = np.repeat(
                np.arange(self.n_cells, dtype=np.int64), self.cell_counts
            )
        return cell_of

    @property
    def cell_keys(self) -> np.ndarray:
        """Integer ``(cx, cy)`` key per non-empty cell slot."""
        return self._cell_keys

    @property
    def point_order(self) -> np.ndarray:
        """All point indices grouped cell by cell (ascending slot)."""
        return self._order

    def cell_centers(self) -> np.ndarray:
        """Geometric center of every non-empty cell, shape ``(n_cells, 2)``."""
        return (self._cell_keys.astype(np.float64) + 0.5) * self.cell_width

    def points_in_cells(self, slots: np.ndarray) -> np.ndarray:
        """Point indices of the given cell slots, grouped slot by slot."""
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = self._offsets[slots]
        counts = self._offsets[slots + 1] - starts
        return self._order[ranges_to_indices(starts, counts)]

    def neighbor_slots(self, slots: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """Slot of each cell's neighbor at ``offset``; -1 where empty.

        One probe per input slot — a single ``searchsorted`` against the
        packed key array when the packed encoding exists, else a scalar
        binary-search fallback per slot (the astronomically-scaled
        overflow case the grid documents).
        """
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size == 0:
            return np.empty(0, dtype=np.int64)
        cx = self._cell_keys[slots, 0] + int(offset[0])
        cy = self._cell_keys[slots, 1] + int(offset[1])
        return self.slots_at(cx, cy)

    def slots_at(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """Slots of the cells keyed ``(cx, cy)`` elementwise; -1 misses."""
        cx = np.asarray(cx, dtype=np.int64)
        cy = np.asarray(cy, dtype=np.int64)
        out = np.full(cx.shape[0], -1, dtype=np.int64)
        if self.n_cells == 0:
            return out
        if self._enc is None:
            # Packed-key overflow: per-probe binary search (not a
            # per-point loop — one iteration per queried cell).
            for i in range(cx.shape[0]):
                out[i] = self._cell_slot(int(cx[i]), int(cy[i]))
            return out
        ok = (
            (cx >= self._cx_lo)
            & (cx <= self._cx_hi)
            & (cy >= self._cy_lo)
            & (cy <= self._cy_hi)
        )
        enc_q = cx[ok] * self._span + (cy[ok] - self._cy_lo)
        pos = np.searchsorted(self._enc, enc_q)
        pos[pos >= self._enc.size] = 0  # guard; verified by equality below
        hit = self._enc[pos] == enc_q
        sub = np.full(enc_q.shape[0], -1, dtype=np.int64)
        sub[hit] = pos[hit]
        out[ok] = sub
        return out
