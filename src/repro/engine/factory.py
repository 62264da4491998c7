"""Memoized index construction — build ``T_high``/``T_low`` once, ever.

The paper's Algorithm 3 charges index construction to batch setup and
amortizes it over every variant; this module amortizes it further, over
every *run of the session*: an :class:`IndexFactory` memoizes built
indexes on ``(store fingerprint, index kind, params)``, so repeated
runs, benchmark iterations, and figure drivers over the same database
reuse the same objects instead of re-sorting and re-packing the trees.

Each process keeps its own factory: the session's, in the parent, and
one per process-lane worker, which builds an index on the first unit
that reads it and keeps it for the worker's (session-long) life.  No
index crosses a process boundary.

Also here: :class:`IndexPair`, the two shared R-trees of Algorithm 3
(moved from ``repro.exec.base``, which re-exports it for
compatibility).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.variant_dbscan import DEFAULT_LOW_RES_R
from repro.engine.store import PointStore
from repro.index.brute import BruteForceIndex
from repro.index.cellgraph import CellGraphIndex
from repro.index.rtree import RTree
from repro.obs.span import Tracer, resolve_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.index.base import SpatialIndex

__all__ = [
    "INDEX_KINDS",
    "IndexFactory",
    "IndexPair",
    "SPAN_INDEX_BUILD",
]

#: Span name emitted around every cache-miss index construction.
SPAN_INDEX_BUILD = "index_build"

#: Constructors for the user-facing index kinds, keyed by factory name:
#: the paper's R-tree, the cell-graph kernel's eps-grid and the brute
#: oracle.  ``UniformGridIndex`` and ``KDTree`` stay importable from
#: :mod:`repro.index` for the index ablation and the parity suites.
INDEX_KINDS = {
    "rtree": RTree,
    "brute": BruteForceIndex,
    "cellgraph": CellGraphIndex,
}


@dataclass
class IndexPair:
    """The two shared R-trees of Algorithm 3 (``T_high`` and ``T_low``).

    Building them is part of a batch's setup cost and is done exactly
    once per database, whatever the number of variants or threads.
    """

    t_high: RTree
    t_low: RTree

    @classmethod
    def build(
        cls, points: np.ndarray, low_res_r: int = DEFAULT_LOW_RES_R, *, fanout: int = 16
    ) -> IndexPair:
        return cls(
            t_high=RTree(points, r=1, fanout=fanout),
            t_low=RTree(points, r=low_res_r, fanout=fanout),
        )


class IndexFactory:
    """Session-scoped cache of built spatial indexes.

    Memoization key: ``(store fingerprint, kind, sorted params)``.  A
    hit returns the *same object* (indexes are immutable after
    construction and safe to share across threads and runs); a miss
    builds under an ``index_build`` span so traces attribute setup cost
    correctly.  Mutating a database means a new store with a new
    fingerprint, which naturally misses.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple, SpatialIndex] = {}

    def __len__(self) -> int:
        return len(self._cache)

    def get(
        self,
        store: PointStore,
        kind: str,
        *,
        tracer: Tracer | None = None,
        **params,
    ) -> SpatialIndex:
        """The memoized index of ``kind`` over ``store`` with ``params``.

        ``kind`` is one of :data:`INDEX_KINDS`; ``params`` are the
        kind's constructor keywords (``r=``, ``eps=`` ...).  R-trees
        built here share the store's memoized bin-sort permutation.
        """
        if kind not in INDEX_KINDS:
            raise KeyError(
                f"unknown index kind {kind!r}; expected one of {sorted(INDEX_KINDS)}"
            )
        key = (store.fingerprint, kind, tuple(sorted(params.items())))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        tr = resolve_tracer(tracer)
        with tr.span(SPAN_INDEX_BUILD, kind=kind, n=store.n_points, **{
            k: v for k, v in params.items() if isinstance(v, (int, float, str))
        }):
            if kind == "rtree" and params.get("presort", True):
                bin_width = float(params.get("bin_width", 1.0))
                index = RTree(
                    store.points, order=store.binsort_order(bin_width), **params
                )
            else:
                index = INDEX_KINDS[kind](store.points, **params)
        self._cache[key] = index
        return index

    def index_pair(
        self,
        store: PointStore,
        low_res_r: int = DEFAULT_LOW_RES_R,
        *,
        tracer: Tracer | None = None,
    ) -> IndexPair:
        """Memoized ``(T_high, T_low)`` pair for Algorithm 3."""
        high, low = (
            self.get(store, "rtree", tracer=tracer, r=r, fanout=16)
            for r in (1, int(low_res_r))
        )
        return IndexPair(t_high=high, t_low=low)

    def clear(self) -> None:
        self._cache.clear()
