"""Memoized index construction — build ``T_high``/``T_low`` once, ever.

The paper's Algorithm 3 charges index construction to batch setup and
amortizes it over every variant; this module amortizes it further, over
every *run of the session*: an :class:`IndexFactory` memoizes built
indexes on ``(store fingerprint, index kind, params)``, so repeated
runs, benchmark iterations, and figure drivers over the same database
reuse the same objects instead of re-sorting and re-packing the trees.

Also here:

* :class:`IndexPair` — the two shared R-trees of Algorithm 3 (moved
  from ``repro.exec.base``, which re-exports it for compatibility).
* :func:`share_indexes` / :func:`attach_indexes` — the shared-memory
  transport that lets lane workers *reattach* the parent's already-built
  indexes (flat arrays, zero-copy views; the R-tree pair or the per-eps
  cell grids, whichever the batch's kernel reads) instead of rebuilding
  them per worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.variant_dbscan import DEFAULT_LOW_RES_R
from repro.engine.shm import (
    ArrayPackHandle,
    attach_arrays,
    pack_arrays,
    release_segment,
)
from repro.engine.store import SPAN_SHM_ATTACH, PointStore
from repro.index.brute import BruteForceIndex
from repro.index.cellgraph import CellGraphIndex
from repro.index.rtree import RTree
from repro.obs.span import Tracer, resolve_tracer

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing import shared_memory

    from repro.index.base import SpatialIndex

__all__ = [
    "INDEX_KINDS",
    "IndexFactory",
    "IndexPackHandle",
    "IndexPair",
    "SPAN_INDEX_BUILD",
    "attach_indexes",
    "pair_params",
    "share_indexes",
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


def pair_params(low_res_r: int = DEFAULT_LOW_RES_R) -> list[tuple[str, dict]]:
    """The factory ``(kind, params)`` of ``T_high`` and ``T_low``."""
    return [("rtree", {"r": 1, "fanout": 16}), ("rtree", {"r": int(low_res_r), "fanout": 16})]


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

    @staticmethod
    def _key(store: PointStore, kind: str, params: dict) -> tuple:
        return (store.fingerprint, kind, tuple(sorted(params.items())))

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
        key = self._key(store, kind, params)
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
            self.get(store, kind, tracer=tracer, **params)
            for kind, params in pair_params(low_res_r)
        )
        return IndexPair(t_high=high, t_low=low)

    def seed(
        self, store: PointStore, kind: str, index: SpatialIndex, **params
    ) -> None:
        """Memoize an index built elsewhere as ``kind`` with ``params``."""
        self._cache[self._key(store, kind, params)] = index

    def clear(self) -> None:
        self._cache.clear()


# ----------------------------------------------------------------------
# shared-memory transport for built indexes
# ----------------------------------------------------------------------
def _shell_params(index: SpatialIndex) -> dict:
    """The scalars ``from_arrays`` needs besides the flat arrays."""
    if isinstance(index, RTree):
        return {"r": index.r, "fanout": index.fanout, "bin_width": index.bin_width}
    if isinstance(index, CellGraphIndex):
        return {"eps": index.eps}
    raise TypeError(f"{type(index).__name__} has no shared-memory form")


@dataclass(frozen=True)
class IndexPackHandle:
    """Picklable description of built indexes packed into one segment.

    ``entries`` holds one ``(kind, factory params, shell params)``
    triple per index, in pack order: the factory params are the
    index's memoization key, the shell params the scalars its
    ``from_arrays`` takes.  ``pack`` names every flat array, under the
    prefix ``"<entry number>/"``.
    """

    pack: ArrayPackHandle
    entries: tuple[tuple[str, tuple, tuple], ...]


def share_indexes(
    factory: IndexFactory,
    store: PointStore,
    wanted: list[tuple[str, dict]],
    *,
    tracer: Tracer | None = None,
) -> tuple[shared_memory.SharedMemory, IndexPackHandle]:
    """Pack the ``wanted`` ``(kind, params)`` indexes into one owned segment.

    Each index comes from ``factory`` (built there on a miss), so a
    session's memoized indexes ship as they are.  Arrays several
    indexes hold as one object (the bin-sort permutation that
    factory-built R-trees share) are stored once.  The caller owns the
    returned segment and must ``close()`` + ``unlink()`` it after the
    workers are done.
    """
    arrays: dict[str, np.ndarray] = {}
    entries = []
    for i, (kind, params) in enumerate(wanted):
        index = factory.get(store, kind, tracer=tracer, **params)
        for key, arr in index.shareable_arrays.items():
            arrays[f"{i}/{key}"] = arr
        entries.append(
            (kind, tuple(sorted(params.items())), tuple(_shell_params(index).items()))
        )
    described = tuple(entries)
    tr = resolve_tracer(tracer)
    kinds = ",".join(sorted({kind for kind, _ in wanted}))
    with tr.span(SPAN_SHM_ATTACH, what="indexes-create", kinds=kinds):
        shm, pack = pack_arrays(arrays, "idx")
    return shm, IndexPackHandle(pack=pack, entries=described)


def attach_indexes(
    handle: IndexPackHandle,
    store: PointStore,
    factory: IndexFactory,
    *,
    tracer: Tracer | None = None,
) -> shared_memory.SharedMemory:
    """Reattach a pack as zero-copy index shells seeded into ``factory``.

    ``store`` is the (typically also shared) database the indexes were
    built over; afterwards ``factory.get`` answers every packed
    ``(kind, params)`` without building.  The caller must ``close()``
    the returned segment when the indexes are discarded — never
    ``unlink`` it.
    """
    tr = resolve_tracer(tracer)
    with tr.span(SPAN_SHM_ATTACH, segment=handle.pack.name, what="indexes"):
        shm, arrays = attach_arrays(handle.pack)
    try:
        for i, (kind, params, shell) in enumerate(handle.entries):
            prefix = f"{i}/"
            sub = {
                key[len(prefix):]: arr
                for key, arr in arrays.items()
                if key.startswith(prefix)
            }
            index = INDEX_KINDS[kind].from_arrays(store.points, arrays=sub, **dict(shell))
            factory.seed(store, kind, index, **dict(params))
        return shm
    except Exception:
        # A malformed pack must not leak this process's mapping of the
        # (caller-owned) segment.
        release_segment(shm)
        raise
