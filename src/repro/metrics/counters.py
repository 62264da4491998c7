"""Work counters for density clustering runs.

DBSCAN in 2-D is memory-bound (paper Section IV-A): most of the time is
spent walking index nodes and fetching candidate points, while the
distance filter is cheap arithmetic.  The counters below separate these
two kinds of work so the deterministic cost model in
:mod:`repro.exec.cost` can charge *memory traffic* and *compute*
independently — that separation is what lets the simulated executor
reproduce the paper's Figure 4 (r = 1 barely scales with threads, large
r scales well).

Counter semantics
-----------------
``neighbor_searches``
    Number of epsilon-neighborhood queries issued (Algorithm 2 calls).
``index_nodes_visited``
    R-tree (or grid) nodes whose MBBs were tested during tree descent.
    Pointer-chasing traffic; one unit per node touched.
``candidates_examined``
    Points returned by the index as *candidates*, i.e. fetched from the
    point array and run through the distance filter.  Memory traffic
    (the fetch) plus compute (the filter).
``distance_computations``
    Point-to-point distance evaluations (== candidates examined for the
    plain filter; kept separate so batched kernels can report fused
    work).
``neighbors_found``
    Candidates that passed the epsilon filter.
``points_reused``
    Points copied wholesale from a completed variant's cluster without
    any neighborhood search (Algorithm 3 line 9).
``cluster_mbb_sweeps``
    Number of whole-cluster MBB queries against the high-resolution
    tree (Algorithm 3 line 11).
``outside_points_searched``
    Points outside a reused cluster that received an epsilon search
    during boundary discovery (Algorithm 3 lines 13-14).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class WorkCounters:
    """Mutable tally of the work performed by a clustering run.

    Instances are cheap plain structs; hot loops increment attributes
    directly.  Use :meth:`merge` to aggregate counters from sub-phases
    (e.g. the reuse phase and the remainder DBSCAN pass of
    VariantDBSCAN) and :meth:`snapshot` to copy a point-in-time view.
    """

    neighbor_searches: int = 0
    index_nodes_visited: int = 0
    candidates_examined: int = 0
    distance_computations: int = 0
    neighbors_found: int = 0
    points_reused: int = 0
    cluster_mbb_sweeps: int = 0
    outside_points_searched: int = 0

    def merge(self, other: WorkCounters) -> WorkCounters:
        """Add ``other``'s tallies into ``self`` and return ``self``."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def snapshot(self) -> WorkCounters:
        """Return an independent copy of the current tallies."""
        return WorkCounters(**{f.name: getattr(self, f.name) for f in fields(self)})

    def diff(self, baseline: WorkCounters) -> WorkCounters:
        """Return ``self - baseline`` (work done since ``baseline`` was taken)."""
        return WorkCounters(
            **{f.name: getattr(self, f.name) - getattr(baseline, f.name) for f in fields(self)}
        )

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> dict[str, int]:
        """Return the tallies as a plain ``dict`` (for reports / JSON)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, tallies: dict[str, int]) -> WorkCounters:
        """Inverse of :meth:`as_dict`; keys that are not fields are ignored.

        Files written by older versions carry counters that no longer
        exist (the ``neigh_cache_*`` tallies of the removed neighborhood
        cache); reading them back must not fail.
        """
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in tallies.items() if k in names})

    @property
    def total_memory_accesses(self) -> int:
        """Index-node visits plus candidate fetches plus reused-point copies.

        This is the quantity the paper's indexing optimization trades
        against compute: choosing a larger ``r`` shrinks
        ``index_nodes_visited`` at the price of more
        ``candidates_examined``.
        """
        return self.index_nodes_visited + self.candidates_examined + self.points_reused

    def __add__(self, other: WorkCounters) -> WorkCounters:
        return self.snapshot().merge(other)
