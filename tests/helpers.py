"""Helpers shared across test modules."""

from __future__ import annotations

import numpy as np

from repro import Session
from repro.core.neighbors import NeighborSearcher
from repro.core.result import NOISE


def run_batch(points, variants, executor="serial", **knobs):
    """Run ``variants`` once through a private, closed-on-return Session."""
    with Session(points) as session:
        return session.run(variants, executor=executor, **knobs)


def scalar_dbscan(index, eps, minpts, counters=None):
    """Algorithm 1 as the paper writes it: the test suite's oracle.

    An outer scan over the points plus a FIFO seed list, one
    :meth:`~repro.core.neighbors.NeighborSearcher.search` per visited
    point.  Returns ``(labels, core_mask)``; ``counters`` (if given)
    receives the work the scalar machine charges, which the batched
    engine must equal exactly.
    """
    searcher = NeighborSearcher(index, eps, counters)
    n = index.points.shape[0]
    labels = np.full(n, NOISE, dtype=np.int64)
    core_mask = np.zeros(n, dtype=bool)
    visited = np.zeros(n, dtype=bool)
    in_seeds = np.zeros(n, dtype=bool)
    cid = 0
    for p in range(n):
        if visited[p]:
            continue
        visited[p] = True
        neigh = searcher.search(p)
        if neigh.size < minpts:
            continue  # tentative noise; may become a border point later
        labels[p] = cid
        core_mask[p] = True
        in_seeds[neigh] = True
        in_seeds[p] = True
        seeds = [int(i) for i in neigh if i != p]
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
                    in_seeds[fresh] = True
                    seeds.extend(fresh.tolist())
            if labels[q] == NOISE:
                labels[q] = cid
        cid += 1
    return labels, core_mask
