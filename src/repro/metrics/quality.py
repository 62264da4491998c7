"""Per-point clustering quality — the metric of paper Section V-D.

VariantDBSCAN can differ slightly from plain DBSCAN because border
points are order-dependent and partial cluster absorption can split a
would-be-merged cluster.  The paper quantifies the difference with the
DBDC metric of Januzaj, Kriegel & Pfeifle (EDBT 2004):

* a point noise in one result and clustered in the other scores **0**;
* a point noise in both scores **1** (correctly identified);
* a point clustered in both scores the Jaccard overlap
  ``|E ∩ F| / |E ∪ F|`` of its two clusters ``E`` (reference) and
  ``F`` (other).

The *variant quality* is the mean per-point score; the paper reports
>= 0.998 across all experiments, and our test suite asserts the same
order of agreement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.util.errors import ValidationError

if TYPE_CHECKING:  # annotations only: repro.core.result imports this package
    from repro.core.result import ClusteringResult

__all__ = ["per_point_quality", "quality_score"]


def per_point_quality(
    reference: ClusteringResult, other: ClusteringResult
) -> np.ndarray:
    """Vector of per-point scores in ``[0, 1]`` (see module docstring).

    The Jaccard overlaps are computed from the full contingency table
    of co-clustered points in O(n log n) — one ``np.unique`` over
    packed ``(E, F)`` label pairs — rather than per-point set
    intersections.
    """
    if reference.n_points != other.n_points:
        raise ValidationError(
            f"results cover different databases: {reference.n_points} vs "
            f"{other.n_points} points"
        )
    lr = reference.labels
    lo = other.labels
    n = lr.shape[0]
    score = np.zeros(n, dtype=np.float64)
    if n == 0:
        return score

    score[(lr < 0) & (lo < 0)] = 1.0

    both = np.flatnonzero((lr >= 0) & (lo >= 0))
    if both.size:
        e = lr[both]
        f = lo[both]
        k = int(lo.max()) + 1
        packed = e * np.int64(k) + f
        uniq, inv, counts = np.unique(packed, return_inverse=True, return_counts=True)
        size_e = reference.cluster_sizes()
        size_f = other.cluster_sizes()
        ue = (uniq // k).astype(np.int64)
        uf = (uniq % k).astype(np.int64)
        inter = counts.astype(np.float64)
        union = size_e[ue] + size_f[uf] - inter
        score[both] = (inter / union)[inv]
    return score


def quality_score(reference: ClusteringResult, other: ClusteringResult) -> float:
    """Mean per-point quality: 1.0 means identical cluster structure."""
    scores = per_point_quality(reference, other)
    return float(scores.mean()) if scores.size else 1.0
