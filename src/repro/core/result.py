"""Clustering output container.

A clustering of ``n`` points is stored structure-of-arrays style:

* ``labels`` — ``int64`` array, ``labels[i] == -1`` marks noise and
  ``labels[i] == c >= 0`` assigns point ``i`` to cluster ``c``.  Cluster
  ids are dense and numbered in *generation order* (the order the
  clustering algorithm created them), which is what the CLUSDEFAULT
  reuse heuristic keys on.
* ``core_mask`` — boolean array marking core points (``|N_eps| >=
  minpts``); border points are cluster members with ``core_mask ==
  False``.

Per-cluster derived quantities (member lists, MBBs, densities) are
computed lazily and cached, because VariantDBSCAN only needs them for
results that actually get reused.
"""

from __future__ import annotations


import numpy as np

from repro.core.variants import Variant
from repro.index.mbb import mbb_of_points
from repro.metrics.counters import WorkCounters
from repro.util.errors import ValidationError

NOISE = -1


class ClusteringResult:
    """Labels, core flags, and bookkeeping for one clustering run.

    Parameters
    ----------
    labels:
        ``(n,)`` integer labels; -1 is noise, cluster ids must be the
        dense range ``0..k-1`` (any gap raises).
    core_mask:
        ``(n,)`` boolean core-point flags.
    variant:
        The parameters that produced this result (optional for ad-hoc
        clusterings).
    counters:
        Work performed producing the result.
    points_reused:
        Number of points inherited from a reused variant (0 for a
        from-scratch run); used for the Figure 5/7b reuse fractions.
    reused_from:
        The variant whose results seeded this run, if any.
    elapsed:
        Wall-clock seconds spent producing the result.
    """

    def __init__(
        self,
        labels: np.ndarray,
        core_mask: np.ndarray,
        *,
        variant: Variant | None = None,
        counters: WorkCounters | None = None,
        points_reused: int = 0,
        reused_from: Variant | None = None,
        elapsed: float = 0.0,
    ) -> None:
        labels = np.asarray(labels, dtype=np.int64)
        core_mask = np.asarray(core_mask, dtype=bool)
        if labels.ndim != 1 or core_mask.shape != labels.shape:
            raise ValidationError(
                f"labels {labels.shape!r} and core_mask {core_mask.shape!r} "
                "must be equal-length 1-D arrays"
            )
        if labels.size and labels.min() < NOISE:
            raise ValidationError("labels may not be below -1")
        n_clusters = int(labels.max()) + 1 if labels.size and labels.max() >= 0 else 0
        if n_clusters:
            present = np.count_nonzero(
                np.bincount(labels[labels >= 0], minlength=n_clusters)
            )
            if present != n_clusters:
                raise ValidationError(
                    f"cluster ids must be dense 0..{n_clusters - 1}; "
                    f"found {present} distinct ids"
                )
        self.labels = labels
        self.core_mask = core_mask
        self.variant = variant
        self.counters = counters if counters is not None else WorkCounters()
        self.points_reused = int(points_reused)
        self.reused_from = reused_from
        self.elapsed = float(elapsed)
        self._n_clusters = n_clusters
        self._members: list[np.ndarray] | None = None
        self._mbbs: np.ndarray | None = None

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return int(self.labels.shape[0])

    @property
    def n_clusters(self) -> int:
        return self._n_clusters

    @property
    def noise_mask(self) -> np.ndarray:
        """Boolean mask of noise points."""
        return self.labels == NOISE

    @property
    def n_noise(self) -> int:
        return int(np.count_nonzero(self.labels == NOISE))

    @property
    def reuse_fraction(self) -> float:
        """Fraction of the database inherited without neighborhood searches."""
        return self.points_reused / self.n_points if self.n_points else 0.0

    # ------------------------------------------------------------------
    # per-cluster views (lazy)
    # ------------------------------------------------------------------
    def cluster_members(self) -> list[np.ndarray]:
        """Member point indices per cluster id, computed once and cached.

        Uses a single argsort of the label array rather than ``k``
        boolean scans, so it is O(n log n) regardless of cluster count.
        """
        if self._members is None:
            members: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * self._n_clusters
            if self._n_clusters:
                clustered = np.flatnonzero(self.labels >= 0)
                lbl = self.labels[clustered]
                order = np.argsort(lbl, kind="stable")
                sorted_idx = clustered[order]
                sorted_lbl = lbl[order]
                boundaries = np.searchsorted(
                    sorted_lbl, np.arange(self._n_clusters + 1)
                )
                members = [
                    sorted_idx[boundaries[c] : boundaries[c + 1]].astype(np.int64)
                    for c in range(self._n_clusters)
                ]
            self._members = members
        return self._members

    def cluster_sizes(self) -> np.ndarray:
        """Number of members per cluster id."""
        if self._n_clusters == 0:
            return np.empty(0, dtype=np.int64)
        return np.bincount(
            self.labels[self.labels >= 0], minlength=self._n_clusters
        ).astype(np.int64)

    def cluster_mbbs(self, points: np.ndarray) -> np.ndarray:
        """Tight MBB per cluster, shape ``(n_clusters, 4)``; cached."""
        if self._mbbs is None:
            members = self.cluster_members()
            mbbs = np.empty((self._n_clusters, 4), dtype=np.float64)
            for c, idx in enumerate(members):
                mbbs[c] = mbb_of_points(points[idx])
            self._mbbs = mbbs
        return self._mbbs

    def cluster_densities(
        self, points: np.ndarray, *, squared: bool = False, eps: float = 0.0
    ) -> np.ndarray:
        """Density measure per cluster: ``|C| / a`` (or ``|C|^2 / a``).

        ``a`` is the area of the MBB circumscribing the cluster
        (Section IV-C), **augmented by ``eps`` on every side** when an
        eps is given.  The augmented box is the footprint VariantDBSCAN
        actually sweeps when expanding the cluster (Algorithm 3
        line 10), so it is the operationally meaningful area: it also
        keeps tiny few-point clusters — whose raw MBBs are nearly
        degenerate — from ranking as infinitely dense and hijacking the
        CLUSDENSITY order ahead of genuinely dense large clusters.
        With ``eps = 0`` the raw MBB is used (a small floor guards
        against zero-area boxes).
        """
        sizes = self.cluster_sizes().astype(np.float64)
        mbbs = self.cluster_mbbs(points)
        areas = np.maximum(
            (mbbs[:, 2] - mbbs[:, 0] + 2.0 * eps)
            * (mbbs[:, 3] - mbbs[:, 1] + 2.0 * eps),
            1e-12,
        )
        num = sizes**2 if squared else sizes
        return num / areas

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Small JSON-friendly summary used by the bench reporting."""
        return {
            "variant": self.variant.as_tuple() if self.variant else None,
            "n_points": self.n_points,
            "n_clusters": self.n_clusters,
            "n_noise": self.n_noise,
            "points_reused": self.points_reused,
            "reuse_fraction": self.reuse_fraction,
            "reused_from": self.reused_from.as_tuple() if self.reused_from else None,
            "elapsed": self.elapsed,
            "counters": self.counters.as_dict(),
        }

    def __repr__(self) -> str:
        v = f" variant={self.variant}" if self.variant else ""
        return (
            f"ClusteringResult(n={self.n_points}, clusters={self.n_clusters}, "
            f"noise={self.n_noise}{v})"
        )


def relabel_dense(raw_labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Compress arbitrary non-negative cluster ids to dense 0..k-1.

    Preserves first-appearance order (so generation order survives) and
    keeps -1 as noise.  Returns the new labels and the cluster count.
    """
    raw_labels = np.asarray(raw_labels, dtype=np.int64)
    out = np.full_like(raw_labels, NOISE)
    clustered = np.flatnonzero(raw_labels >= 0)
    if clustered.size == 0:
        return out, 0
    uniq, first_idx, inverse = np.unique(
        raw_labels[clustered], return_index=True, return_inverse=True
    )
    # np.unique sorts by value; re-rank the unique ids by first appearance
    # so generation order survives the compression.
    appearance = np.argsort(first_idx, kind="stable")
    rank = np.empty(uniq.shape[0], dtype=np.int64)
    rank[appearance] = np.arange(uniq.shape[0], dtype=np.int64)
    out[clustered] = rank[inverse]
    return out, int(uniq.shape[0])
