"""Persistence: save/load point databases and clustering results.

A release-quality pipeline needs to move data across processes and
sessions: datasets are generated once and clustered many times, and
clustering results feed downstream analysis (the paper's TID tracking).
Formats:

* **Datasets** — compressed ``.npz`` holding the point array plus
  optional ground truth and metadata (name, scale, generator seed).
* **Clustering results** — compressed ``.npz`` holding labels, core
  flags, the variant parameters, and the work counters, restorable to
  a full :class:`~repro.core.result.ClusteringResult`.
* **Cluster summaries** — plain CSV (one row per cluster: id, size,
  MBB, density) for spreadsheet/GIS consumption.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from repro.core.result import ClusteringResult
from repro.core.variants import Variant
from repro.metrics.counters import WorkCounters
from repro.util.errors import ValidationError
from repro.util.validation import as_points_array

__all__ = [
    "save_dataset",
    "load_dataset_file",
    "save_result",
    "load_result",
    "write_cluster_summary_csv",
]

PathLike = str | Path

_FORMAT_VERSION = 1


def save_dataset(
    path: PathLike,
    points: np.ndarray,
    *,
    truth: np.ndarray | None = None,
    metadata: dict | None = None,
) -> Path:
    """Write a point database (and optional ground truth) to ``.npz``.

    ``metadata`` must be JSON-serializable; it round-trips losslessly.
    Returns the written path.
    """
    path = Path(path)
    points = as_points_array(points)
    payload: dict[str, np.ndarray] = {
        "format_version": np.int64(_FORMAT_VERSION),
        "points": points,
        "metadata_json": np.frombuffer(
            json.dumps(metadata or {}).encode(), dtype=np.uint8
        ),
    }
    if truth is not None:
        truth = np.asarray(truth, dtype=np.int64)
        if truth.shape != (points.shape[0],):
            raise ValidationError(
                f"truth shape {truth.shape} does not match {points.shape[0]} points"
            )
        payload["truth"] = truth
    np.savez_compressed(path, **payload)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_dataset_file(path: PathLike) -> tuple[np.ndarray, np.ndarray | None, dict]:
    """Load a dataset written by :func:`save_dataset`.

    Returns ``(points, truth_or_None, metadata)``.
    """
    with np.load(Path(path)) as z:
        if int(z["format_version"]) > _FORMAT_VERSION:
            raise ValidationError(
                f"dataset file {path} uses a newer format "
                f"({int(z['format_version'])} > {_FORMAT_VERSION})"
            )
        points = as_points_array(z["points"])
        truth = z["truth"].astype(np.int64) if "truth" in z else None
        metadata = json.loads(bytes(z["metadata_json"]).decode() or "{}")
    return points, truth, metadata


def save_result(path: PathLike, result: ClusteringResult) -> Path:
    """Write a clustering result to ``.npz`` (labels, core flags, variant,
    reuse bookkeeping, counters)."""
    path = Path(path)
    meta = {
        "variant": result.variant.as_tuple() if result.variant else None,
        "reused_from": result.reused_from.as_tuple() if result.reused_from else None,
        "points_reused": result.points_reused,
        "elapsed": result.elapsed,
        "counters": result.counters.as_dict(),
    }
    np.savez_compressed(
        path,
        format_version=np.int64(_FORMAT_VERSION),
        labels=result.labels,
        core_mask=result.core_mask,
        meta_json=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_result(path: PathLike) -> ClusteringResult:
    """Restore a :class:`ClusteringResult` written by :func:`save_result`."""
    with np.load(Path(path)) as z:
        if int(z["format_version"]) > _FORMAT_VERSION:
            raise ValidationError(f"result file {path} uses a newer format")
        labels = z["labels"].astype(np.int64)
        core_mask = z["core_mask"].astype(bool)
        meta = json.loads(bytes(z["meta_json"]).decode())
    counters = WorkCounters.from_dict(meta["counters"])
    return ClusteringResult(
        labels,
        core_mask,
        variant=Variant(*meta["variant"]) if meta["variant"] else None,
        reused_from=Variant(*meta["reused_from"]) if meta["reused_from"] else None,
        points_reused=int(meta["points_reused"]),
        elapsed=float(meta["elapsed"]),
        counters=counters,
    )


def write_cluster_summary_csv(
    path: PathLike, result: ClusteringResult, points: np.ndarray
) -> Path:
    """Write one CSV row per cluster: id, size, MBB corners, density.

    Noise is summarized in a trailing row with ``cluster_id = -1``.
    """
    path = Path(path)
    points = as_points_array(points)
    sizes = result.cluster_sizes()
    mbbs = result.cluster_mbbs(points) if result.n_clusters else np.empty((0, 4))
    dens = result.cluster_densities(points) if result.n_clusters else np.empty(0)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cluster_id", "size", "xmin", "ymin", "xmax", "ymax", "density"])
        for c in range(result.n_clusters):
            w.writerow(
                [c, int(sizes[c])]
                + [f"{v:.6g}" for v in mbbs[c]]
                + [f"{dens[c]:.6g}"]
            )
        w.writerow([-1, result.n_noise, "", "", "", "", ""])
    return path
