"""Tests for dataset/result persistence (:mod:`repro.data.io`)."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from repro.core.dbscan import dbscan
from repro.data.io import (
    load_dataset_file,
    load_result,
    save_dataset,
    save_result,
    write_cluster_summary_csv,
)
from repro.util.errors import ValidationError


@pytest.fixture()
def sample(two_blobs):
    return two_blobs, dbscan(two_blobs, 0.6, 4)


class TestDatasetRoundTrip:
    def test_points_and_metadata(self, tmp_path, two_blobs):
        p = tmp_path / "data.npz"
        save_dataset(p, two_blobs, metadata={"name": "blobs", "scale": 0.5})
        pts, truth, meta = load_dataset_file(p)
        assert np.array_equal(pts, two_blobs)
        assert truth is None
        assert meta == {"name": "blobs", "scale": 0.5}

    def test_truth_roundtrip(self, tmp_path, two_blobs):
        p = tmp_path / "data.npz"
        truth = np.arange(len(two_blobs)) % 3 - 1
        save_dataset(p, two_blobs, truth=truth)
        _, loaded, _ = load_dataset_file(p)
        assert np.array_equal(loaded, truth)

    def test_truth_shape_mismatch_rejected(self, tmp_path, two_blobs):
        with pytest.raises(ValidationError):
            save_dataset(tmp_path / "x.npz", two_blobs, truth=np.zeros(3))

    def test_empty_metadata_default(self, tmp_path, two_blobs):
        p = tmp_path / "d.npz"
        save_dataset(p, two_blobs)
        _, _, meta = load_dataset_file(p)
        assert meta == {}


class TestResultRoundTrip:
    def test_full_roundtrip(self, tmp_path, sample):
        pts, res = sample
        p = tmp_path / "res.npz"
        save_result(p, res)
        back = load_result(p)
        assert np.array_equal(back.labels, res.labels)
        assert np.array_equal(back.core_mask, res.core_mask)
        assert back.variant == res.variant
        assert back.counters.as_dict() == res.counters.as_dict()
        assert back.elapsed == pytest.approx(res.elapsed)

    def test_reuse_fields_roundtrip(self, tmp_path, two_blobs):
        from repro.core.variant_dbscan import variant_dbscan
        from repro.core.variants import Variant

        prev = dbscan(two_blobs, 0.5, 8)
        res = variant_dbscan(two_blobs, Variant(0.7, 4), prev)
        p = tmp_path / "r.npz"
        save_result(p, res)
        back = load_result(p)
        assert back.reused_from == prev.variant
        assert back.points_reused == res.points_reused

    def test_file_from_before_cache_removal_loads(self, tmp_path, sample):
        # Results saved while the neighborhood cache existed carry
        # neigh_cache_* counters; they are dropped on load.
        _, res = sample
        p = tmp_path / "legacy.npz"
        save_result(p, res)
        with np.load(p) as z:
            arrays = dict(z)
        meta = json.loads(bytes(arrays["meta_json"]).decode())
        meta["counters"].update(
            neigh_cache_hits=3, neigh_cache_misses=5, neigh_cache_bytes=64
        )
        arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(p, **arrays)
        back = load_result(p)
        assert back.counters.as_dict() == res.counters.as_dict()
        assert np.array_equal(back.labels, res.labels)


class TestSummaryCsv:
    def test_rows_match_clusters(self, tmp_path, sample):
        pts, res = sample
        p = tmp_path / "summary.csv"
        write_cluster_summary_csv(p, res, pts)
        with open(p) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "cluster_id"
        assert len(rows) == res.n_clusters + 2  # header + clusters + noise row
        sizes = res.cluster_sizes()
        for c in range(res.n_clusters):
            assert int(rows[1 + c][1]) == sizes[c]
        assert rows[-1][0] == "-1"
        assert int(rows[-1][1]) == res.n_noise
