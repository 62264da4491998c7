"""Tests for VariantDBSCAN (Algorithms 3 & 4).

The headline correctness property, straight from Section V-D of the
paper: a variant computed by reusing another variant's results must be
(near-)identical to computing it from scratch — the paper reports
quality >= 0.998, and on these test datasets we require >= 0.99 with
most cases exactly 1.0.  We also check the monotonicity the inclusion
criteria rest on: relaxing parameters never shrinks a cluster.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dbscan import dbscan
from repro.core.result import NOISE
from repro.core.reuse import CLUS_DEFAULT, CLUS_DENSITY, CLUS_PTS_SQUARED
from repro.core.variant_dbscan import variant_dbscan
from repro.core.variants import Variant
from repro.engine.factory import IndexPair
from repro.metrics.counters import WorkCounters
from repro.metrics.quality import quality_score
from repro.util.errors import ReuseCriteriaError, ValidationError


@pytest.fixture(scope="module")
def blob_indexes(request):
    return None  # placeholder; built per-dataset below


def run_pair(points, src, dst, policy=CLUS_DENSITY, counters=None):
    """Cluster ``src`` from scratch, then ``dst`` reusing it."""
    indexes = IndexPair.build(points, 16)
    prev = dbscan(points, src.eps, src.minpts, index=indexes.t_low)
    res = variant_dbscan(
        points,
        dst,
        prev,
        t_high=indexes.t_high,
        t_low=indexes.t_low,
        reuse_policy=policy,
        counters=counters,
    )
    ref = dbscan(points, dst.eps, dst.minpts, index=indexes.t_low)
    return prev, res, ref


PAIRS = [
    (Variant(0.5, 8), Variant(0.5, 4)),   # relax minpts
    (Variant(0.5, 4), Variant(0.9, 4)),   # grow eps
    (Variant(0.4, 12), Variant(0.8, 4)),  # both
    (Variant(0.5, 4), Variant(6.0, 4)),   # massive eps growth (merges blobs)
]


class TestEquivalenceWithScratch:
    @pytest.mark.parametrize("src,dst", PAIRS, ids=[f"{a}->{b}" for a, b in PAIRS])
    @pytest.mark.parametrize("policy", [CLUS_DEFAULT, CLUS_DENSITY, CLUS_PTS_SQUARED])
    def test_blobs_quality(self, two_blobs, src, dst, policy):
        _, res, ref = run_pair(two_blobs, src, dst, policy)
        assert quality_score(ref, res) >= 0.99

    @pytest.mark.parametrize("src,dst", PAIRS[:2])
    def test_synthetic_quality(self, small_synthetic, src, dst):
        points, _ = small_synthetic
        _, res, ref = run_pair(points, Variant(src.eps * 2, src.minpts), Variant(dst.eps * 2, dst.minpts))
        assert quality_score(ref, res) >= 0.99

    def test_same_cluster_and_noise_counts_on_blobs(self, two_blobs):
        _, res, ref = run_pair(two_blobs, Variant(0.5, 8), Variant(0.6, 4))
        assert res.n_clusters == ref.n_clusters
        assert abs(res.n_noise - ref.n_noise) <= 2  # border-order slack


class TestMonotonicity:
    """Inclusion criteria guarantee: reused clusters only grow."""

    @pytest.mark.parametrize("src,dst", PAIRS)
    def test_old_cluster_members_stay_clustered(self, two_blobs, src, dst):
        prev, res, _ = run_pair(two_blobs, src, dst)
        was_clustered = prev.labels >= 0
        assert (res.labels[was_clustered] >= 0).all()

    def test_old_comembers_stay_comembers(self, two_blobs):
        prev, res, _ = run_pair(two_blobs, Variant(0.5, 8), Variant(0.7, 4))
        for c in range(prev.n_clusters):
            members = np.flatnonzero(prev.labels == c)
            assert np.unique(res.labels[members]).size == 1

    def test_old_core_points_remain_core(self, two_blobs):
        prev, res, _ = run_pair(two_blobs, Variant(0.5, 8), Variant(0.7, 4))
        assert (res.core_mask[prev.core_mask]).all()


class TestReuseAccounting:
    def test_reuse_fraction_positive_and_bounded(self, two_blobs):
        _, res, _ = run_pair(two_blobs, Variant(0.5, 8), Variant(0.6, 4))
        assert 0.0 < res.reuse_fraction <= 1.0
        assert res.points_reused == res.counters.points_reused

    def test_reused_from_recorded(self, two_blobs):
        prev, res, _ = run_pair(two_blobs, Variant(0.5, 8), Variant(0.6, 4))
        assert res.reused_from == prev.variant

    def test_reuse_saves_neighbor_searches(self, two_blobs):
        c = WorkCounters()
        _, res, _ = run_pair(two_blobs, Variant(0.5, 8), Variant(0.5, 4), counters=c)
        c_ref = WorkCounters()
        dbscan(two_blobs, 0.5, 4, counters=c_ref)
        assert c.neighbor_searches < c_ref.neighbor_searches

    def test_scratch_path_when_no_previous(self, two_blobs):
        res = variant_dbscan(two_blobs, Variant(0.6, 4))
        ref = dbscan(two_blobs, 0.6, 4)
        assert quality_score(ref, res) == pytest.approx(1.0)
        assert res.reused_from is None
        assert res.points_reused == 0

    def test_sweep_counters_populated(self, two_blobs):
        c = WorkCounters()
        run_pair(two_blobs, Variant(0.5, 8), Variant(0.6, 4), counters=c)
        assert c.cluster_mbb_sweeps >= 1
        assert c.points_reused > 0


class TestValidation:
    def test_inclusion_criteria_enforced(self, two_blobs):
        indexes = IndexPair.build(two_blobs, 16)
        prev = dbscan(two_blobs, 0.5, 4, index=indexes.t_low)
        with pytest.raises(ReuseCriteriaError):
            variant_dbscan(two_blobs, Variant(0.4, 4), prev, t_high=indexes.t_high, t_low=indexes.t_low)
        with pytest.raises(ReuseCriteriaError):
            variant_dbscan(two_blobs, Variant(0.6, 8), prev, t_high=indexes.t_high, t_low=indexes.t_low)

    def test_self_reuse_rejected(self, two_blobs):
        prev = dbscan(two_blobs, 0.5, 4)
        with pytest.raises(ReuseCriteriaError):
            variant_dbscan(two_blobs, Variant(0.5, 4), prev)

    def test_previous_without_variant_rejected(self, two_blobs):
        prev = dbscan(two_blobs, 0.5, 4)
        prev.variant = None
        with pytest.raises(ReuseCriteriaError):
            variant_dbscan(two_blobs, Variant(0.6, 4), prev)

    def test_size_mismatch_rejected(self, two_blobs):
        prev = dbscan(two_blobs[:-5], 0.5, 4)
        with pytest.raises(ValidationError):
            variant_dbscan(two_blobs, Variant(0.6, 4), prev)


class TestChainsAndEdgeCases:
    def test_three_step_chain_stays_faithful(self, two_blobs):
        indexes = IndexPair.build(two_blobs, 16)
        a = dbscan(two_blobs, 0.4, 12, index=indexes.t_low)
        b = variant_dbscan(two_blobs, Variant(0.5, 8), a, t_high=indexes.t_high, t_low=indexes.t_low)
        c = variant_dbscan(two_blobs, Variant(0.7, 4), b, t_high=indexes.t_high, t_low=indexes.t_low)
        ref = dbscan(two_blobs, 0.7, 4, index=indexes.t_low)
        assert quality_score(ref, c) >= 0.99

    def test_previous_all_noise(self, uniform_cloud):
        """Reusing an all-noise result degenerates to scratch clustering."""
        indexes = IndexPair.build(uniform_cloud, 16)
        prev = dbscan(uniform_cloud, 0.2, 30, index=indexes.t_low)
        assert prev.n_clusters == 0
        res = variant_dbscan(uniform_cloud, Variant(1.5, 5), prev, t_high=indexes.t_high, t_low=indexes.t_low)
        ref = dbscan(uniform_cloud, 1.5, 5, index=indexes.t_low)
        assert quality_score(ref, res) >= 0.99
        assert res.points_reused == 0

    def test_merging_blobs_destroys_one_cluster(self, two_blobs):
        """At eps 6 the two blobs merge; one old cluster must be absorbed."""
        prev, res, ref = run_pair(two_blobs, Variant(0.5, 4), Variant(6.0, 4))
        assert prev.n_clusters >= 2
        assert res.n_clusters == ref.n_clusters
        # merged: strictly fewer clusters than the source
        assert res.n_clusters < prev.n_clusters

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 20, allow_nan=False), st.floats(0, 20, allow_nan=False)),
            min_size=0,
            max_size=50,
        ),
        st.floats(0.3, 3.0),
        st.integers(2, 6),
        st.floats(1.05, 2.0),
        st.integers(0, 3),
    )
    def test_property_reuse_equals_scratch(self, pts, eps, minpts, eps_mult, minpts_drop):
        arr = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        dst = Variant(eps * eps_mult, max(1, minpts - minpts_drop))
        if arr.shape[0] == 0:
            return
        indexes = IndexPair.build(arr, 8)
        prev = dbscan(arr, eps, minpts, index=indexes.t_low)
        res = variant_dbscan(arr, dst, prev, t_high=indexes.t_high, t_low=indexes.t_low)
        ref = dbscan(arr, dst.eps, dst.minpts, index=indexes.t_low)
        assert quality_score(ref, res) >= 0.95
        # monotonicity under the inclusion criteria
        assert (res.labels[prev.labels >= 0] >= 0).all()
