"""End-to-end integration tests: data generation -> indexing ->
variant-batch execution -> quality measurement, across executors and
scales.

These are the "does the whole pipeline hold together" checks, including
the scale-stability property DESIGN.md promises: relative effects
(reuse beats reference; r = 1 concurrency ceiling) hold at two
different dataset scales.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.reference import reference_run
from repro.core.reuse import CLUS_DENSITY
from repro.core.variants import VariantSet
from repro.data.registry import load_dataset
from repro.engine import Session
from repro.metrics.quality import quality_score
from repro.util.rng import resolve_rng
from tests.helpers import run_batch

VSET = VariantSet.from_product([0.3, 0.5], [4, 8])


@pytest.fixture(scope="module")
def sw_tiny():
    return load_dataset("SW1", 0.002)


class TestPipeline:
    def test_sw_pipeline_quality_across_executors(self, sw_tiny):
        pts = sw_tiny.points
        with Session(pts) as session:
            ref = reference_run(pts, VSET, index=session.indexes().t_high)
            for executor, n_threads in (("serial", 1), ("simulated", 4)):
                batch = session.run(VSET, executor=executor, n_threads=n_threads)
                for v in VSET:
                    assert quality_score(ref.results[v], batch.results[v]) >= 0.99, (
                        f"{executor} diverged on {v}"
                    )

    def test_process_pool_pipeline(self, sw_tiny):
        pts = sw_tiny.points
        ref = reference_run(pts, VSET)
        batch = run_batch(pts, VSET, "processes", n_threads=2)
        for v in VSET:
            assert quality_score(ref.results[v], batch.results[v]) >= 0.99

    def test_synthetic_truth_recovery_through_batch(self):
        ds = load_dataset("cF_10k_5N", 0.1)  # 1000 points, known truth
        batch = run_batch(ds.points, VariantSet.from_product([0.8], [4]))
        res = next(iter(batch.results.values()))
        truth = ds.truth
        clustered = (truth >= 0) & (res.labels >= 0)
        # most co-members in truth stay co-members in the clustering
        agree = 0
        total = 0
        rng = resolve_rng(0)
        idx = rng.choice(np.flatnonzero(clustered), size=min(200, clustered.sum()), replace=False)
        for i in idx:
            same_truth = truth == truth[i]
            same_found = res.labels == res.labels[i]
            total += 1
            agree += (same_truth & same_found).sum() >= 0.5 * same_truth.sum()
        assert agree / total > 0.8


class TestScaleStability:
    """Relative effects must not depend on the chosen dataset scale."""

    @pytest.mark.parametrize("scale", [0.001, 0.003])
    def test_reuse_beats_reference_at_any_scale(self, scale):
        ds = load_dataset("SW1", scale)
        vs = VariantSet.from_product([0.3, 0.5], [4, 8, 12])
        ref = reference_run(ds.points, vs)
        batch = run_batch(ds.points, vs, kernel="bfs", policy=CLUS_DENSITY)
        assert ref.total_units / batch.record.makespan > 1.0

    @pytest.mark.parametrize("scale", [0.001, 0.003])
    def test_unindexed_concurrency_ceiling_at_any_scale(self, scale):
        from repro.bench.figures import fig4_indexing
        from repro.bench.scenarios import S1_CONFIGS

        rows = fig4_indexing(scale, configs=S1_CONFIGS[:1], r_sweep=(1, 70))
        (row,) = rows
        assert row["speedup_r1"] < 5.0
        assert row["speedup_by_r"][70] > 2 * row["speedup_r1"]
