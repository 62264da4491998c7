"""Direct unit tests for the executor layer's shared building blocks.

The backends exercise :func:`repro.exec._runner.execute_variant`,
:func:`repro.exec.graph.partition_reuse_chains`, and the calibration
fit only through whole batches; these tests pin their behavior in
isolation — registry eligibility windows, degenerate partition shapes,
and the fit's validation edges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scheduling import (
    CompletedRegistry,
    PlannedVariant,
    dependency_tree,
)
from repro.core.variants import Variant, VariantSet
from repro.engine.session import Session
from repro.exec.calibration import CalibrationSample, fit_cost_model
from repro.exec.graph import partition_reuse_chains
from repro.exec._runner import execute_variant
from repro.metrics.counters import WorkCounters
from repro.util.errors import ValidationError
from repro.util.rng import resolve_rng


@pytest.fixture(scope="module")
def cloud():
    g = resolve_rng(11)
    return np.vstack([g.normal(0, 0.5, (90, 2)), g.uniform(-2, 2, (30, 2))])


@pytest.fixture(scope="module")
def session(cloud):
    with Session(cloud, dataset="units") as s:
        yield s


class TestExecuteVariant:
    def test_scratch_run_with_empty_registry(self, session):
        vset = VariantSet([Variant(0.5, 4)])
        result, record = execute_variant(
            session.context(),
            PlannedVariant(Variant(0.5, 4)),
            vset,
            CompletedRegistry(),
        )
        assert result.reused_from is None
        assert record.reused_from is None
        assert record.variant == Variant(0.5, 4)
        assert record.response_time > 0
        assert len(result.labels) == session.n_points

    def test_reuse_from_seeded_registry_matches_scratch(self, session):
        vset = VariantSet([Variant(0.4, 4), Variant(0.5, 4)])
        ctx = session.context(kernel="bfs")
        registry = CompletedRegistry()
        donor_result, _ = execute_variant(
            ctx, PlannedVariant(Variant(0.4, 4)), vset, registry
        )
        registry.add(Variant(0.4, 4), donor_result, finished_at=0.0)
        reused, rec = execute_variant(
            ctx, PlannedVariant(Variant(0.5, 4)), vset, registry
        )
        assert rec.reused_from == Variant(0.4, 4)
        scratch, _ = execute_variant(
            ctx, PlannedVariant(Variant(0.5, 4)), vset, CompletedRegistry()
        )
        assert reused.labels.tobytes() == scratch.labels.tobytes()

    def test_before_window_gates_donor_eligibility(self, session):
        vset = VariantSet([Variant(0.4, 4), Variant(0.5, 4)])
        ctx = session.context(kernel="bfs")
        registry = CompletedRegistry()
        donor_result, _ = execute_variant(
            ctx, PlannedVariant(Variant(0.4, 4)), vset, registry
        )
        registry.add(Variant(0.4, 4), donor_result, finished_at=5.0)
        early, rec_early = execute_variant(
            ctx, PlannedVariant(Variant(0.5, 4)), vset, registry, before=1.0
        )
        assert rec_early.reused_from is None  # donor not finished yet
        _, rec_late = execute_variant(
            ctx, PlannedVariant(Variant(0.5, 4)), vset, registry, before=5.0
        )
        assert rec_late.reused_from == Variant(0.4, 4)  # inclusive window

    def test_force_scratch_ignores_registry(self, session):
        vset = VariantSet([Variant(0.4, 4), Variant(0.5, 4)])
        ctx = session.context(kernel="bfs")
        registry = CompletedRegistry()
        donor_result, _ = execute_variant(
            ctx, PlannedVariant(Variant(0.4, 4)), vset, registry
        )
        registry.add(Variant(0.4, 4), donor_result, finished_at=0.0)
        _, rec = execute_variant(
            ctx,
            PlannedVariant(Variant(0.5, 4), force_scratch=True),
            vset,
            registry,
        )
        assert rec.reused_from is None

    def test_response_time_priced_at_requested_concurrency(self, session):
        vset = VariantSet([Variant(0.5, 4)])
        ctx = session.context()
        _, rec = execute_variant(
            ctx, PlannedVariant(Variant(0.5, 4)), vset, CompletedRegistry(),
            concurrency=1,
        )
        assert rec.response_time == pytest.approx(
            ctx.spec.cost_model.duration(rec.counters, 1)
        )


class TestPartitionReuseChains:
    def test_single_variant_set(self):
        groups = partition_reuse_chains(VariantSet([Variant(0.5, 4)]), 4)
        assert groups == [[Variant(0.5, 4)]]

    def test_more_workers_than_chains_leaves_no_empty_group(self):
        vset = VariantSet.from_product([0.4, 0.5], [4])
        groups = partition_reuse_chains(vset, 16)
        assert all(groups), "no empty chain lists may be returned"
        assert sum(len(g) for g in groups) == len(vset)

    def test_partition_covers_every_variant_exactly_once(self):
        vset = VariantSet.from_product([0.3, 0.4, 0.5, 0.6], [4, 6, 8])
        for t in (1, 2, 3, 5, 40):
            groups = partition_reuse_chains(vset, t)
            assert len(groups) <= max(1, t)
            flat = sorted(v.as_tuple() for g in groups for v in g)
            assert flat == sorted(v.as_tuple() for v in vset)

    def test_groups_are_reuse_closed_prefixes(self):
        vset = VariantSet.from_product([0.3, 0.4, 0.5, 0.6], [4, 6])
        tree = dependency_tree(vset)
        for group in partition_reuse_chains(vset, 3):
            seen: set[Variant] = set()
            for v in group:
                parent = next(iter(tree.predecessors(v)), None) if v in tree else None
                # in-group parents always precede their dependents
                if parent is not None and parent in set(group):
                    assert parent in seen
                seen.add(v)


class TestFitCostModel:
    @staticmethod
    def _sample(nodes, cands, searches, reused, wall):
        c = WorkCounters(
            index_nodes_visited=nodes,
            candidates_examined=cands,
            neighbor_searches=searches,
            points_reused=reused,
        )
        return CalibrationSample(counters=c, wall_seconds=wall)

    def test_too_few_samples_raises(self):
        samples = [self._sample(10, 10, 10, 0, 1.0)] * 3
        with pytest.raises(ValidationError, match=">= 4"):
            fit_cost_model(samples)

    def test_nonpositive_wall_raises(self):
        samples = [
            self._sample(10 * i, 5 * i, 2 * i, 0, 0.0 if i == 2 else 1.0)
            for i in range(1, 5)
        ]
        with pytest.raises(ValidationError, match="positive"):
            fit_cost_model(samples)

    def test_rank_deficient_design_raises(self):
        samples = [self._sample(10, 20, 5, 0, 1.0)] * 4
        with pytest.raises(ValidationError, match="rank-deficient"):
            fit_cost_model(samples)

    def test_recovers_known_coefficients(self):
        rng = resolve_rng(3)
        true = (1.0, 0.5, 3.0, 0.25)
        samples = []
        for _ in range(8):
            nodes, cands, searches, reused = (
                int(rng.integers(50, 500)),
                int(rng.integers(50, 500)),
                int(rng.integers(5, 80)),
                int(rng.integers(0, 300)),
            )
            wall = (
                true[0] * nodes
                + true[1] * cands
                + true[2] * searches
                + true[3] * reused
            )
            samples.append(self._sample(nodes, cands, searches, reused, wall))
        model = fit_cost_model(samples, bandwidth_saturation=1.7)
        assert model.node_visit_cost == 1.0  # normalization
        assert model.candidate_cost == pytest.approx(0.5, rel=1e-6)
        assert model.search_overhead == pytest.approx(3.0, rel=1e-6)
        assert model.reuse_copy_cost == pytest.approx(0.25, rel=1e-6)
        assert model.bandwidth_saturation == 1.7
