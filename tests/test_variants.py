"""Tests for :mod:`repro.core.variants` (parameters, inclusion criteria)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.bench.scenarios import S3_CONFIGS
from repro.core.scheduling import dependency_tree
from repro.core.variants import Variant, VariantSet, sort_key
from repro.util.errors import ValidationError

eps_vals = st.floats(0.01, 100.0, allow_nan=False)
minpts_vals = st.integers(1, 200)
variants = st.builds(Variant, eps=eps_vals, minpts=minpts_vals)


class TestVariant:
    def test_construction_and_fields(self):
        v = Variant(0.5, 4)
        assert v.eps == 0.5
        assert v.minpts == 4

    def test_hashable_and_equal(self):
        assert Variant(0.5, 4) == Variant(0.5, 4)
        assert len({Variant(0.5, 4), Variant(0.5, 4)}) == 1

    @pytest.mark.parametrize("eps,minpts", [(0.0, 4), (-1.0, 4), (0.5, 0), (0.5, -2)])
    def test_invalid_rejected(self, eps, minpts):
        with pytest.raises(ValidationError):
            Variant(eps, minpts)

    def test_can_reuse_requires_eps_geq_and_minpts_leq(self):
        assert Variant(0.6, 4).can_reuse(Variant(0.2, 32))
        assert Variant(0.2, 4).can_reuse(Variant(0.2, 32))
        assert Variant(0.6, 32).can_reuse(Variant(0.2, 32))
        assert not Variant(0.1, 4).can_reuse(Variant(0.2, 32))
        assert not Variant(0.6, 40).can_reuse(Variant(0.2, 32))

    def test_no_self_reuse(self):
        v = Variant(0.3, 8)
        assert not v.can_reuse(v)

    @given(variants, variants)
    def test_reuse_antisymmetric_unless_equal(self, a, b):
        """Mutual reusability would imply identical parameters."""
        if a.can_reuse(b) and b.can_reuse(a):
            pytest.fail("distinct variants cannot mutually satisfy inclusion")

    @given(variants, variants, variants)
    def test_reuse_transitive(self, a, b, c):
        if a.can_reuse(b) and b.can_reuse(c):
            assert a.can_reuse(c)

    def test_parameter_distance_normalized(self):
        a, b = Variant(0.2, 4), Variant(0.6, 8)
        assert a.parameter_distance(b, eps_span=0.4, minpts_span=4.0) == pytest.approx(2.0)

    def test_distance_symmetric(self):
        a, b = Variant(0.2, 4), Variant(0.6, 8)
        assert a.parameter_distance(b) == b.parameter_distance(a)


class TestVariantSet:
    def test_canonical_order(self):
        vs = VariantSet.from_pairs([(0.4, 4), (0.2, 4), (0.2, 32), (0.4, 8)])
        assert [v.as_tuple() for v in vs] == [
            (0.2, 32),
            (0.2, 4),
            (0.4, 8),
            (0.4, 4),
        ]

    def test_deduplicates(self):
        vs = VariantSet.from_pairs([(0.2, 4), (0.2, 4)])
        assert len(vs) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            VariantSet([])

    def test_non_variant_rejected(self):
        with pytest.raises(ValidationError):
            VariantSet([(0.2, 4)])  # type: ignore[list-item]

    def test_from_product_matches_paper_notation(self):
        """Section V-B example: A={0.1,0.2}, B={1,2}."""
        vs = VariantSet.from_product([0.1, 0.2], [1, 2])
        assert set(v.as_tuple() for v in vs) == {
            (0.1, 1),
            (0.1, 2),
            (0.2, 1),
            (0.2, 2),
        }

    def test_s2_grid_size(self):
        """Table III: |V| = 24."""
        vs = VariantSet.from_product([0.2, 0.4, 0.6], range(4, 33, 4))
        assert len(vs) == 24

    def test_contains_and_getitem(self):
        vs = VariantSet.from_product([0.2], [4, 8])
        assert Variant(0.2, 4) in vs
        assert vs[0] == Variant(0.2, 8)

    def test_eps_and_minpts_values(self):
        vs = VariantSet.from_product([0.4, 0.2], [8, 4])
        assert vs.eps_values == (0.2, 0.4)
        assert vs.minpts_values == (4, 8)

    def test_spans(self):
        vs = VariantSet.from_product([0.2, 0.6], [4, 32])
        assert vs.eps_span == pytest.approx(0.4)
        assert vs.minpts_span == pytest.approx(28.0)

    @pytest.mark.parametrize("name", ["V1", "V3"])
    def test_cached_spans_and_forest_edges_match_a_fresh_computation(self, name):
        cfg = next(c for c in S3_CONFIGS if c.dataset == "SW1" and c.variant_set_name == name)
        vs = VariantSet.from_product(cfg.eps_values, cfg.minpts_values)
        eps = [v.eps for v in vs]
        minpts = [v.minpts for v in vs]
        eps_span, minpts_span = max(eps) - min(eps), float(max(minpts) - min(minpts))
        for _ in range(2):  # the first read computes, the second is cached
            assert (vs.eps_span, vs.minpts_span) == (eps_span, minpts_span)
            assert vs.eps_values == tuple(sorted(set(eps)))
            assert vs.minpts_values == tuple(sorted(set(minpts)))
        want = set()
        for v in vs:
            sources = [u for u in vs if v.can_reuse(u)]
            if sources:
                parent = min(
                    sources,
                    key=lambda u: (v.parameter_distance(u, eps_span, minpts_span), sort_key(u)),
                )
                want.add((parent, v))
        assert set(dependency_tree(vs).edges) == want
        assert len(want) == len(vs) - 1

    def test_degenerate_span_fallback(self):
        vs = VariantSet.from_product([0.2], [4])
        assert vs.eps_span > 0
        assert vs.minpts_span > 0

    def test_reusable_sources(self):
        vs = VariantSet.from_product([0.2, 0.4], [4, 8])
        sources = vs.reusable_sources(Variant(0.4, 4))
        assert set(s.as_tuple() for s in sources) == {(0.2, 4), (0.2, 8), (0.4, 8)}

    def test_max_reuse_fraction(self):
        """Section IV-D: f = (|V| - T) / |V|."""
        vs = VariantSet.from_product([0.2, 0.4, 0.6], range(4, 33, 4))
        assert vs.max_reuse_fraction(1) == pytest.approx(23 / 24)
        assert vs.max_reuse_fraction(16) == pytest.approx(8 / 24)
        assert vs.max_reuse_fraction(100) == 0.0

    def test_equality_and_hash(self):
        a = VariantSet.from_product([0.2], [4, 8])
        b = VariantSet.from_pairs([(0.2, 8), (0.2, 4)])
        assert a == b
        assert hash(a) == hash(b)

    @given(st.lists(st.tuples(eps_vals, minpts_vals), min_size=1, max_size=30))
    def test_sorted_by_canonical_key(self, pairs):
        vs = VariantSet.from_pairs(pairs)
        keys = [sort_key(v) for v in vs]
        assert keys == sorted(keys)
