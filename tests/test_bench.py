"""Tests for the benchmark harness: scenario definitions match the
paper's tables, the figure drivers run end-to-end at tiny scale, and
the paper's qualitative shapes hold."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.figures import (
    fig4_indexing,
    fig5_per_variant,
    fig6_scatter,
    fig7_summary,
    fig8_combined,
    fig9_makespan,
    table1_rows,
)
from repro.bench.reference import reference_run
from repro.bench.reporting import format_table, format_value, fraction_bar
from repro.bench.scenarios import (
    S1_CONFIGS,
    S2_CONFIG,
    S3_CONFIGS,
    s3_variant_set,
)
from repro.core.reuse import CLUS_DENSITY
from repro.core.variants import VariantSet
from repro.data.registry import load_dataset

TINY = 0.002  # tiny scale so harness tests stay fast


class TestScenarioDefinitions:
    def test_s1_matches_table2(self):
        cfg = {c.dataset: c.eps for c in S1_CONFIGS}
        assert cfg == {
            "cF_1M_5N": 0.5,
            "cF_100k_5N": 4.0,
            "cF_10k_5N": 10.0,
            "cV_1M_30N": 0.5,
            "cV_100k_30N": 2.0,
            "cV_10k_30N": 10.0,
            "SW1": 0.5,
        }
        assert all(c.minpts == 4 and c.n_copies == 16 for c in S1_CONFIGS)

    def test_s2_matches_table3(self):
        assert S2_CONFIG.eps_values == (0.2, 0.4, 0.6)
        assert S2_CONFIG.minpts_values == tuple(range(4, 33, 4))
        assert len(S2_CONFIG.datasets) == 7
        ds = load_dataset("cF_10k_5N", TINY)
        assert len(S2_CONFIG.variant_set(ds)) == 24

    def test_s3_matches_table4(self):
        cells = {(c.dataset, c.variant_set_name) for c in S3_CONFIGS}
        assert cells == {
            ("SW1", "V1"),
            ("SW1", "V3"),
            ("SW2", "V1"),
            ("SW2", "V3"),
            ("SW3", "V1"),
            ("SW3", "V3"),
            ("SW4", "V2"),
            ("SW4", "V3"),
        }
        ds = load_dataset("SW1", TINY)
        for name in ("V1", "V2", "V3"):
            assert len(s3_variant_set(ds, name)) == 57

    def test_s3_v3_eps_grid(self):
        ds = load_dataset("SW1", TINY)
        vs = s3_variant_set(ds, "V3")
        assert vs.minpts_values == (4, 8, 16)
        assert len(vs.eps_values) == 19
        assert vs.eps_values[0] == pytest.approx(0.04)
        assert vs.eps_values[-1] == pytest.approx(0.40)


class TestReference:
    def test_reference_runs_all_variants(self):
        ds = load_dataset("cF_10k_5N", TINY)
        vs = VariantSet.from_product([5.0, 8.0], [4, 8])
        ref = reference_run(ds.points, vs)
        assert set(ref.results) == set(vs)
        assert ref.total_units > 0
        assert ref.total_wall > 0


class TestReporting:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(0.0) == "0"
        assert format_value(3.14159) == "3.142"
        assert format_value(12345.0) == "12,345"
        assert format_value("x") == "x"

    def test_format_table_aligns(self):
        out = format_table(["name", "v"], [["a", 1], ["bb", 2]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5  # title, header, rule, 2 rows

    def test_fraction_bar(self):
        assert fraction_bar(0.5, width=10) == "#####....."
        assert fraction_bar(-1.0, width=4) == "...."
        assert fraction_bar(2.0, width=4) == "####"


class TestFigureDrivers:
    """End-to-end smoke + shape checks at tiny scale."""

    def test_table1(self):
        rows = table1_rows(TINY)
        assert len(rows) == 16
        assert all(r["|D| (loaded)"] >= 500 for r in rows)

    def test_fig4_shapes(self):
        rows = fig4_indexing(
            TINY, configs=S1_CONFIGS[:2], r_sweep=(1, 30, 70), n_threads=16
        )
        for r in rows:
            # the paper's headline: indexed beats unindexed concurrency
            assert r["best_r"] > 1
            assert r["best_speedup"] > r["speedup_r1"]
            # memory-bound ceiling for r = 1
            assert r["speedup_r1"] < 5.0

    def test_fig5_record(self):
        rec = fig5_per_variant(CLUS_DENSITY, TINY, dataset="SW1")
        assert rec.n_variants == 24
        assert rec.n_from_scratch == 1
        assert rec.scheduler == "SCHEDGREEDY"
        fractions = [r.reuse_fraction for r in rec.records]
        assert max(fractions) > 0.3

    def test_fig6_rows(self):
        rows = fig6_scatter(TINY, dataset="SW1", policies=(CLUS_DENSITY,))
        assert len(rows) == 24
        assert {r["scheme"] for r in rows} == {"CLUSDENSITY"}

    def test_fig7_shapes(self):
        rows = fig7_summary(TINY, datasets=("cF_1M_5N", "SW1"), policies=(CLUS_DENSITY,))
        assert len(rows) == 2
        for r in rows:
            assert r["speedup"] > 1.0  # reuse must beat the reference
            assert r["avg_quality"] >= 0.99  # paper: >= 0.998
            assert 0.0 < r["avg_reuse_fraction"] <= 1.0

    def test_fig8_shapes(self):
        rows = fig8_combined(
            TINY, configs=S3_CONFIGS[:1], n_threads=8, policies=(CLUS_DENSITY,)
        )
        assert len(rows) == 2  # two schedulers
        for r in rows:
            assert r["speedup"] > 1.0
            assert r["n_from_scratch"] >= 1

    def test_fig9_records(self):
        out = fig9_makespan(TINY, n_threads=8)
        assert set(out) == {"SCHEDGREEDY", "SCHEDMINPTS"}
        for rec in out.values():
            assert rec.makespan >= rec.lower_bound_makespan - 1e-9
            assert rec.slowdown_vs_lower_bound >= -1e-9
        # SCHEDMINPTS forces one scratch run per distinct eps (19 for V3)
        assert out["SCHEDMINPTS"].n_from_scratch >= out["SCHEDGREEDY"].n_from_scratch


class TestBenchSnapshot:
    """The repro-bench-snapshot/v1 writer/validator pair."""

    def _rows(self):
        return [
            {"kind": "cellgraph", "wall_s": 0.5, "counters": {"neighbor_searches": 3}},
            {"kind": "rtree r=70", "wall_s": 2.0, "counters": {}},
        ]

    def test_roundtrip(self, tmp_path):
        from repro.bench.snapshot import SCHEMA, make_snapshot, read_snapshot, write_snapshot

        snap = make_snapshot(
            "index",
            workload={"dataset": "SW1", "eps": 0.5, "minpts": 4},
            n=1000,
            rows=self._rows(),
            rev="deadbee",
        )
        path = write_snapshot(tmp_path / "BENCH_index.json", snap)
        loaded = read_snapshot(path)
        assert loaded == snap
        assert loaded["schema"] == SCHEMA
        assert loaded["git_rev"] == "deadbee"

    def test_git_rev_stamped_from_repo(self):
        from repro.bench.snapshot import git_rev, make_snapshot

        snap = make_snapshot(
            "batch", workload={}, n=1, rows=self._rows()
        )
        assert snap["git_rev"] == git_rev()
        assert snap["git_rev"]  # non-empty even outside a repo ("unknown")

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.pop("rows"),
            lambda s: s.update(schema="repro-bench-snapshot/v0"),
            lambda s: s.update(n=-1),
            lambda s: s.update(n="1000"),
            lambda s: s.update(rows=[]),
            lambda s: s.update(rows=[{"kind": "x"}]),
            lambda s: s["rows"].append({"kind": "", "wall_s": 1.0, "counters": {}}),
            lambda s: s["rows"].append({"kind": "x", "wall_s": -1.0, "counters": {}}),
            lambda s: s["rows"].append(
                {"kind": "x", "wall_s": 1.0, "counters": {"a": 1.5}}
            ),
            lambda s: s.update(git_rev=""),
        ],
    )
    def test_schema_drift_fails(self, mutate):
        from repro.bench.snapshot import (
            SnapshotSchemaError,
            make_snapshot,
            validate_snapshot,
        )

        snap = make_snapshot(
            "index", workload={}, n=10, rows=self._rows(), rev="abc"
        )
        mutate(snap)
        with pytest.raises(SnapshotSchemaError):
            validate_snapshot(snap)

    def test_write_refuses_invalid(self, tmp_path):
        from repro.bench.snapshot import SnapshotSchemaError, write_snapshot

        with pytest.raises(SnapshotSchemaError):
            write_snapshot(tmp_path / "bad.json", {"schema": "nope"})
        assert not (tmp_path / "bad.json").exists()

    def test_committed_snapshots_validate(self):
        # The repo-root artifacts committed by the ablation benches must
        # stay schema-clean — this is the drift gate CI relies on.
        from pathlib import Path

        from repro.bench.snapshot import read_snapshot

        root = Path(__file__).resolve().parent.parent
        for name, bench in [
            ("BENCH_index.json", "index"),
            ("BENCH_pass.json", "pass"),
            ("BENCH_hybrid.json", "hybrid"),
        ]:
            path = root / name
            if not path.exists():
                pytest.skip(f"{name} not generated yet")
            snap = read_snapshot(path)
            assert snap["bench"] == bench
            kinds = [r["kind"] for r in snap["rows"]]
            if bench == "index":
                assert "cellgraph" in kinds
            if bench == "pass":
                assert set(kinds) == {
                    f"{grid} {arm}"
                    for grid in ("V1", "V2", "V3")
                    for arm in ("paper-reuse", "cellgraph-per-variant", "per-eps-pass")
                }
                for row in snap["rows"]:
                    if row["kind"].endswith("per-eps-pass"):
                        assert row["byte_identical"], row["kind"]
                        assert row["quality_min"] == 1.0, row["kind"]
            if bench == "hybrid":
                assert set(kinds) == {"serial", "variant-only", "hybrid"}
                speedup = snap["workload"]["modeled_speedup"]
                assert speedup["hybrid"] >= speedup["variant-only"]
