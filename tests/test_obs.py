"""Observability layer: spans, phase clocks, registry, exports, CLI.

The load-bearing assertions here are the ISSUE acceptance criteria:
the JSONL trace round-trips losslessly through the loader, and the
per-variant phase totals sum to within 5% of each variant's measured
wall-clock (the phase clocks partition the stopwatch window).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.cellgraph import MinptsPass, cellgraph_dbscan
from repro.core.dbscan import dbscan
from repro.core.variant_dbscan import variant_dbscan
from repro.core.variants import Variant, VariantSet
from repro.index.cellgraph import CellGraphIndex
from repro.obs import (
    PHASE_PREFIX,
    MetricsRegistry,
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    get_tracer,
    resolve_tracer,
    use_tracer,
)
from tests.helpers import run_batch

VARIANTS = VariantSet.from_product([0.5, 0.7], [4, 8])


@pytest.fixture(scope="module")
def cloud(two_blobs):
    return two_blobs


class TestSpanPrimitives:
    def test_span_records_interval_and_args(self):
        tracer = Tracer()
        with tracer.span("work", variant="(1,2)") as span:
            span.set(extra=3)
        (rec,) = tracer.records()
        assert rec.name == "work"
        assert rec.dur >= 0.0
        assert rec.args == {"variant": "(1,2)", "extra": 3}
        assert rec.thread  # thread name captured

    def test_instant_has_zero_duration(self):
        tracer = Tracer()
        tracer.instant("cache.evict", eps=0.5)
        (rec,) = tracer.records()
        assert rec.dur == 0.0
        assert rec.args == {"eps": 0.5}

    def test_phase_clock_partitions_time(self):
        tracer = Tracer()
        clock = tracer.phase_clock(variant="v")
        clock.switch("a")
        clock.switch("b")
        clock.switch("a")  # re-entering accumulates into the same total
        clock.finish()
        recs = {r.name: r for r in tracer.records()}
        assert set(recs) == {PHASE_PREFIX + "a", PHASE_PREFIX + "b"}
        for r in recs.values():
            assert r.args == {"variant": "v"}
            assert r.dur >= 0.0

    def test_finish_without_switch_emits_nothing(self):
        tracer = Tracer()
        tracer.phase_clock().finish()
        assert len(tracer) == 0

    def test_drain_empties_clear_clears(self):
        tracer = Tracer()
        tracer.instant("x")
        assert len(tracer.drain()) == 1
        assert len(tracer) == 0
        tracer.instant("y")
        tracer.clear()
        assert tracer.records() == []

    def test_add_records_rebases_and_relabels(self):
        tracer = Tracer()
        tracer.add_records(
            [SpanRecord("s", t0=1.0, dur=0.5)], thread="worker-3", offset=10.0
        )
        (rec,) = tracer.records()
        assert rec.t0 == 11.0
        assert rec.thread == "worker-3"

    def test_null_tracer_collects_nothing(self):
        null = NullTracer()
        with null.span("s") as sp:
            sp.set(a=1)
        clock = null.phase_clock()
        clock.switch("a")
        clock.finish()
        null.instant("i")
        assert len(null) == 0
        assert null.enabled is False

    def test_active_tracer_resolution(self):
        assert resolve_tracer(None) is get_tracer()
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
            assert resolve_tracer(None) is tracer
        assert get_tracer() is NULL_TRACER
        assert resolve_tracer(tracer) is tracer


class TestKernelInstrumentation:
    def test_disabled_tracing_changes_nothing(self, cloud):
        base = dbscan(cloud, 0.6, 4)
        traced = Tracer()
        with use_tracer(traced):
            under = dbscan(cloud, 0.6, 4)
        assert np.array_equal(base.labels, under.labels)
        assert np.array_equal(base.core_mask, under.core_mask)
        assert base.counters.as_dict() == under.counters.as_dict()

    def test_dbscan_emits_phase_partition(self, cloud):
        tracer = Tracer()
        result = dbscan(cloud, 0.6, 4, tracer=tracer)
        phases = [r for r in tracer.records() if r.name.startswith(PHASE_PREFIX)]
        names = {r.name[len(PHASE_PREFIX):] for r in phases}
        assert {"setup", "outer_scan", "expand"} <= names
        total = sum(r.dur for r in phases)
        assert total == pytest.approx(result.elapsed, rel=0.05)

    @pytest.mark.parametrize(
        "kernel", ["dbscan", "variant_dbscan", "cellgraph_dbscan", "minpts_pass"]
    )
    def test_phase_totals_equal_elapsed(self, cloud, kernel):
        # elapsed is read off the phase clocks' own stamps, so the
        # totals sum to it up to float rounding, preemption or not.
        tracer = Tracer()
        if kernel == "dbscan":
            elapsed = dbscan(cloud, 0.6, 4, tracer=tracer).elapsed
        elif kernel == "variant_dbscan":
            donor = dbscan(cloud, 0.5, 8)
            elapsed = variant_dbscan(
                cloud, Variant(0.6, 4), donor, tracer=tracer
            ).elapsed
        elif kernel == "cellgraph_dbscan":
            elapsed = cellgraph_dbscan(cloud, 0.6, 4, tracer=tracer).elapsed
        else:
            built = MinptsPass(cloud, CellGraphIndex(cloud, 0.6), 8, tracer=tracer)
            elapsed = built.build_s + built.cluster(4, tracer=tracer).elapsed
        total = sum(
            r.dur for r in tracer.records() if r.name.startswith(PHASE_PREFIX)
        )
        assert total == pytest.approx(elapsed, abs=1e-9)


@pytest.mark.parametrize("executor", ["serial", "simulated", "processes"])
class TestExecutorTracing:
    def test_phases_cover_wall_clock(self, cloud, executor):
        tracer = Tracer()
        with use_tracer(tracer):
            batch = run_batch(cloud, VARIANTS, executor, n_threads=2)
        registry = MetricsRegistry.from_batch(batch, tracer)
        coverage = registry.phase_coverage()
        assert set(coverage) == {str(v) for v in VARIANTS}
        # Acceptance criterion: per-variant phase totals sum to within
        # 5% of that variant's wall-clock.
        for variant, ratio in coverage.items():
            assert ratio == pytest.approx(1.0, abs=0.05), (variant, coverage)

    def test_variant_spans_present(self, cloud, executor):
        tracer = Tracer()
        with use_tracer(tracer):
            run_batch(cloud, VARIANTS, executor, n_threads=2)
        walls = [r for r in tracer.records() if r.name == "variant"]
        assert sorted(r.args["variant"] for r in walls) == sorted(
            str(v) for v in VARIANTS
        )

    def test_results_identical_with_and_without_tracing(self, cloud, executor):
        plain = run_batch(cloud, VARIANTS, executor, n_threads=2)
        with use_tracer(Tracer()):
            traced = run_batch(cloud, VARIANTS, executor, n_threads=2)
        for v in VARIANTS:
            assert np.array_equal(plain.results[v].labels, traced.results[v].labels)


class TestRegistry:
    @pytest.fixture(scope="class")
    def traced_batch(self, cloud):
        tracer = Tracer()
        with use_tracer(tracer):
            batch = run_batch(cloud, VARIANTS, kernel="bfs", dataset="two_blobs")
        return batch, tracer

    def test_from_batch_collects_everything(self, traced_batch):
        batch, tracer = traced_batch
        registry = MetricsRegistry.from_batch(batch, tracer)
        assert len(registry.variant_rows) == len(VARIANTS)
        assert registry.meta["dataset"] == "two_blobs"
        assert registry.phase_names()

    def test_totals_merge_counters(self, traced_batch):
        batch, tracer = traced_batch
        registry = MetricsRegistry.from_batch(batch, tracer)
        per_variant = sum(
            row["counters"]["neighbor_searches"] for row in registry.variant_rows
        )
        assert registry.totals.neighbor_searches == per_variant

    def test_phase_totals_filter_by_variant(self, traced_batch):
        batch, tracer = traced_batch
        registry = MetricsRegistry.from_batch(batch, tracer)
        label = str(VARIANTS[0])
        sub = registry.phase_totals(label)
        full = registry.phase_totals()
        assert sub
        for name, dur in sub.items():
            assert dur <= full[name] + 1e-12

    def test_summary_mentions_phases(self, traced_batch):
        batch, tracer = traced_batch
        text = MetricsRegistry.from_batch(batch, tracer).summary()
        assert "per-phase breakdown" in text
        assert "expand" in text


class TestExport:
    @pytest.fixture(scope="class")
    def registry(self, cloud):
        tracer = Tracer()
        with use_tracer(tracer):
            batch = run_batch(cloud, VARIANTS, dataset="two_blobs")
        return MetricsRegistry.from_batch(batch, tracer)

    def test_jsonl_round_trip_is_lossless(self, registry, tmp_path):
        path = tmp_path / "trace.jsonl"
        registry.to_jsonl(path)
        loaded = MetricsRegistry.load_jsonl(path)
        assert loaded.meta == registry.meta
        assert loaded.spans == registry.spans
        assert loaded.variant_rows == registry.variant_rows
        assert loaded.totals.as_dict() == registry.totals.as_dict()
        # Derived views must agree too.
        assert loaded.phase_coverage() == registry.phase_coverage()

    def test_jsonl_rejects_unknown_line_type(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\n{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="mystery"):
            MetricsRegistry.load_jsonl(path)

    def test_jsonl_from_before_cache_removal_loads(self, registry, tmp_path):
        # Traces written while the neighborhood cache existed carry
        # neigh_cache_* counters and a "cache" line; both are dropped.
        path = tmp_path / "legacy.jsonl"
        registry.to_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        for obj in lines:
            if obj["type"] == "variant":
                obj["counters"].update(
                    neigh_cache_hits=3, neigh_cache_misses=5, neigh_cache_bytes=64
                )
        lines.append({"type": "cache", "hits": 3, "misses": 5, "evictions": 0})
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        loaded = MetricsRegistry.load_jsonl(path)
        assert loaded.totals.as_dict() == registry.totals.as_dict()
        assert len(loaded.variant_rows) == len(registry.variant_rows)

    def test_chrome_trace_structure(self, registry, tmp_path):
        path = tmp_path / "trace.json"
        registry.to_chrome_trace(path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events
        phases = {e["ph"] for e in events}
        assert "X" in phases and "M" in phases
        starts = [e["ts"] for e in events if e["ph"] == "X"]
        assert min(starts) >= 0.0  # rebased onto the earliest timestamp
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names  # worker tracks labeled


class TestTraceCli:
    def test_trace_command_writes_both_formats(self, tmp_path, capsys):
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        rc = main(
            [
                "trace",
                "SW1",
                "--eps", "0.4,0.5",
                "--minpts", "4",
                "--scale", "0.001",
                "--jsonl", str(jsonl),
                "--chrome", str(chrome),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-phase breakdown" in out
        assert "phase coverage" in out
        loaded = MetricsRegistry.load_jsonl(jsonl)
        assert len(loaded.variant_rows) == 2
        assert json.loads(chrome.read_text())["traceEvents"]
