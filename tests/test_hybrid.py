"""Hybrid executor and task-graph runtime: the two-axis acceptance suite.

Pins the tentpole claims of the graph-runtime refactor:

* canonical-label equality of every lowering mode against the serial
  reference, across scheduler x reuse-policy x kernel;
* fault recovery at task granularity — a dead *shard* worker and a
  dead *variant* worker both recover to fault-free-equal labels with
  zero leaked shared-memory segments;
* genuine interleaving — on the simulated clock, shard-task spans of
  one variant overlap variant-task spans of another (the pool never
  drains while a big scratch variant holds the spatial axis).
"""

from __future__ import annotations

import glob
import time

import numpy as np
import pytest

from repro import FaultPlan, FaultSpec, RetryPolicy, Session, Variant, VariantSet
from repro.core.reuse import POLICIES
from repro.core.scheduling import SCHEDULERS
from repro.core.taskgraph import DEFAULT_SHARD_THRESHOLD, lower_variants
from repro.engine.context import KERNELS
from repro.exec.graph import EVENT_SHARD_PLAN
from repro.obs.span import SPAN_TASK, Tracer
from repro.util.rng import resolve_rng

VSET = VariantSet.from_product([0.4, 0.5, 0.6], [4, 6])

#: Lowering-matrix inputs: case id -> (executor, shard knobs).
#: ``simulated`` follows the knobs into shard or hybrid lowering.
LOWERING_CASES = {
    "processes": ("processes", {}),
    "sharded": ("sharded", {"regions": 2}),
    "hybrid": ("hybrid", {"regions": 2, "shard_threshold": 0}),
    "simulated": ("simulated", {}),
    "simulated-shard": ("simulated", {"regions": 2}),
    "simulated-hybrid": ("simulated", {"shard_threshold": 0}),
}

#: Policy subset for the equality matrix (the full registry is already
#: swept by the recovery grid in tests/test_resilience.py).
MATRIX_POLICIES = ("CLUSDENSITY", "CLUSSIZE")


def _repro_segments() -> set[str]:
    return {p.rsplit("/", 1)[-1] for p in glob.glob("/dev/shm/repro_*")}


def canonical(labels: np.ndarray) -> np.ndarray:
    out = np.full(labels.shape, -1, dtype=labels.dtype)
    mapping: dict = {}
    for i, lab in enumerate(labels):
        if lab < 0:
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out


@pytest.fixture(scope="module")
def points():
    g = resolve_rng(77)
    return np.ascontiguousarray(
        np.vstack([g.normal(0, 0.5, (90, 2)), g.normal(5, 0.6, (90, 2))])
    )


@pytest.fixture(scope="module")
def baseline(points):
    with Session(points) as s:
        batch = s.run(VSET)
    return {v: canonical(batch.results[v].labels) for v in VSET}


def assert_canonical_equal(batch, baseline):
    for v in VSET:
        assert np.array_equal(
            canonical(batch.results[v].labels), baseline[v]
        ), f"labels diverged for {v}"


def _hybrid_partition(points) -> tuple[set[Variant], list[Variant]]:
    """(sharded scratch variants, chain variants) under the test knobs."""
    plan = SCHEDULERS["SCHEDGREEDY"].plan(VSET)
    graph = lower_variants(
        plan, VSET, mode="hybrid", n_regions=2, n_points=len(points),
        shard_threshold=0,
    )
    sharded = set(graph.sharded_variants())
    chains = [t.variant for t in graph.variant_tasks()]
    return sharded, chains


# ----------------------------------------------------------------------
# Canonical equality across the lowering matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("policy", MATRIX_POLICIES)
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("case", sorted(LOWERING_CASES))
class TestLoweringMatrix:
    def test_matches_serial_reference(
        self, points, baseline, case, scheduler, policy, kernel
    ):
        assert policy in POLICIES
        executor, kw = LOWERING_CASES[case]
        knobs = {"scheduler": scheduler, "policy": policy}
        with Session(points) as s:
            if kernel == "cellgraph":
                # The cell-graph kernel takes no reuse knobs: its one
                # running cell is the default one.
                with pytest.raises(ValueError, match="kernel='bfs'"):
                    s.run(VSET, executor=executor, kernel=kernel, **knobs, **kw)
                if (scheduler, policy) != ("SCHEDGREEDY", "CLUSDENSITY"):
                    return
                knobs = {}
            batch = s.run(
                VSET,
                executor=executor,
                n_threads=2,
                kernel=kernel,
                **knobs,
                **kw,
            )
        assert set(batch.results) == set(VSET)
        assert_canonical_equal(batch, baseline)
        # Every record is timed on one clock: its lane set's.
        for rec in batch.record.records:
            assert rec.response_time == pytest.approx(rec.finish - rec.start)


# ----------------------------------------------------------------------
# Fault recovery at task granularity
# ----------------------------------------------------------------------
class TestHybridFaults:
    def _run_with_fault(self, points, index: int, kind: str = "kill"):
        plan = FaultPlan([FaultSpec(kind, index)])
        with Session(points) as s:
            return s.run(
                VSET,
                executor="hybrid",
                n_threads=3,
                regions=2,
                shard_threshold=0,
                fault_plan=plan,
                retry_policy=RetryPolicy(max_retries=2),
            )

    def test_dead_shard_worker_recovers(self, points, baseline):
        sharded, _ = _hybrid_partition(points)
        assert sharded, "threshold 0 must shard the scratch roots"
        victim = sorted(sharded, key=lambda v: v.as_tuple())[0]
        index = [i for i, v in enumerate(VSET) if v == victim][0]
        before = _repro_segments()
        batch = self._run_with_fault(points, index)
        report = batch.report
        assert report is not None and report.complete
        assert set(batch.results) == set(VSET)
        assert report.retried, "the killed shard must surface as a retry"
        assert_canonical_equal(batch, baseline)
        assert _repro_segments() == before, "leaked shared-memory segments"

    def test_dead_variant_worker_recovers(self, points, baseline):
        sharded, chains = _hybrid_partition(points)
        assert chains, "the grid must keep some whole-variant chains"
        victim = sorted(chains, key=lambda v: v.as_tuple())[0]
        assert victim not in sharded
        index = [i for i, v in enumerate(VSET) if v == victim][0]
        before = _repro_segments()
        batch = self._run_with_fault(points, index)
        report = batch.report
        assert report is not None and report.complete
        assert set(batch.results) == set(VSET)
        assert report.retried, "the killed chain worker must retry"
        for v in report.retried:
            assert report[v].attempts > 1
        assert_canonical_equal(batch, baseline)
        assert _repro_segments() == before, "leaked shared-memory segments"

    def test_crashed_variant_worker_recovers(self, points, baseline):
        _, chains = _hybrid_partition(points)
        victim = sorted(chains, key=lambda v: v.as_tuple())[-1]
        index = [i for i, v in enumerate(VSET) if v == victim][0]
        batch = self._run_with_fault(points, index, kind="crash")
        assert batch.report is not None and batch.report.complete
        assert_canonical_equal(batch, baseline)


# ----------------------------------------------------------------------
# Task-identity spans and interleaving
# ----------------------------------------------------------------------
class TestTaskSpans:
    def test_shard_spans_overlap_other_variants_spans(self, points):
        """Acceptance: a shard task of variant X runs concurrently with
        a variant task of Y != X on the simulated clock.

        The grid is a two-root forest (the minpts=4 pair cannot reuse
        the minpts=8 family at larger eps), so the plan finishes one
        chain while the second root's fan-out holds the other worker.
        """
        vset = VariantSet(
            [Variant(0.4, 8), Variant(0.5, 8), Variant(0.6, 8),
             Variant(0.3, 4), Variant(0.35, 4)]
        )
        tracer = Tracer()
        with Session(points, tracer=tracer) as s:
            s.run(
                vset,
                executor="simulated",
                n_threads=2,
                regions=2,
                shard_threshold=0,
            )
        tasks = [r for r in tracer.records() if r.name == SPAN_TASK]
        assert tasks, "the sim substrate must emit task-identity spans"
        shards = [r for r in tasks if r.args["kind"] == "shard"]
        variants = [r for r in tasks if r.args["kind"] == "variant"]
        assert shards and variants

        def vid(record):  # "shard:0.4/4#1" / "variant:0.5/4" -> "0.4/4"
            return record.args["id"].split(":", 1)[1].split("#", 1)[0]

        overlaps = [
            (sh, vt)
            for sh in shards
            for vt in variants
            if vid(sh) != vid(vt)
            and sh.t0 < vt.t0 + vt.dur
            and vt.t0 < sh.t0 + sh.dur
        ]
        assert overlaps, (
            "no shard-task span overlapped another variant's task span; "
            "the two parallelism axes are not interleaving"
        )

    def test_every_task_span_carries_identity(self, points):
        tracer = Tracer()
        with Session(points, tracer=tracer) as s:
            s.run(
                VSET, executor="simulated", n_threads=2,
                regions=2, shard_threshold=0,
            )
        for r in tracer.records():
            if r.name != SPAN_TASK:
                continue
            assert r.args["kind"] in ("variant", "shard", "merge")
            assert ":" in r.args["id"]
            assert isinstance(r.args["deps"], list)

    def test_lanes_substrate_emits_task_spans(self, points):
        tracer = Tracer()
        with Session(points, tracer=tracer) as s:
            s.run(
                VSET, executor="hybrid", n_threads=2,
                regions=2, shard_threshold=0,
            )
        kinds = {
            r.args["kind"] for r in tracer.records() if r.name == SPAN_TASK
        }
        assert kinds == {"variant", "shard", "merge"}

    @pytest.mark.parametrize("shard_threshold", [None, 0])
    def test_every_span_starts_in_the_batch_wall_window(
        self, points, shard_threshold
    ):
        """Task, worker and parent-side spans share the tracer's clock."""
        tracer = Tracer()
        with Session(points, tracer=tracer) as s:
            before = time.perf_counter()
            s.run(
                VSET, executor="hybrid", n_threads=2,
                regions=2, shard_threshold=shard_threshold,
            )
            after = time.perf_counter()
            records = tracer.records()
        names = {r.name for r in records}
        assert {SPAN_TASK, "shm_attach", "index_build"} <= names
        outside = sorted(
            {r.name for r in records if not before <= r.t0 <= after}
        )
        assert outside == []


# ----------------------------------------------------------------------
# Simulated-backend mode selection
# ----------------------------------------------------------------------
class TestSimulatedModeSelection:
    def _shard_plan_events(self, tracer):
        return [r for r in tracer.records() if r.name == EVENT_SHARD_PLAN]

    def test_plain_run_stays_variant_mode(self, points, baseline):
        tracer = Tracer()
        with Session(points, tracer=tracer) as s:
            batch = s.run(VSET, executor="simulated", n_threads=2)
        assert self._shard_plan_events(tracer) == []
        assert_canonical_equal(batch, baseline)

    def test_regions_select_shard_mode(self, points, baseline):
        tracer = Tracer()
        with Session(points, tracer=tracer) as s:
            batch = s.run(VSET, executor="simulated", n_threads=2, regions=2)
        assert self._shard_plan_events(tracer)
        assert_canonical_equal(batch, baseline)

    def test_shard_threshold_selects_hybrid_mode(self, points, baseline):
        tracer = Tracer()
        with Session(points, tracer=tracer) as s:
            batch = s.run(
                VSET, executor="simulated", n_threads=2,
                regions=2, shard_threshold=0,
            )
        assert self._shard_plan_events(tracer)
        # hybrid shards only the scratch roots, so variant tasks remain
        kinds = {
            r.args["kind"] for r in tracer.records() if r.name == SPAN_TASK
        }
        assert kinds == {"variant", "shard", "merge"}
        assert_canonical_equal(batch, baseline)

    def test_high_threshold_keeps_variant_tasks_whole(self, points, baseline):
        tracer = Tracer()
        with Session(points, tracer=tracer) as s:
            batch = s.run(
                VSET, executor="simulated", n_threads=2,
                regions=2, shard_threshold=10 ** 9,
            )
        assert self._shard_plan_events(tracer) == []
        assert_canonical_equal(batch, baseline)


# ----------------------------------------------------------------------
# Variant-first hybrid: lanes run whole variants on shared indexes
# ----------------------------------------------------------------------
#: Three variants no variant can reuse: three scratch roots, more than
#: the two lanes, so default-threshold hybrid keeps them whole.
ROOTS = VariantSet([Variant(0.3, 8), Variant(0.4, 16), Variant(0.5, 24)])


@pytest.fixture(scope="module")
def large_points():
    """Just enough points for the default shard threshold to apply."""
    g = resolve_rng(19)
    return np.ascontiguousarray(g.uniform(0.0, 40.0, (DEFAULT_SHARD_THRESHOLD, 2)))


@pytest.fixture(scope="module")
def large_serial(large_points):
    with Session(large_points) as s:
        return s.run(ROOTS).results


def _index_spans(tracer):
    """(worker-side index builds, kinds of every index pack created)."""
    records = tracer.records()
    built = [
        r for r in records
        if r.name == "index_build" and r.thread.startswith("worker")
    ]
    packs = [
        r.args["kinds"] for r in records
        if r.name == "shm_attach" and r.args.get("what") == "indexes-create"
    ]
    return built, packs


class TestVariantFirst:
    @pytest.mark.parametrize(
        "executor,knobs", [("processes", {}), ("hybrid", {"regions": 2})]
    )
    def test_cellgraph_lanes_attach_grids_and_no_rtree(
        self, large_points, large_serial, executor, knobs
    ):
        tracer = Tracer()
        with Session(large_points, tracer=tracer) as s:
            batch = s.run(ROOTS, executor=executor, n_threads=2, **knobs)
        built, packs = _index_spans(tracer)
        assert built == [], "lane workers must not build an index"
        assert packs == ["cellgraph"], "one grid pack per batch, no R-tree"
        kinds = {r.args["kind"] for r in tracer.records() if r.name == SPAN_TASK}
        assert kinds == {"variant"}, "more roots than lanes: nothing shards"
        for v in ROOTS:
            assert batch[v].labels.tobytes() == large_serial[v].labels.tobytes()
            assert batch[v].core_mask.tobytes() == large_serial[v].core_mask.tobytes()

    def test_bfs_lanes_get_the_rtree_pair_once(self, points):
        tracer = Tracer()
        with Session(points, tracer=tracer) as s:
            s.run(VSET, kernel="bfs", executor="processes", n_threads=2)
        built, packs = _index_spans(tracer)
        assert built == []
        assert packs == ["rtree"]

    def test_killed_chain_worker_leaks_no_segment(self, large_points, large_serial):
        before = _repro_segments()
        with Session(large_points) as s:
            batch = s.run(
                ROOTS, executor="hybrid", n_threads=2, regions=2,
                fault_plan=FaultPlan([FaultSpec("kill", 0)]),
                retry_policy=RetryPolicy(max_retries=2),
            )
        assert batch.report is not None and batch.report.complete
        assert batch.report.retried
        for v in ROOTS:
            assert batch[v].labels.tobytes() == large_serial[v].labels.tobytes()
        assert _repro_segments() == before, "leaked shared-memory segments"
