"""Fault tolerance: injection, retries, re-planning, checkpoint/resume.

Covers the resilience subsystem end to end:

* :class:`FaultPlan` / :class:`FaultSpec` — seeded determinism,
  validation, and binding;
* :class:`RetryPolicy` — validation and capped exponential backoff;
* result integrity — :func:`corrupt_result` damage is always caught by
  :func:`verify_result`;
* the recovery loop across **all four executor backends** for every
  scheduler x reuse-policy combination: injected crashes and timeouts
  must not change the produced clusterings (canonical label equality
  against a fault-free run);
* permanent failure — the batch completes, dependents re-plan onto
  surviving donors under the inclusion criteria, and the
  :class:`BatchReport` accounts every variant;
* process-pool worker death (``kill`` faults) — pool respawn,
  shared-memory reattach, zero leaked segments;
* :class:`CheckpointStore` — atomic spill, integrity-audited loads,
  fingerprint keying, and ``Session.run(resume=...)`` /
  ``repro sweep --resume`` skipping finished variants;
* the :class:`Session` lifecycle contract
  (:class:`SessionClosedError`) and the ``repro doctor`` CLI.
"""

from __future__ import annotations

import contextlib
import glob
import json
import multiprocessing
from multiprocessing import shared_memory  # repro: allow[shm-lifecycle] (forges leaked segments)

import numpy as np
import pytest

from repro import (
    BatchReport,
    CheckpointStore,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    Session,
    Variant,
    VariantSet,
    VariantStatus,
)
from repro.core.reuse import POLICIES
from repro.core.scheduling import SCHEDULERS, dependency_tree
from repro.resilience.faults import corrupt_result, verify_result
from repro.resilience.report import VariantOutcome, classify_replans
from repro.util.errors import (
    CorruptResultError,
    ReproError,
    SessionClosedError,
    ValidationError,
)
from repro.util.rng import resolve_rng

EXECUTORS = ["serial", "simulated", "processes"]


def _repro_segments() -> set[str]:
    return {p.rsplit("/", 1)[-1] for p in glob.glob("/dev/shm/repro_*")}


def canonical(labels: np.ndarray) -> np.ndarray:
    """Labels renumbered by first appearance (noise stays -1).

    Different reuse sources (and the process backend's chain
    partitioning) permute cluster *ids* while preserving the partition
    itself; canonicalizing turns "same clustering" into array equality.
    """
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
    g = resolve_rng(4242)
    return np.ascontiguousarray(
        np.vstack([g.normal(0, 0.5, (100, 2)), g.normal(6, 0.5, (100, 2))])
    )


#: 12 variants — the acceptance scenario's minimum batch size.
VSET = VariantSet.from_product([0.4, 0.5, 0.6, 0.7], [4, 6, 8])


@pytest.fixture(scope="module")
def baseline(points):
    """Fault-free canonical labels per variant (serial reference)."""
    with Session(points) as s:
        batch = s.run(VSET)
    return {v: canonical(batch.results[v].labels) for v in VSET}


def assert_canonical_equal(batch, baseline, variants=VSET):
    for v in variants:
        assert np.array_equal(
            canonical(batch.results[v].labels), baseline[v]
        ), f"labels diverged for {v}"


# ----------------------------------------------------------------------
# FaultPlan / FaultSpec
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_random_is_seed_deterministic(self):
        a = FaultPlan.random(20, n_crashes=3, n_hangs=2, n_corruptions=1, seed=7)
        b = FaultPlan.random(20, n_crashes=3, n_hangs=2, n_corruptions=1, seed=7)
        assert a.specs == b.specs
        c = FaultPlan.random(20, n_crashes=3, n_hangs=2, n_corruptions=1, seed=8)
        assert a.specs != c.specs

    def test_random_targets_are_distinct(self):
        plan = FaultPlan.random(10, n_crashes=5, n_hangs=5, seed=3)
        assert len({s.index for s in plan.specs}) == 10

    def test_random_rejects_overcommit(self):
        with pytest.raises(ValidationError):
            FaultPlan.random(3, n_crashes=2, n_hangs=2)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            FaultSpec("explode", 0)
        with pytest.raises(ValidationError):
            FaultSpec("crash", 0, phase="middle")
        with pytest.raises(ValidationError):
            FaultSpec("crash", -1)
        with pytest.raises(ValidationError):
            FaultSpec("corrupt", 0, phase="start")

    def test_bind_and_find(self):
        plan = FaultPlan([FaultSpec("crash", 1, attempt=2)])
        bound = plan.bind(VSET)
        assert bound.find(VSET[1], 2, "start") is not None
        assert bound.find(VSET[1], 0, "start") is None
        assert bound.find(VSET[0], 2, "start") is None

    def test_bind_ignores_out_of_range(self):
        plan = FaultPlan([FaultSpec("crash", 999)])
        assert not plan.bind(VSET)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            RetryPolicy(deadline_s=0.0)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff_factor=0.5)

    def test_backoff_caps(self):
        p = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3)
        assert p.backoff_s(0) == pytest.approx(0.1)
        assert p.backoff_s(1) == pytest.approx(0.2)
        assert p.backoff_s(5) == pytest.approx(0.3)

    def test_zero_base_disables_backoff(self):
        assert RetryPolicy().backoff_s(4) == 0.0

    def test_max_attempts(self):
        assert RetryPolicy(max_retries=2).max_attempts == 3


class TestIntegrity:
    def test_corrupt_result_fails_verify(self, points):
        with Session(points) as s:
            result = s.run(VSET).results[VSET[0]]
        verify_result(result, len(points))
        corrupt_result(result)
        with pytest.raises(CorruptResultError):
            verify_result(result, len(points))

    def test_verify_rejects_wrong_length(self, points):
        with Session(points) as s:
            result = s.run(VSET).results[VSET[0]]
        with pytest.raises(CorruptResultError):
            verify_result(result, len(points) + 1)


# ----------------------------------------------------------------------
# Recovery across every backend x scheduler x policy
# ----------------------------------------------------------------------
#: Crashes on two donors plus a hang that converts to a timeout under
#: the deadline; retries must absorb all three without changing labels.
RECOVERY_PLAN = FaultPlan(
    [
        FaultSpec("crash", 0),
        FaultSpec("crash", 3),
        FaultSpec("hang", 5, hang_s=5.0),
        FaultSpec("corrupt", 7, phase="finish"),
    ]
)
RECOVERY_POLICY = RetryPolicy(max_retries=2, deadline_s=0.25)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
class TestRecoveryEquality:
    def test_faulted_run_matches_fault_free(
        self, points, baseline, executor, scheduler, policy
    ):
        with Session(points) as s:
            batch = s.run(
                VSET,
                executor=executor,
                n_threads=3,
                kernel="bfs",
                scheduler=scheduler,
                policy=policy,
                fault_plan=RECOVERY_PLAN,
                retry_policy=RECOVERY_POLICY,
            )
        report = batch.report
        assert report is not None and report.complete
        assert set(batch.results) == set(VSET)
        assert len(report) == len(VSET)
        assert report.retried, "injected faults should surface as retries"
        assert_canonical_equal(batch, baseline)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_cellgraph_faulted_run_matches_fault_free(points, baseline, executor):
    """The recovery matrix's cell on the default (cell-graph) kernel."""
    with Session(points) as s:
        batch = s.run(
            VSET,
            executor=executor,
            n_threads=3,
            fault_plan=RECOVERY_PLAN,
            retry_policy=RECOVERY_POLICY,
        )
    report = batch.report
    assert report is not None and report.complete
    assert set(batch.results) == set(VSET)
    assert len(report) == len(VSET)
    assert report.retried, "injected faults should surface as retries"
    assert_canonical_equal(batch, baseline)


# ----------------------------------------------------------------------
# Permanent failure + re-planning
# ----------------------------------------------------------------------
def _permanent(index: int, kind: str = "crash", **kw) -> list[FaultSpec]:
    """Specs that fire on every attempt the recovery policy allows."""
    return [
        FaultSpec(kind, index, attempt=a, **kw)
        for a in range(RECOVERY_POLICY.max_attempts)
    ]


class TestPermanentFailure:
    def test_batch_survives_and_replans(self, points, baseline):
        donor = VSET[0]
        plan = FaultPlan(_permanent(0))
        with Session(points) as s:
            batch = s.run(
                VSET, fault_plan=plan, retry_policy=RECOVERY_POLICY
            )
        report = batch.report
        assert report.failed == [donor]
        assert donor not in batch.results
        assert set(batch.results) == set(VSET) - {donor}
        assert_canonical_equal(batch, baseline, set(VSET) - {donor})
        # The static tree's dependents of the failed donor completed
        # anyway and are accounted as re-planned.
        tree = dependency_tree(VSET)
        dependents = set(tree.successors(donor))
        assert dependents, "fixture donor must have dependents"
        assert set(report.replanned) == dependents
        for v in dependents:
            assert report[v].replanned_from == donor

    def test_replanning_respects_inclusion_criteria(self, points):
        plan = FaultPlan(_permanent(0))
        with Session(points) as s:
            batch = s.run(VSET, fault_plan=plan, retry_policy=RECOVERY_POLICY)
        failed = set(batch.report.failed)
        for rec in batch.record.records:
            if rec.reused_from is None:
                continue
            assert rec.reused_from not in failed
            assert rec.variant.can_reuse(rec.reused_from)

    def test_faults_without_policy_capture_instead_of_raise(self, points):
        plan = FaultPlan([FaultSpec("crash", 0)])
        with Session(points) as s:
            batch = s.run(VSET, fault_plan=plan)  # no retry policy
        assert batch.report.failed == [VSET[0]]
        assert len(batch.results) == len(VSET) - 1

    def test_plain_run_keeps_seed_semantics(self, points, baseline):
        with Session(points) as s:
            batch = s.run(VSET)
        assert batch.report is None
        assert_canonical_equal(batch, baseline)


# ----------------------------------------------------------------------
# Acceptance scenario: crashed donors + a hung variant, no abort
# ----------------------------------------------------------------------
class TestAcceptanceScenario:
    @pytest.mark.parametrize("executor", ["simulated", "processes"])
    def test_two_dead_donors_one_hang(self, points, baseline, executor):
        assert len(VSET) >= 12
        tree = dependency_tree(VSET)
        donors = [v for v in VSET if any(True for _ in tree.successors(v))]
        d1, d2 = sorted(range(len(VSET)), key=lambda i: VSET[i] not in donors)[:2]
        hung = next(
            i for i in range(len(VSET)) if i not in (d1, d2)
        )
        plan = FaultPlan(
            _permanent(d1)
            + _permanent(d2)
            + [FaultSpec("hang", hung, hang_s=5.0)]
        )
        before = _repro_segments()
        with Session(points) as s:
            batch = s.run(
                VSET,
                executor=executor,
                n_threads=4,
                fault_plan=plan,
                retry_policy=RECOVERY_POLICY,
            )
        report = batch.report
        failed = {VSET[d1], VSET[d2]}
        assert set(report.failed) == failed
        assert set(batch.results) == set(VSET) - failed
        assert report[VSET[hung]].status in (
            VariantStatus.RETRIED,
            VariantStatus.REPLANNED,
        )
        assert_canonical_equal(batch, baseline, set(VSET) - failed)
        # Re-planning stayed inclusion-legal and avoided dead donors.
        for rec in batch.record.records:
            if rec.reused_from is not None:
                assert rec.reused_from not in failed
                assert rec.variant.can_reuse(rec.reused_from)
        assert _repro_segments() == before, "leaked shared-memory segments"


# ----------------------------------------------------------------------
# Process-pool worker death
# ----------------------------------------------------------------------
class TestProcPoolKill:
    def test_killed_worker_is_respawned(self, points, baseline):
        plan = FaultPlan([FaultSpec("kill", 2)])
        before = _repro_segments()
        with Session(points) as s:
            batch = s.run(
                VSET,
                executor="processes",
                n_threads=3,
                fault_plan=plan,
                retry_policy=RetryPolicy(max_retries=2),
            )
        report = batch.report
        assert report.complete
        assert set(batch.results) == set(VSET)
        assert report.retried, "the killed group must resurface as retried"
        for v in report.retried:
            assert report[v].attempts > 1
        assert_canonical_equal(batch, baseline)
        assert _repro_segments() == before, "leaked shared-memory segments"

    def test_kill_downgrades_to_crash_in_process(self, points, baseline):
        # In-process backends must never honor a kill (it would take
        # down the caller's interpreter); it degrades to a crash.
        plan = FaultPlan([FaultSpec("kill", 2)])
        with Session(points) as s:
            batch = s.run(
                VSET, fault_plan=plan, retry_policy=RetryPolicy(max_retries=1)
            )
        assert batch.report.complete
        assert_canonical_equal(batch, baseline)


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_roundtrip(self, points, tmp_path):
        with Session(points) as s:
            result = s.run(VSET).results[VSET[0]]
            fp = s.store.fingerprint
        store = CheckpointStore(tmp_path, fp, len(points))
        store.save(result)
        loaded = store.load(VSET[0])
        assert loaded is not None
        assert np.array_equal(loaded.labels, result.labels)
        assert np.array_equal(loaded.core_mask, result.core_mask)
        assert loaded.variant == VSET[0]
        assert store.completed() == [VSET[0]]

    def test_missing_returns_none(self, tmp_path):
        store = CheckpointStore(tmp_path, "abc", 10)
        assert store.load(Variant(0.5, 4)) is None

    def test_damaged_entry_discarded(self, points, tmp_path):
        with Session(points) as s:
            result = s.run(VSET).results[VSET[0]]
            fp = s.store.fingerprint
        store = CheckpointStore(tmp_path, fp, len(points))
        path = store.save(result)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.load(VSET[0]) is None
        assert not path.exists(), "damaged entry must be removed"

    def test_no_tmp_files_left(self, points, tmp_path):
        with Session(points) as s:
            result = s.run(VSET).results[VSET[0]]
            fp = s.store.fingerprint
        store = CheckpointStore(tmp_path, fp, len(points))
        store.save(result)
        assert not list(store.dir.glob(".tmp_*"))

    def test_clear(self, points, tmp_path):
        with Session(points) as s:
            batch = s.run(VSET)
            fp = s.store.fingerprint
        store = CheckpointStore(tmp_path, fp, len(points))
        for v in list(VSET)[:3]:
            store.save(batch.results[v])
        assert store.clear() == 3
        assert store.completed() == []


class TestSessionResume:
    def test_second_run_resumes_everything(self, points, baseline, tmp_path):
        with Session(points) as s:
            first = s.run(VSET, resume=tmp_path)
            assert first.report is not None
            assert len(first.report.ok) == len(VSET)
            second = s.run(VSET, resume=tmp_path)
        assert len(second.report.resumed) == len(VSET)
        assert all(second.report[v].attempts == 0 for v in VSET)
        assert_canonical_equal(second, baseline)

    def test_interrupted_run_resumes_only_unfinished(
        self, points, baseline, tmp_path
    ):
        # "Kill" the first run by permanently failing three variants;
        # the survivors are checkpointed.
        plan = FaultPlan([FaultSpec("crash", i) for i in (0, 4, 8)])
        with Session(points) as s:
            first = s.run(VSET, fault_plan=plan, resume=tmp_path)
            assert len(first.report.failed) == 3
            second = s.run(VSET, resume=tmp_path)
        assert len(second.report.resumed) == len(VSET) - 3
        recomputed = set(second.report.ok) | set(second.report.replanned)
        assert recomputed == {VSET[i] for i in (0, 4, 8)}
        assert second.report.complete
        assert_canonical_equal(second, baseline)

    def test_resume_is_fingerprint_keyed(self, points, tmp_path):
        with Session(points) as s:
            s.run(VSET, resume=tmp_path)
        other = points + 0.001  # different database, same shape
        with Session(other) as s:
            batch = s.run(VSET, resume=tmp_path)
        assert not batch.report.resumed, "foreign checkpoints must not load"

    @pytest.mark.parametrize("executor", ["simulated", "processes"])
    def test_resume_across_backends(self, points, baseline, tmp_path, executor):
        with Session(points) as s:
            s.run(VariantSet(list(VSET)[:6]), resume=tmp_path)
            batch = s.run(VSET, executor=executor, n_threads=2, resume=tmp_path)
        assert len(batch.report.resumed) == 6
        assert batch.report.complete
        assert_canonical_equal(batch, baseline)


# ----------------------------------------------------------------------
# BatchReport / classification
# ----------------------------------------------------------------------
class TestBatchReport:
    def test_counts_and_summary(self):
        report = BatchReport(
            {
                VSET[0]: VariantOutcome(VSET[0], VariantStatus.OK),
                VSET[1]: VariantOutcome(VSET[1], VariantStatus.RETRIED, attempts=2),
                VSET[2]: VariantOutcome(VSET[2], VariantStatus.FAILED, attempts=3),
            }
        )
        assert report.counts()["ok"] == 1
        assert report.total_attempts == 6
        assert not report.complete
        assert "1 failed" in report.summary()
        rows = report.as_rows()
        assert rows[0]["variant"] == VSET[0].as_tuple()

    def test_merge(self):
        a = BatchReport({VSET[0]: VariantOutcome(VSET[0], VariantStatus.OK)})
        b = BatchReport({VSET[1]: VariantOutcome(VSET[1], VariantStatus.FAILED)})
        a.merge(b)
        assert len(a) == 2 and VSET[1] in a

    def test_classify_replans_is_idempotent(self):
        tree = dependency_tree(VSET)
        donor = VSET[0]
        child = next(iter(tree.successors(donor)))
        report = BatchReport(
            {
                donor: VariantOutcome(donor, VariantStatus.FAILED),
                child: VariantOutcome(child, VariantStatus.OK),
            }
        )
        classify_replans(report, VSET)
        assert report[child].status is VariantStatus.REPLANNED
        classify_replans(report, VSET)
        assert report[child].status is VariantStatus.REPLANNED
        # Once the donor is no longer failed, the mark is withdrawn.
        report.outcomes[donor] = VariantOutcome(donor, VariantStatus.OK)
        classify_replans(report, VSET)
        assert report[child].status is VariantStatus.OK


class TestObservability:
    def test_resilience_events_and_outcomes_in_registry(self, points):
        from repro.obs import MetricsRegistry, Tracer, use_tracer

        plan = FaultPlan([FaultSpec("crash", 0)])
        tracer = Tracer()
        with use_tracer(tracer), Session(points) as s:
            batch = s.run(
                VSET, fault_plan=plan, retry_policy=RetryPolicy(max_retries=1)
            )
        registry = MetricsRegistry.from_batch(batch, tracer)
        events = registry.resilience_events()
        assert events.get("variant_retry", 0) >= 1
        assert registry.meta["outcomes"]["retried"] == 1
        assert "resilience:" in registry.summary()


# ----------------------------------------------------------------------
# Session lifecycle
# ----------------------------------------------------------------------
class TestSessionLifecycle:
    def test_error_hierarchy(self):
        assert issubclass(SessionClosedError, ValueError)
        assert issubclass(SessionClosedError, ReproError)

    def test_double_close_raises(self, points):
        session = Session(points)
        session.close()
        with pytest.raises(SessionClosedError, match="already closed"):
            session.close()

    def test_run_and_context_after_close_raise(self, points):
        session = Session(points)
        session.close()
        with pytest.raises(SessionClosedError):
            session.run(VSET)
        with pytest.raises(SessionClosedError):
            session.context()

    def test_close_during_run_raises(self, points):
        session = Session(points)
        session._active_runs = 1  # a run is executing
        with pytest.raises(SessionClosedError, match="still executing"):
            session.close()
        session._active_runs = 0
        session.close()

    def test_context_manager_tolerates_manual_close(self, points):
        with Session(points) as session:
            session.close()  # __exit__ must not double-close


# ----------------------------------------------------------------------
# shm audit + doctor CLI
# ----------------------------------------------------------------------
def _dead_pid() -> int:
    proc = multiprocessing.Process(target=lambda: None)
    proc.start()
    proc.join()
    return proc.pid


@pytest.fixture
def orphan_segment():
    """A repro_* segment whose 'creator' pid is dead (a fake leak)."""
    name = f"repro_{_dead_pid()}_feed01"
    seg = shared_memory.SharedMemory(create=True, size=64, name=name)  # repro: allow[shm-lifecycle]
    seg.close()
    with contextlib.suppress(Exception):
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    yield name
    with contextlib.suppress(FileNotFoundError):
        stale = shared_memory.SharedMemory(name=name)  # repro: allow[shm-lifecycle]
        stale.close()
        stale.unlink()


class TestAudit:
    def test_scan_reports_orphan(self, orphan_segment):
        from repro.resilience.audit import scan_segments

        segments = {s.name: s for s in scan_segments()}
        assert orphan_segment in segments
        info = segments[orphan_segment]
        assert info.orphaned and not info.alive
        assert info.as_dict()["orphaned"] is True

    def test_live_segment_is_not_orphaned(self):
        from repro.engine.shm import create_shm, reclaim_segments
        from repro.resilience.audit import scan_segments

        shm = create_shm(64, "live")
        try:
            segments = {s.name: s for s in scan_segments()}
            assert segments[shm.name].orphaned is False
        finally:
            shm.close()
            shm.unlink()  # repro: allow[shm-lifecycle] (audit test owns the raw segment)
            reclaim_segments([shm.name])

    def test_reclaim_segments_audits_owned_leftovers(self):
        from repro.engine.shm import create_shm, owned_segments, reclaim_segments

        shm = create_shm(64, "leak")
        shm.close()  # owner "forgot" to unlink
        assert shm.name in owned_segments()
        assert reclaim_segments([shm.name]) == [shm.name]
        assert shm.name not in owned_segments()
        assert shm.name not in _repro_segments()


class TestDoctorCLI:
    def test_doctor_clean(self, capsys):
        from repro.cli import main

        assert main(["doctor"]) == 0
        # Either no segments at all, or only live ones from this process.
        out = capsys.readouterr().out
        assert "ORPHANED" not in out

    def test_doctor_lists_orphan(self, orphan_segment, capsys):
        from repro.cli import main

        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert orphan_segment in out and "ORPHANED" in out

    def test_doctor_json(self, orphan_segment, capsys):
        from repro.cli import main

        assert main(["doctor", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {s["name"] for s in payload["segments"]}
        assert orphan_segment in names
        assert payload["orphaned"] >= 1

    def test_doctor_unlink_removes_orphan(self, orphan_segment, capsys):
        from repro.cli import main

        assert main(["doctor", "--unlink", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert orphan_segment in payload["removed"]
        assert orphan_segment not in _repro_segments()


# ----------------------------------------------------------------------
# sweep CLI: --resume / --retries / status column
# ----------------------------------------------------------------------
class TestSweepResumeCLI:
    @pytest.fixture
    def dataset_file(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "ds.npz"
        assert main(["generate", "cF_10k_5N", "--scale", "0.06", "-o", str(out)]) == 0
        return out

    def test_sweep_resume_skips_finished(self, dataset_file, tmp_path, capsys):
        from repro.cli import main

        ckpt = tmp_path / "ckpt"
        args = [
            "sweep", str(dataset_file),
            "--minpts", "4,8", "--resume", str(ckpt),
        ]
        # First (interrupted) run covers part of the grid...
        assert main(args + ["--eps", "2.0"]) == 0
        capsys.readouterr()
        # ...the resumed run recomputes only the rest.
        assert main(args + ["--eps", "2.0,2.5"]) == 0
        out = capsys.readouterr().out
        assert "2 resumed" in out
        assert "status" in out

    def test_sweep_retries_flag_builds_policy(self, dataset_file, capsys):
        from repro.cli import main

        rc = main(
            [
                "sweep", str(dataset_file),
                "--eps", "2.0", "--minpts", "4",
                "--retries", "2", "--deadline", "30",
            ]
        )
        assert rc == 0
        assert "1 ok" in capsys.readouterr().out
