"""The runtime's one failure handler, driven without a batch.

:func:`repro.exec.graph._fail` and :func:`repro.exec.graph._on_lost`
read and write only a :class:`repro.exec.graph._Batch`.  These tests
hand-build one with no lanes and no task graph, so each branch of the
failure path is pinned on its own: backoff keying, permanent failure,
the kill-fault budget, the supervisor's risk gate and ladder, and
stale shard rounds.  The batch-level behaviour of the same path is
covered by tests/test_resilience.py and tests/test_supervise.py.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

from repro import FaultPlan, FaultSpec, RetryPolicy, VariantSet
from repro.core.scheduling import PlannedVariant
from repro.engine.context import RunContext, RunSpec
from repro.engine.store import PointStore
from repro.exec.graph import (
    EVENT_FAILED,
    _Batch,
    _fail,
    _GroupUnit,
    _InlineLanes,
    _Job,
    _on_done,
    _on_lost,
    _ShardPipeline,
)
from repro.obs.span import Tracer
from repro.resilience.report import VariantStatus
from repro.supervise import SupervisePolicy, Supervisor

VS = VariantSet.from_product([0.5, 0.6], [4, 8])
#: Seeded jitter: each backoff is a pure function of (attempt, key).
POLICY = RetryPolicy(max_retries=2, backoff_base_s=0.5, backoff_jitter=0.9, backoff_seed=7)


def make_batch(policy: RetryPolicy | None = POLICY, **knobs) -> _Batch:
    ctx = RunContext(
        store=PointStore.from_points(np.zeros((4, 2))), spec=RunSpec(), tracer=Tracer()
    )
    return _Batch(ctx, VS, policy=policy, **knobs)


def group(b: _Batch, variants, **knobs) -> _GroupUnit:
    planned = [PlannedVariant(v) for v in variants]
    return _GroupUnit(0, list(variants), planned, set(), b.budget, **knobs)


def pipeline(b: _Batch, variant, n_regions: int = 3) -> _ShardPipeline:
    shards = tuple(f"shard:x#{r}" for r in range(n_regions))
    return _ShardPipeline(variant, n_regions, "merge:x", shards, b.budget)


def failed_events(b: _Batch) -> list[tuple[str, int]]:
    return [
        (r.args["variant"], r.args["attempts"])
        for r in b.tracer.records()
        if r.name == EVENT_FAILED
    ]


class TestRetry:
    def test_backoff_is_keyed_on_the_canonical_variant_index(self):
        b = make_batch()
        v = VS[2]
        unit = group(b, [VS[0], v])
        want = POLICY.backoff_s(0, key=b.index_of[v])
        assert want != POLICY.backoff_s(0, key=0), "the key must matter"
        before = time.monotonic()
        _fail(b, unit, [v], "boom", unit.label)
        assert before + want <= unit.ready_after <= time.monotonic() + want
        assert b.attempts[v] == 1 and b.last_error[v] == "boom"
        assert b.outcomes == {} and not unit.done

    def test_shard_backoff_is_keyed_on_the_region(self):
        b = make_batch()
        v = VS[1]
        pipe = pipeline(b, v)
        want = POLICY.backoff_s(0, key=2)
        assert want != POLICY.backoff_s(0, key=b.index_of[v]), "the key must matter"
        before = time.monotonic()
        _on_lost(b, _Job(pipe, 0, None, region=2, stamp=0, label="shard:x#2"), "died")
        assert before + want <= pipe.ready_after <= time.monotonic() + want
        assert b.last_error[v] == "shard died"


class TestPermanentFailure:
    def test_spent_budget_fails_the_variant(self):
        b = make_batch(RetryPolicy(max_retries=1))
        v0, v1 = VS[0], VS[1]
        unit = group(b, [v0, v1])
        b.attempts[v0] = 1
        _fail(b, unit, [v0], ValueError("bad"), unit.label)
        out = b.outcomes[v0]
        assert (out.status, out.attempts, out.error) == (VariantStatus.FAILED, 2, "ValueError: bad")
        assert failed_events(b) == [(str(v0), 2)]
        assert [p.variant for p in unit.todo] == [v1] and not unit.done

    def test_losing_the_last_variant_closes_the_unit(self):
        b = make_batch(RetryPolicy(max_retries=0))
        unit = group(b, [VS[0]])
        _fail(b, unit, [VS[0]], "boom", unit.label)
        assert unit.done and unit.todo == []
        assert b.outcomes[VS[0]].status is VariantStatus.FAILED

    def test_kill_faults_raise_the_budget(self):
        policy = RetryPolicy(max_retries=0)
        plain = make_batch(policy)
        killed = make_batch(policy, faults=FaultPlan([FaultSpec("kill", 3)]).bind(VS))
        assert (plain.budget, killed.budget) == (1, 2)
        for b in (plain, killed):
            unit = group(b, [VS[0]])
            _fail(b, unit, [VS[0]], "group worker died", unit.label)
        assert plain.outcomes[VS[0]].status is VariantStatus.FAILED
        assert killed.outcomes == {}, "a collateral death must not exhaust the variant"


class TestSupervisedGate:
    def test_rejected_retry_at_the_floor_drops_the_variant(self):
        sup = Supervisor(SupervisePolicy(risk_budget=0.0))
        b = make_batch(supervisor=sup)
        v = VS[0]
        unit = group(b, [v], rung="serial")  # the substrate axis's floor
        _fail(b, unit, [v], "boom", unit.label)
        assert b.outcomes == {}, "the first failure is not gated"
        _fail(b, unit, [v], "boom", unit.label)
        out = b.outcomes[v]
        assert (out.status, out.attempts) == (VariantStatus.FAILED, 2)
        assert out.attempts < unit.budget, "the gate, not the budget, dropped it"
        assert unit.done
        assert [r.anomaly.kind for r in sup.records][0] == "crash-loop"

    def test_rejected_retry_degrades_when_the_ladder_has_a_step(self, monkeypatch):
        sup = Supervisor(SupervisePolicy(risk_budget=1.0))
        rejected = SimpleNamespace(decision="recommended")
        monkeypatch.setattr(sup, "on_crash", lambda *a, **k: rejected)
        b = make_batch(supervisor=sup)
        v = VS[0]
        unit = group(b, [v])
        _fail(b, unit, [v], "boom", unit.label)
        first_backoff = unit.ready_after
        _fail(b, unit, [v], "boom", unit.label)
        assert (unit.rung, unit.degraded) == ("serial", "substrate:lanes→serial")
        assert unit.budget == 2 + b.max_attempts
        assert b.outcomes == {} and not unit.done
        assert unit.ready_after == first_backoff, "degrading sets no new backoff"

    def test_exhausted_pipeline_lowers_to_a_whole_variant(self):
        sup = Supervisor(SupervisePolicy(risk_budget=1.0))
        b = make_batch(RetryPolicy(max_retries=0), supervisor=sup)
        v = VS[1]
        pipe = pipeline(b, v)
        b.units.append(pipe)
        _on_lost(b, _Job(pipe, 0, None, region=0, stamp=0, label="shard:x#0"), "died")
        (lowered,) = b.units
        assert pipe.done and isinstance(lowered, _GroupUnit)
        assert (lowered.rung, lowered.merge_id, lowered.kernel) == ("serial", "merge:x", None)
        assert lowered.settles == pipe.shard_ids
        assert lowered.todo[0].force_scratch and b.outcomes == {}


class TestStaleShardRounds:
    def test_lost_job_of_an_old_attempt_changes_nothing(self):
        b = make_batch()
        v = VS[0]
        pipe = pipeline(b, v)
        b.attempts[v] = 1  # the round this job belonged to already failed
        _on_lost(b, _Job(pipe, 0, None, region=0, stamp=0, label="shard:x#0"), "died")
        assert b.attempts[v] == 1 and b.last_error == {} and pipe.ready_after == 0.0

    def test_lost_job_of_a_finished_pipeline_changes_nothing(self):
        b = make_batch()
        v = VS[0]
        pipe = pipeline(b, v)
        pipe.done = True
        _on_lost(b, _Job(pipe, 0, None, region=1, stamp=0, label="shard:x#1"), "died")
        assert b.attempts[v] == 0 and b.outcomes == {} and pipe.ready_after == 0.0

    def test_completion_of_a_finished_pipeline_keeps_no_piece(self):
        b = make_batch(lanes=_InlineLanes(1, VS))
        pipe = pipeline(b, VS[0], n_regions=1)
        pipe.done = True
        piece = object()  # never read: the pipeline is settled
        job = _Job(pipe, 0, None, region=0, stamp=0, label="shard:x#0")
        _on_done(b, job, (piece, None, 0.0, 1.0))
        assert pipe.pieces == {} and b.results == {} and b.task_spans == []
