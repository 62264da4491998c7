"""Process lanes under ``kernel="cellgraph"``: one unit per cell-graph pass.

Each ``eps`` of a batch is one lane unit holding all of its variants,
so its :class:`~repro.core.cellgraph.MinptsPass` is built once per
batch, at the largest ``minpts``, and every other ``minpts`` is served
from it (the shape of the paper's SchedMinpts, §IV-D).  Units are
priced from the parent's grid by :func:`repro.exec.graph._pass_cost`
and dispatched longest first to whichever lane frees first.  Every
output stays byte-identical to ``serial``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FaultPlan, FaultSpec, RetryPolicy, Session, VariantSet
from repro.bench.scenarios import S3_CONFIGS
from repro.core.taskgraph import lower_variants
from repro.data.registry import load_dataset
from repro.engine.context import RunContext, RunSpec
from repro.engine.factory import IndexFactory
from repro.engine.store import PointStore
from repro.exec.graph import _Batch, _pass_cost, _ProcessLanes
from repro.index.cellgraph import CellGraphIndex
from repro.obs.span import SPAN_TASK, Tracer


def _table4(name: str) -> VariantSet:
    cfg = next(c for c in S3_CONFIGS if c.dataset == "SW1" and c.variant_set_name == name)
    return VariantSet.from_product(cfg.eps_values, cfg.minpts_values)


V1 = _table4("V1")
V3 = _table4("V3")


@pytest.fixture(scope="module")
def sw1():
    return load_dataset("SW1", 0.01).points


@pytest.fixture(scope="module")
def small():
    return load_dataset("SW1", 0.002).points


def _same(a, b, variants) -> None:
    for v in variants:
        assert np.array_equal(a[v].labels, b[v].labels), v
        assert np.array_equal(a[v].core_mask, b[v].core_mask), v


def _grouped(points, variants, n_threads: int = 2):
    """``_ProcessLanes.group`` on a cellgraph batch, without running it."""
    store = PointStore.from_points(points)
    spec = RunSpec(executor="processes", n_threads=n_threads)
    ctx = RunContext(store=store, spec=spec, factory=IndexFactory())
    b = _Batch(ctx, variants)
    graph = lower_variants(spec.effective_reuse.scheduler.plan(variants), variants)
    b.task_of = {t.variant: t for t in graph.variant_tasks()}
    lanes = _ProcessLanes()
    return lanes, lanes.group(b, graph), ctx


class TestPassCost:
    @pytest.mark.parametrize("top", [1, 4, 100])
    def test_matches_its_definition(self, small, top):
        """Sparse cells: count times the 5x5 block's points; dense cells: 1."""
        grid = CellGraphIndex(small, 0.3)
        count = {tuple(k): int(c) for k, c in zip(grid.cell_keys, grid.cell_counts)}
        want = 0
        for (cx, cy), c in count.items():
            if c >= top:
                want += 1
                continue
            block = sum(
                count.get((cx + dx, cy + dy), 0) for dx in range(-2, 3) for dy in range(-2, 3)
            )
            want += c * block
        assert _pass_cost(grid, top) == want
        assert _pass_cost(grid, top) == want, "memoized"


class TestOnePassPerEps:
    def test_v1_builds_each_pass_once(self, sw1):
        tracer = Tracer()
        with Session(sw1, dataset="SW1") as s:
            serial = s.run(V1)
        with Session(sw1, dataset="SW1", tracer=tracer) as s:
            proc = s.run(V1, executor="processes", n_threads=2)
        builds = [r for r in tracer.records() if r.name == "phase:core_cells"]
        assert len(builds) == 3, "each eps's pass once: 3 builds for 3 eps"
        assert len({r.args["variant"] for r in builds}) == 3
        _same(serial.results, proc.results, V1)

    def test_group_is_one_unit_per_eps_longest_first(self, sw1):
        lanes, groups, ctx = _grouped(sw1, V1)
        assert [g.variants[0].eps for g in groups] == [0.4, 0.3, 0.2]
        for g in groups:
            eps = g.variants[0].eps
            want = [v for v in V1 if v.eps == eps]
            assert g.variants == want, "all of one eps, minpts descending"
            assert [p.variant for p in g.todo] == want
            grid = ctx.factory.get(ctx.store, "cellgraph", eps=eps)
            assert g.cost == (_pass_cost(grid, want[0].minpts), eps)
        assert lanes.n_slots == 2

    def test_equal_costs_go_to_the_larger_eps(self):
        # Far-apart points: every cell holds one point with an empty
        # block, so each pass is priced 8 whatever its eps.
        points = np.arange(8, dtype=float).repeat(2).reshape(-1, 2) * 10.0
        _, groups, _ = _grouped(points, VariantSet.from_product([0.2, 0.5, 0.3], [4]))
        assert [g.cost for g in groups] == [(8, 0.5), (8, 0.3), (8, 0.2)]

    @pytest.mark.parametrize("n_threads", [2, 3])
    def test_more_eps_than_lanes_opens_n_threads_lanes(self, small, n_threads):
        lanes, groups, _ = _grouped(small, V3, n_threads)
        assert len(groups) == 19 and lanes.n_slots == n_threads
        costs = [g.cost for g in groups]
        assert costs == sorted(costs, reverse=True)
        tracer = Tracer()
        with Session(small, dataset="SW1") as s:
            serial = s.run(V3)
        with Session(small, dataset="SW1", tracer=tracer) as s:
            proc = s.run(V3, executor="processes", n_threads=n_threads)
        lanes_used = {r.thread for r in tracer.records() if r.name == SPAN_TASK}
        assert lanes_used <= {f"lane-{i}" for i in range(n_threads)}
        builds = [r for r in tracer.records() if r.name == "phase:core_cells"]
        assert len(builds) == 19
        _same(serial.results, proc.results, V3)


class TestKillCollateral:
    """A killed worker charges only its own pass's unfinished variants."""

    VS = VariantSet.from_product([0.5, 0.6, 0.7], [4, 8, 16])
    PLAN = FaultPlan(
        [
            FaultSpec("crash", 0, 0),
            FaultSpec("crash", 0, 1),
            FaultSpec("kill", 3),  # (0.6, 16): its pass-mates are collateral
            FaultSpec("corrupt", 5, phase="finish"),
            FaultSpec("crash", 7, 0),
            FaultSpec("crash", 7, 1),
            FaultSpec("crash", 7, 2),
        ]
    )

    def test_outcomes_outside_the_killed_pass_equal_serial(self, sw1):
        runs = {}
        with Session(sw1, dataset="SW1") as s:
            for ex in ("serial", "processes"):
                runs[ex] = s.run(
                    self.VS, executor=ex, n_threads=2,
                    retry_policy=RetryPolicy(max_retries=2), fault_plan=self.PLAN,
                )
        outcomes = {
            ex: {v: (o.status.value, o.attempts) for v, o in r.report.outcomes.items()}
            for ex, r in runs.items()
        }
        serial, proc = outcomes["serial"], outcomes["processes"]
        killed = self.VS[3]
        for v in self.VS:
            if v.eps != killed.eps or v == killed:
                assert proc[v] == serial[v], v
        # The pass-mate that had no fault of its own pays one collateral
        # attempt; (0.6, 4)'s own corrupt fault already cost it one.
        assert serial[self.VS[4]] == ("ok", 1)
        assert proc[self.VS[4]] == ("retried", 2)
        assert proc[self.VS[5]] == serial[self.VS[5]] == ("retried", 2)
        _same(runs["serial"].results, runs["processes"].results, self.VS)
