"""Ablation — scheduling and reuse switched on/off.

Three comparisons the paper motivates but does not isolate:

1. **Reuse off vs on** at T = 1 (how much of Figure 7 is reuse alone).
2. **Greedy source selection vs naive** ("reuse the most recently
   completed eligible variant" instead of the min-distance one).
3. **Low-reuse overhead bound** — Section VI claims that when little
   reuse is available, VariantDBSCAN's bookkeeping is "not
   prohibitive" vs clustering from scratch; we quantify it on a
   variant chain engineered for minimal reuse.
"""

from __future__ import annotations

from repro.bench.reporting import format_table
from repro.core.scheduling import SchedGreedy
from repro.core.variants import Variant, VariantSet

from conftest import bench_scale, bench_session

VSET = VariantSet.from_product([0.2, 0.3, 0.4], [4, 8, 16, 32])


class _SchedNoReuse(SchedGreedy):
    """Scheduler that never reuses — isolates indexing from reuse."""

    name = "NOREUSE"

    def select_source(self, planned, vset, registry, before=None):
        return None


class _SchedMostRecent(SchedGreedy):
    """Reuse the most recently completed eligible variant (no distance)."""

    name = "MOSTRECENT"

    def select_source(self, planned, vset, registry, before=None):
        if planned.force_scratch:
            return None
        eligible = [
            u for u in registry.completed_variants(before) if planned.variant.can_reuse(u)
        ]
        if not eligible:
            return None
        last = eligible[-1]
        return last, registry.get(last)


def test_ablation_scheduling_report(benchmark, report):
    session = bench_session("SW1")

    def run():
        rows = []
        for sched in (SchedGreedy(), _SchedMostRecent(), _SchedNoReuse()):
            batch = session.run(VSET, scheduler=sched)
            rows.append(
                [
                    sched.name,
                    batch.record.makespan,
                    batch.record.average_reuse_fraction,
                    batch.record.n_from_scratch,
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_scheduling",
        format_table(
            ["scheduler", "total units", "avg reuse", "scratch"],
            rows,
            title=f"Ablation: reuse-source selection on SW1 (T=1, scale {bench_scale():g})",
        ),
    )
    by = {r[0]: r for r in rows}
    # reuse (any flavour) beats no reuse
    assert by["SCHEDGREEDY"][1] < by["NOREUSE"][1]
    # greedy min-distance selection is at least as good as most-recent
    assert by["SCHEDGREEDY"][1] <= by["MOSTRECENT"][1] * 1.05


def test_ablation_low_reuse_overhead_report(benchmark, report):
    """Section VI: low-reuse overhead is not prohibitive.

    A chain of near-disjoint variants (big eps jumps, alternating
    minpts walls) yields little reuse; VariantDBSCAN must then cost at
    most ~30 % over the same variants clustered from scratch with the
    same index.
    """
    session = bench_session("cF_1M_30N")
    vset = VariantSet.from_pairs([(0.2, 32), (0.25, 32), (0.3, 32), (0.35, 32)])

    def run():
        with_reuse = session.run(vset)
        no_reuse = session.run(vset, scheduler=_SchedNoReuse())
        return with_reuse.record, no_reuse.record

    with_reuse, no_reuse = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = with_reuse.makespan / no_reuse.makespan - 1.0
    report(
        "ablation_low_reuse_overhead",
        format_table(
            ["config", "total units", "avg reuse"],
            [
                ["VariantDBSCAN", with_reuse.makespan, with_reuse.average_reuse_fraction],
                ["scratch (same index)", no_reuse.makespan, 0.0],
            ],
            title=(
                "Ablation: reuse overhead in a low-reuse regime "
                f"(overhead {overhead:+.1%}; paper claims 'not prohibitive')"
            ),
        ),
    )
    assert overhead < 0.30
