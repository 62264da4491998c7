#!/usr/bin/env python3
"""Parameter-sweep study: schedulers, reuse policies, and executors.

A deeper tour of the variant-execution machinery on a Table I dataset:

* the static reuse-dependency tree of Figure 3(a);
* SCHEDGREEDY vs SCHEDMINPTS at several thread counts (simulated
  work-unit clock, deterministic);
* the three cluster-reuse heuristics of Section IV-C;
* a real process-pool run for wall-clock comparison.

Run:  python examples/parameter_sweep.py
"""

from __future__ import annotations

import time

from repro import SchedGreedy, SchedMinpts, Session, VariantSet, dependency_tree
from repro.bench.reference import reference_run
from repro.core.reuse import CLUS_DEFAULT, CLUS_DENSITY, CLUS_PTS_SQUARED
from repro.core.scheduling import depth_first_schedule
from repro.data.registry import load_dataset

# ------------------------------------------------------------------
ds = load_dataset("SW1", scale=0.005)
variants = VariantSet.from_product([0.2, 0.3, 0.4], [8, 16, 24, 32])
session = Session(ds.points, kernel="bfs")
print(f"dataset SW1 @ {ds.n_points} points; |V| = {len(variants)}")

# ------------------------------------------------------------------
# Figure 3(a): who would reuse whom under global knowledge.
tree = dependency_tree(variants)
print("\nreuse-dependency tree (parent -> children):")
for parent in depth_first_schedule(tree):
    kids = sorted(tree.successors(parent), key=lambda v: (v.eps, -v.minpts))
    if kids:
        print(f"  {parent} -> {', '.join(map(str, kids))}")
roots = [v for v, d in tree.nodes(data=True) if d.get("root")]
print(f"  roots (must cluster from scratch): {roots}")

# ------------------------------------------------------------------
# Reference baseline (sequential DBSCAN, r = 1).
ref = reference_run(ds.points, variants)
print(f"\nreference implementation: {ref.total_units:,.0f} work units")

# ------------------------------------------------------------------
# Scheduler x thread-count sweep on the deterministic simulated clock.
print("\nscheduler sweep (speedup over reference / scratch runs):")
print(f"{'T':>4}  {'SCHEDGREEDY':>22}  {'SCHEDMINPTS':>22}")
for t in (1, 2, 4, 8, 16):
    cells = []
    for sched in (SchedGreedy(), SchedMinpts()):
        batch = session.run(
            variants, executor="simulated", n_threads=t, scheduler=sched
        )
        rec = batch.record
        cells.append(
            f"{ref.total_units / rec.makespan:6.2f}x  ({rec.n_from_scratch:2d} scratch)"
        )
    print(f"{t:>4}  {cells[0]:>22}  {cells[1]:>22}")

# ------------------------------------------------------------------
# Reuse-policy comparison at T = 1 (the Figure 5/7 setting).
print("\nreuse-policy sweep (T = 1):")
for policy in (CLUS_DEFAULT, CLUS_DENSITY, CLUS_PTS_SQUARED):
    batch = session.run(variants, executor="simulated", n_threads=1, policy=policy)
    rec = batch.record
    print(
        f"  {policy.name:<15} {ref.total_units / rec.makespan:6.2f}x over reference, "
        f"avg reuse {rec.average_reuse_fraction:.1%}"
    )

# ------------------------------------------------------------------
# And a genuinely parallel wall-clock run.
t0 = time.perf_counter()
batch = session.run(variants, executor="processes", n_threads=4)
wall = time.perf_counter() - t0
session.close()
print(
    f"\nprocess pool (4 workers): {len(batch.results)} variants in {wall:.2f}s wall, "
    f"avg reuse {batch.record.average_reuse_fraction:.1%} (chain-partitioned)"
)
