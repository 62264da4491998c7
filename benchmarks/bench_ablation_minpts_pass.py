"""Ablation — paper reuse vs cellgraph per variant vs one pass per eps.

Three ways to cluster a Table IV grid (V1, V2, V3 on SW1) exactly or
near-exactly, each on one real worker:

* ``paper-reuse``           — ``kernel="bfs"``: the paper's Algorithms
  3–4, scheduled by SCHEDGREEDY (VariantDBSCAN reuse over R-trees);
* ``cellgraph-per-variant`` — the cell-graph kernel once per variant,
  over the session's memoized per-eps grid (no reuse of any kind);
* ``per-eps-pass``          — the default ``kernel="cellgraph"`` batch:
  one :class:`~repro.core.cellgraph.MinptsPass` per eps serves every
  minpts at that eps with a threshold and a union-find.

Every arm is scored per variant against exact labels, taken from the
cell-graph kernel (byte-identical to BFS DBSCAN, which the test suite
pins): Jaccard ``quality_score`` mean and min, and the number of
variants below the paper's 0.998 bar.  The per-eps pass must match the
exact labels byte for byte (asserted); paper reuse is only scored.
Walls are the median of ``REPEATS`` runs of the whole grid.

Besides the human table, the run writes ``BENCH_pass.json`` (schema
``repro-bench-snapshot/v1``) at the repo root for CI artifact upload
and drift checks.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.bench.reporting import format_table
from repro.bench.scenarios import s3_variant_set
from repro.bench.snapshot import make_snapshot, write_snapshot
from repro.core.dbscan import dbscan
from repro.data.registry import load_dataset
from repro.engine import Session
from repro.metrics.counters import WorkCounters
from repro.metrics.quality import quality_score

from conftest import bench_scale

GRIDS = ("V1", "V2", "V3")
ARMS = ("paper-reuse", "cellgraph-per-variant", "per-eps-pass")
REPEATS = 3
QUALITY_BAR = 0.998
SNAPSHOT_PATH = Path(__file__).resolve().parent.parent / "BENCH_pass.json"


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _per_variant(session: Session, vset) -> tuple[dict, WorkCounters]:
    results, totals = {}, WorkCounters()
    for v in vset:
        res = dbscan(
            session.points, v.eps, v.minpts, index=session.index("cellgraph", eps=v.eps)
        )
        results[v] = res
        totals.merge(res.counters)
    return results, totals


def _batch(session: Session, vset, kernel: str) -> tuple[dict, WorkCounters]:
    batch = session.run(vset, kernel=kernel)
    totals = WorkCounters()
    for rec in batch.record.records:
        totals.merge(rec.counters)
    return dict(batch.results), totals


RUNNERS = {
    "paper-reuse": lambda s, vset: _batch(s, vset, "bfs"),
    "cellgraph-per-variant": _per_variant,
    "per-eps-pass": lambda s, vset: _batch(s, vset, "cellgraph"),
}


def test_ablation_minpts_pass_report(benchmark, report):
    scale = bench_scale()
    ds = load_dataset("SW1", scale)

    def run():
        rows = []
        with Session(ds.points, dataset="SW1") as session:
            session.indexes()  # set-up stays out of every arm's wall
            for name in GRIDS:
                vset = s3_variant_set(ds, name)
                # Builds the per-eps grids, which stay out of every wall.
                exact = _per_variant(session, vset)[0]
                for arm in ARMS:
                    walls = []
                    for _ in range(REPEATS):
                        t0 = time.perf_counter()
                        results, totals = RUNNERS[arm](session, vset)
                        walls.append(time.perf_counter() - t0)
                    scores = [quality_score(exact[v], results[v]) for v in vset]
                    identical = all(
                        np.array_equal(results[v].labels, exact[v].labels)
                        and np.array_equal(results[v].core_mask, exact[v].core_mask)
                        for v in vset
                    )
                    rows.append(
                        {
                            "kind": f"{name} {arm}",
                            "wall_s": statistics.median(walls),
                            "walls_s": walls,
                            "variants": len(vset),
                            "quality_mean": float(np.mean(scores)),
                            "quality_min": float(min(scores)),
                            "below_bar": sum(1 for q in scores if q < QUALITY_BAR),
                            "byte_identical": identical,
                            "counters": totals.as_dict(),
                        }
                    )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    by = {r["kind"]: r for r in rows}
    table = []
    for name in GRIDS:
        reuse_wall = by[f"{name} paper-reuse"]["wall_s"]
        for arm in ARMS:
            r = by[f"{name} {arm}"]
            table.append(
                [
                    name,
                    arm,
                    r["wall_s"],
                    r["variants"] / r["wall_s"],
                    reuse_wall / r["wall_s"],
                    r["quality_mean"],
                    r["quality_min"],
                    r["below_bar"],
                ]
            )
    report(
        "ablation_minpts_pass",
        format_table(
            ["grid", "arm", "wall (s)", "variants/s", "speedup vs reuse",
             "quality mean", "quality min", f"< {QUALITY_BAR}"],
            table,
            title=(
                f"Ablation: the minpts axis on SW1 (n={ds.points.shape[0]}, "
                f"scale {scale:g}, {_cpus()} CPU(s), one worker, median of "
                f"{REPEATS}).  Quality is Jaccard against exact DBSCAN."
            ),
        ),
    )

    snap = make_snapshot(
        "pass",
        workload={
            "dataset": "SW1",
            "grids": list(GRIDS),
            "arms": list(ARMS),
            "scale": scale,
            "repeats": REPEATS,
            "cpus": _cpus(),
        },
        n=int(ds.points.shape[0]),
        rows=rows,
    )
    write_snapshot(SNAPSHOT_PATH, snap)
    print(f"[snapshot saved to {SNAPSHOT_PATH}]")

    for name in GRIDS:
        assert by[f"{name} per-eps-pass"]["byte_identical"], (
            f"{name}: the per-eps pass diverged from exact DBSCAN"
        )
