"""Ablation — hybrid (variant x shard) lowering vs whole variants only.

The task-graph runtime lets one pool mix both parallelism axes: big
scratch variants fan out into region shards while small variants ride
reuse chains in whole-variant lanes.  This bench prices the two
lowerings of the *same* mixed workload on the simulated work-unit
clock (hardware-independent, deterministic), so the comparison is the
schedule itself rather than the CI container's core count:

* ``variant-only`` — simulated ``T = R`` lanes, whole variants only;
  the scratch root monopolizes one lane for its full duration while
  the reuse chains drain early (the Figure 9 idle-tail problem);
* ``hybrid``      — shard fan-out for the scratch root only
  (``shard_threshold=0``), whole-variant chains for the rest, one
  pool for both.

Workload: one large scratch root plus many small reuse variants — a
*star*: the root at (min eps, max minpts) is every leaf's only
eligible donor (eps and minpts both strictly increase across leaves,
so no leaf can reuse another).  Only the root runs from scratch, and
under hybrid lowering every lane head hard-depends on the root's
merge, so nothing silently falls back to scratch.  A linear eps
ladder would not do: splitting a reuse *path* across lanes strands
the sub-chain heads without donors, and they re-run from scratch.

Gates (modeled, armed at every scale — the work-unit clock does not
need a big ``n`` to be honest, but the snapshot committed at the repo
root is generated at ``GATE_SCALE`` so the margins are representative):

* hybrid modeled speedup >= variant-only;
* every configuration's labels are canonical-equal to serial.

Besides the human table, the run writes a machine-readable
``BENCH_hybrid.json`` snapshot (schema ``repro-bench-snapshot/v1``) at
the repo root for CI artifact upload and drift checks.
"""

from __future__ import annotations

import os
import time
from functools import reduce
from pathlib import Path

import numpy as np

from repro.bench.reporting import format_table
from repro.bench.snapshot import make_snapshot, write_snapshot
from repro.core.variants import Variant, VariantSet
from repro.metrics.counters import WorkCounters

from conftest import bench_scale, bench_session

#: Pool width and region count — both axes get the same budget.
R = 4
#: Leaves per star (the "many small reuse variants").
N_LEAVES = 7
SNAPSHOT_PATH = Path(__file__).resolve().parent.parent / "BENCH_hybrid.json"

#: Star grid: the root can donate to every leaf; no leaf can donate to
#: any other (eps and minpts both strictly increase).
ROOT = Variant(0.3, 1 + N_LEAVES)
LEAVES = [Variant(0.3 + 0.05 * i, 1 + i) for i in range(1, N_LEAVES + 1)]
VSET = VariantSet([ROOT] + LEAVES)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _canonical(labels: np.ndarray) -> np.ndarray:
    out = np.full(labels.shape, -1, dtype=labels.dtype)
    mapping: dict = {}
    for i, lab in enumerate(labels):
        if lab < 0:
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out


def _counters(batch) -> WorkCounters:
    return reduce(
        lambda a, b: a + b, (r.counters for r in batch.record.records)
    )


CONFIGS = (
    ("variant-only", {"n_threads": R}),
    ("hybrid", {"n_threads": R, "regions": R, "shard_threshold": 0}),
)


def test_ablation_hybrid_report(benchmark, report):
    session = bench_session("SW1")
    n = session.points.shape[0]

    def run():
        t0 = time.perf_counter()
        serial = session.run(VSET)
        wall = time.perf_counter() - t0
        baseline = {
            v: _canonical(serial.results[v].labels).tobytes() for v in VSET
        }
        rows = [
            ("serial", 1, wall, serial.record.makespan, _counters(serial))
        ]
        for kind, kw in CONFIGS:
            t0 = time.perf_counter()
            batch = session.run(VSET, executor="simulated", **kw)
            wall = time.perf_counter() - t0
            for v in VSET:
                assert (
                    _canonical(batch.results[v].labels).tobytes()
                    == baseline[v]
                ), f"labels diverged for {v} under {kind}"
            rows.append(
                (kind, R, wall, batch.record.makespan, _counters(batch))
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    serial_units = rows[0][3]
    speedup = {kind: serial_units / units for kind, _, _, units, _ in rows}
    report(
        "ablation_hybrid",
        format_table(
            ["lowering", "workers", "wall (s)", "modeled units",
             "modeled speedup"],
            [[k, w, s, u, speedup[k]] for k, w, s, u, _ in rows],
            title=(
                f"Ablation: hybrid lowering on SW1 (n={n}, star grid: "
                f"root {ROOT.as_tuple()} + {N_LEAVES} leaves, R={R}, "
                f"scale {bench_scale():g}, {_cpus()} CPU(s)).  One scratch "
                "root + reuse leaves; every row canonical-equal to serial."
            ),
        ),
    )

    snap = make_snapshot(
        "hybrid",
        workload={
            "dataset": "SW1",
            "root": list(ROOT.as_tuple()),
            "leaves": [list(v.as_tuple()) for v in LEAVES],
            "R": R,
            "scale": bench_scale(),
            "cpus": _cpus(),
            "modeled_speedup": {k: round(s, 4) for k, s in speedup.items()},
        },
        n=n,
        rows=[
            {
                "kind": k,
                "wall_s": float(s),
                "modeled_units": float(u),
                "counters": c.as_dict(),
            }
            for k, _, s, u, c in rows
        ],
    )
    write_snapshot(SNAPSHOT_PATH, snap)
    print(f"[snapshot saved to {SNAPSHOT_PATH}]")

    for k in ("variant-only", "hybrid"):
        print(f"[modeled speedup {k}: {speedup[k]:.2f}x]")
    floor = speedup["variant-only"]
    assert speedup["hybrid"] >= floor, (
        f"hybrid modeled speedup {speedup['hybrid']:.2f}x below the "
        f"variant-only lowering ({floor:.2f}x) — sharding the scratch "
        "root must never lose to running it whole"
    )
