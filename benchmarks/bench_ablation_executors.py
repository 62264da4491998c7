"""Ablation — executor substrates (wall-clock, honesty check).

DESIGN.md substitutes the paper's OpenMP threads with (a) a simulated
work-unit executor for figure reproduction and (b) process lanes over
statically partitioned reuse chains.  This bench measures the *actual
wall-clock* behaviour of serial against process lanes.  (A real-thread
substrate was measured slower than process lanes on every V1/V3
workload and deleted; EXPERIMENTS.md records the numbers.)

All runs route through one shared :class:`repro.Session`
(``bench_session``), so the point store and both R-trees are built once
for the whole module.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.bench.reporting import format_table
from repro.core.reuse import POLICIES
from repro.core.scheduling import SCHEDULERS
from repro.core.variants import VariantSet

from conftest import bench_scale, bench_session

VSET = VariantSet.from_product([0.2, 0.3, 0.4], [4, 8, 16])
WORKERS = min(4, os.cpu_count() or 1)

# The Figure 9 workload configuration (SW1, r = 70) at bench scale.
FIG9_DATASET = "SW1"


def _canonical(labels: np.ndarray) -> np.ndarray:
    """Labels renumbered by first appearance (noise stays -1).

    The process backend partitions reuse chains across workers, which
    permutes cluster *ids* while preserving the partition itself;
    canonicalizing both sides turns "same clustering" into byte
    equality.
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


@pytest.mark.parametrize("kind", ["serial", "processes"])
def test_bench_executor_wall(benchmark, kind):
    session = bench_session(FIG9_DATASET)
    n = 1 if kind == "serial" else WORKERS
    benchmark.pedantic(
        lambda: session.run(VSET, executor=kind, n_threads=n), rounds=2, iterations=1
    )


def test_ablation_executors_report(benchmark, report):
    session = bench_session(FIG9_DATASET)

    def run():
        rows = []
        for kind in ("serial", "processes"):
            n = 1 if kind == "serial" else WORKERS
            t0 = time.perf_counter()
            batch = session.run(VSET, executor=kind, n_threads=n)
            wall = time.perf_counter() - t0
            rows.append([kind, n, wall, len(batch.results)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    serial_wall = rows[0][2]
    table = [r + [serial_wall / r[2]] for r in rows]
    report(
        "ablation_executors",
        format_table(
            ["executor", "workers", "wall (s)", "variants", "speedup vs serial"],
            table,
            title=(
                f"Ablation: executor substrates on SW1 (scale {bench_scale():g}).\n"
                "Process lanes against serial on this host's wall clock; the "
                "simulated executor models the paper's thread scaling instead "
                "(DESIGN.md)."
            ),
        ),
    )
    assert all(r[3] == len(VSET) for r in rows)


def test_procpool_matches_serial_per_config(report):
    """Process-pool clusterings equal serial's for every scheduler×policy.

    "Equal" means the same partition and the same noise set: cluster ids
    are canonicalized on both sides (the chain partitioning permutes
    them), after which the label arrays must be byte-identical.
    """
    session = bench_session(FIG9_DATASET)
    rows = []
    for sched in sorted(SCHEDULERS):
        for pol in sorted(POLICIES):
            serial = session.run(VSET, scheduler=sched, policy=pol)
            proc = session.run(
                VSET, executor="processes", n_threads=WORKERS,
                scheduler=sched, policy=pol,
            )
            identical = all(
                np.array_equal(_canonical(serial[v].labels), _canonical(proc[v].labels))
                for v in VSET
            )
            rows.append([sched, pol, "yes" if identical else "NO"])
            assert identical, f"procpool diverged from serial under {sched}/{pol}"
    report(
        "procpool_identity",
        format_table(
            ["scheduler", "policy", "canonical labels identical"],
            rows,
            title=(
                "Process pool vs serial on the Fig. 9 workload "
                f"(SW1, scale {bench_scale():g}, |V|={len(VSET)})."
            ),
        ),
    )
