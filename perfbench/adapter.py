"""Every call the benchmark makes into ``repro`` goes through this module.

The rest of the benchmark sees plain Python values, so a change to the
library's public API (for example replacing ``executor=`` with
``lowering=``/``substrate=``) is absorbed here, in one file.

The program under test is driven only through ``Session``,
``Session.run``, ``Session.indexes`` and ``Session.index``; the layer
functions (scheduler plan, lowering, kernels, shard plan/cluster/merge,
the simulated executor) are called directly only by the traced run.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.bench.scenarios import S3_CONFIGS
from repro.core.result import relabel_dense
from repro.core.scheduling import CompletedRegistry, SchedGreedy, dependency_tree
from repro.core.shard import cluster_shard, merge_shards, plan_shards, shard_members
from repro.core.taskgraph import DEFAULT_SHARD_THRESHOLD, lower_variants
from repro.data.registry import DATASETS
from repro.data.tec import TECMapModel, generate_tec_points
from repro.obs.export import read_jsonl, write_jsonl
from repro.obs.registry import MetricsRegistry
from repro.obs.span import SpanRecord

#: The seeded inputs are a uniform subsample of a pool this many times
#: larger than the workload, drawn once from the SW1 map (see
#: :func:`make_points`).
POOL_FACTOR = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: input size, variant grid and run knobs."""

    name: str
    scale: float
    variants: tuple[tuple[float, int], ...]
    run_kwargs: dict = field(default_factory=dict)

    @property
    def lowering(self) -> str:
        """The task-graph lowering mode the workload's executor uses."""
        return "hybrid" if self.run_kwargs.get("executor") == "hybrid" else "variant"

    @property
    def kernel(self) -> str:
        return self.run_kwargs.get("kernel", "bfs")

    @property
    def n_threads(self) -> int:
        return self.run_kwargs.get("n_threads", 1)

    @property
    def in_workers(self) -> bool:
        """True when variants execute in lane worker processes."""
        return self.run_kwargs.get("executor", "serial") in ("processes", "hybrid")

    @property
    def eps_values(self) -> list[float]:
        return sorted({e for e, _ in self.variants})


def _table4(name: str) -> tuple[tuple[float, int], ...]:
    cfg = next(c for c in S3_CONFIGS if c.dataset == "SW1" and c.variant_set_name == name)
    return tuple((float(e), int(m)) for e in cfg.eps_values for m in cfg.minpts_values)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-minpts",
            0.01,
            _table4("V1"),
            {"executor": "processes", "n_threads": 2},
        ),
        Workload("sweep-eps", 0.01, _table4("V3"), {"executor": "serial"}),
        Workload(
            "scratch-large",
            0.54,
            tuple(
                (round(0.3 + 0.1 * i, 1), 4 + 4 * i) for i in range(6)
            ),
            {
                "executor": "hybrid",
                "regions": 2,
                "n_threads": 2,
                "kernel": "cellgraph",
                "supervise": True,
            },
        ),
    )
}


def registry_seed() -> int:
    """The SW1 registry seed: the default workload seed."""
    return DATASETS["SW1"].seed


def make_points(scale: float, seed: int) -> np.ndarray:
    """SW1 points at ``scale``, sampled by ``seed`` from the SW1 map.

    The TEC map (storm geometry, receiver networks) is drawn from the
    SW1 registry seed, exactly as the dataset registry draws it;
    ``seed`` picks which measurements are taken from it: a uniform
    subsample of an i.i.d. pool from that map, which is itself an
    i.i.d. sample of the same size and density as the registry's
    dataset.  Drawing the map itself from ``seed`` changes the work of
    a V3 batch by up to 3x between seeds, which no bound could absorb.
    """
    spec = DATASETS["SW1"]
    n = max(500, int(round(spec.full_size * scale)))
    pool = generate_tec_points(
        POOL_FACTOR * n, TECMapModel(), seed=spec.seed, area_fraction=n / spec.full_size
    )
    pick = np.sort(np.random.default_rng(seed).choice(pool.shape[0], n, replace=False))
    return np.ascontiguousarray(pool[pick])


def variant_set(workload: Workload) -> repro.VariantSet:
    return repro.VariantSet([repro.Variant(e, m) for e, m in workload.variants])


def variant_key(variant: repro.Variant) -> tuple[float, int]:
    return (float(variant.eps), int(variant.minpts))


# -- set-up ---------------------------------------------------------------
def open_session(points: np.ndarray, span, cellgraph_eps: list[float]) -> repro.Session:
    """``Session(points)``, ``indexes()`` and the listed cellgraph indexes."""
    with span("engine.store"):
        session = repro.Session(points, dataset="SW1")
    with span("engine.index_pair"):
        session.indexes()
    with span("engine.cellgraph_index"):
        for eps in cellgraph_eps:
            session.index("cellgraph", eps=eps)
    return session


def share_store(session: repro.Session) -> None:
    session.store.ensure_shared()


# -- the batch ------------------------------------------------------------
@dataclass
class BatchOutcome:
    """What one ``Session.run`` produced, in plain values."""

    results: dict  # (eps, minpts) -> ClusteringResult
    reused: dict  # (eps, minpts) -> bool
    n_variants: int
    counters: dict  # summed WorkCounters fields
    n_from_scratch: int
    reuse_fraction_mean: float
    variant_walls: list[float]
    anomalies: int
    remediations: int


def run_batch(session: repro.Session, workload: Workload, vset) -> BatchOutcome:
    """One ``Session.run`` of the workload, reduced to plain values."""
    batch = session.run(vset, **workload.run_kwargs)
    record = batch.record
    totals = repro.WorkCounters()
    for rec in record.records:
        totals.merge(rec.counters)
    report = batch.report
    remediations = list(report.remediations) if report is not None else []
    return BatchOutcome(
        results={variant_key(v): r for v, r in batch.results.items()},
        reused={variant_key(r.variant): not r.from_scratch for r in record.records},
        n_variants=record.n_variants,
        counters=totals.as_dict(),
        n_from_scratch=record.n_from_scratch,
        reuse_fraction_mean=record.average_reuse_fraction,
        variant_walls=[r.wall_time for r in record.records],
        anomalies=len(remediations),
        remediations=sum(1 for r in remediations if r.decision == "applied"),
    )


# -- the oracle and the label checks ---------------------------------------
@dataclass
class Oracle:
    """From-scratch exact labels per variant, in canonical numbering."""

    results: dict  # (eps, minpts) -> ClusteringResult
    canonical: dict  # (eps, minpts) -> canonical labels
    kernel_s: float  # cellgraph kernel seconds, index builds excluded


def build_oracle(points: np.ndarray, workload: Workload, span) -> Oracle:
    """Exact DBSCAN per variant with the cell-graph kernel.

    The cell-graph kernel is byte-identical to the BFS kernel (its
    module documents why) and about twice as fast here; each index is
    built over the raw points, independently of the session's.
    """
    results, canonical, kernel_s = {}, {}, 0.0
    for eps in workload.eps_values:
        with span("oracle.index", eps=eps):
            index = repro.CellGraphIndex(points, eps)
        for e, m in workload.variants:
            if e != eps:
                continue
            with span("cellgraph.kernel", eps=e, minpts=m):
                t0 = time.perf_counter()
                res = repro.dbscan(points, e, m, index=index)
                kernel_s += time.perf_counter() - t0
            results[(e, m)] = res
            canonical[(e, m)] = relabel_dense(res.labels)[0]
    return Oracle(results, canonical, kernel_s)


def label_digest(result) -> str:
    """Digest of one result's raw labels and core flags."""
    h = hashlib.sha1(np.ascontiguousarray(result.labels).tobytes())
    h.update(np.ascontiguousarray(result.core_mask).tobytes())
    return h.hexdigest()


def canonical_digest(result) -> str:
    """Digest of one result's canonically relabelled labels and core flags."""
    h = hashlib.sha1(relabel_dense(result.labels)[0].tobytes())
    h.update(np.ascontiguousarray(result.core_mask).tobytes())
    return h.hexdigest()


def check_labels(oracle: Oracle, key, result, exact: bool) -> tuple[bool, float]:
    """``(contract met, Jaccard quality)`` of one variant's result.

    Exact paths must match the oracle byte for byte after canonical
    relabelling, core flags included; reuse results are scored only.
    """
    ref = oracle.results[key]
    quality = repro.quality_score(ref, result)
    if not exact:
        return True, quality
    same = np.array_equal(relabel_dense(result.labels)[0], oracle.canonical[key]) and (
        np.array_equal(np.asarray(result.core_mask), np.asarray(ref.core_mask))
    )
    return same, quality


# -- layer reruns for the traced run ---------------------------------------
def plan_and_lower(workload: Workload, vset, n_points: int, span) -> dict:
    """Scheduler plan and task-graph lowering, each under a span."""
    scheduler = SchedGreedy()
    with span("scheduling.plan"):
        plan = scheduler.plan(vset)
    with span("taskgraph.lower"):
        graph = lower_variants(
            plan,
            vset,
            mode=workload.lowering,
            n_regions=workload.run_kwargs.get("regions", 1),
            n_points=n_points,
        )
    return {
        "plan": plan,
        "scheduler": scheduler,
        "tasks": len(graph.tasks),
        "shard_tasks": sum(1 for t in graph.tasks if t.kind == "shard"),
    }


def serial_kernels(session: repro.Session, workload: Workload, vset, planned: dict, span) -> list:
    """Run the plan serially in two spans; return the scratch roots.

    ``kernel.scratch``: ``dbscan`` on the plan's scratch roots (the
    roots of the Figure 3(a) reuse forest).  ``kernel.reuse``:
    ``variant_dbscan`` on every other variant in plan order, reusing the
    scheduler's chosen donor.  A stage with nothing to run still has a
    span, a few microseconds long.
    """
    points = session.points
    pair = session.indexes()
    forest = dependency_tree(vset)
    plan = planned["plan"]
    roots = [p for p in plan if forest.nodes[p.variant].get("root")]
    rest = [p for p in plan if not forest.nodes[p.variant].get("root")]
    registry = CompletedRegistry()
    with span("kernel.scratch"):
        for i, p in enumerate(roots):
            v = p.variant
            index = (
                session.index("cellgraph", eps=v.eps)
                if workload.kernel == "cellgraph"
                else pair.t_low
            )
            registry.add(v, repro.dbscan(points, v.eps, v.minpts, index=index), float(i))
    with span("kernel.reuse"):
        for i, p in enumerate(rest, start=len(roots)):
            source = planned["scheduler"].select_source(p, vset, registry)
            res = repro.variant_dbscan(
                points,
                p.variant,
                previous=source[1] if source is not None else None,
                t_high=pair.t_high,
                t_low=pair.t_low,
                reuse_policy=session.reuse_policy,
            )
            registry.add(p.variant, res, float(i))
    return [variant_key(p.variant) for p in roots]


def shard_roots(points: np.ndarray, workload: Workload, roots, span) -> tuple[float, dict]:
    """Plan, cluster and merge each scratch root under spans, over the
    workload's region count (2 where the workload does not shard).

    Returns the mean halo fraction (slab points beyond ``n``, over
    ``n``) and the merged result per root.
    """
    n_regions = workload.run_kwargs.get("regions", 2)
    n = points.shape[0]
    halo = []
    merged = {}
    for eps, minpts in roots:
        with span("shard.plan", eps=eps):
            plan = plan_shards(points, eps, n_regions)
        pieces = []
        for region in range(plan.n_regions):
            with span("shard.cluster", eps=eps, minpts=minpts, region=region):
                pieces.append(
                    cluster_shard(points, plan, region, minpts, kernel=workload.kernel)
                )
        slab = sum(shard_members(points, plan, r)[1].size for r in range(plan.n_regions))
        halo.append((slab - n) / n)
        with span("shard.merge", eps=eps, minpts=minpts):
            labels, core = merge_shards(points, plan, pieces)
        merged[(eps, minpts)] = repro.ClusteringResult(labels, core)
    return float(np.mean(halo)), merged


def modeled_speedup(session: repro.Session, workload: Workload, vset, span) -> float:
    """Simulated makespan at one thread over that at the workload's
    thread count, with the workload's kernel and lowering."""
    knobs = {"kernel": workload.kernel}
    if workload.lowering == "hybrid":
        knobs.update(
            regions=workload.run_kwargs["regions"],
            shard_threshold=DEFAULT_SHARD_THRESHOLD,
        )
    makespans = {}
    for threads in sorted({1, workload.n_threads}):
        with span("exec.simulated", n_threads=threads):
            batch = session.run(vset, executor="simulated", n_threads=threads, **knobs)
        makespans[threads] = batch.record.makespan
    return makespans[1] / makespans[workload.n_threads]


# -- span export ----------------------------------------------------------
def write_spans(path: Path, spans: list[dict], meta: dict) -> int:
    """Write spans in the JSONL shape ``repro.obs.export`` reads; return
    how many spans read back."""
    reg = MetricsRegistry()
    reg.meta = dict(meta)
    for s in spans:
        args = {"id": s["id"], "parent": s["parent"], "run": s["run"], **s["args"]}
        reg.spans.append(SpanRecord(s["name"], s["t0"], s["t1"] - s["t0"], "bench", args))
    path.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(path, reg)
    return len(read_jsonl(path).spans)


def versions() -> dict:
    return {"repro": repro.__version__, "numpy": np.__version__}
