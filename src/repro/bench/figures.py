"""Reproduction drivers: one function per table/figure of the paper.

Each function returns structured rows (lists of dicts) that the
``benchmarks/`` scripts print with :mod:`repro.bench.reporting`; the
test suite calls the same functions at tiny scales to check the
*shapes* the paper reports (who wins, in which direction) without
depending on absolute numbers.

Figure-to-function map:

========  ==========================================
Table I   :func:`table1_rows`
Fig. 4    :func:`fig4_indexing` (also prints Table II cluster counts)
Fig. 5    :func:`fig5_per_variant`
Fig. 6    :func:`fig6_scatter`
Fig. 7    :func:`fig7_summary`
Fig. 8    :func:`fig8_combined`
Fig. 9    :func:`fig9_makespan`
========  ==========================================
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.bench.reference import ReferenceRun, reference_run
from repro.bench.scenarios import (
    S1_CONFIGS,
    S1_R_SWEEP,
    S2_CONFIG,
    S3_CONFIGS,
    S1Config,
    S3Config,
    s2_variant_set,
)
from repro.core.dbscan import dbscan
from repro.core.reuse import CLUS_DEFAULT, CLUS_DENSITY, CLUS_PTS_SQUARED, ReusePolicy
from repro.core.scheduling import SchedGreedy, SchedMinpts, Scheduler
from repro.core.variants import VariantSet
from repro.data.registry import LoadedDataset, load_dataset
from repro.engine import IndexPair, Session
from repro.exec.cost import DEFAULT_COST_MODEL, CostModel
from repro.index.rtree import RTree
from repro.metrics.counters import WorkCounters
from repro.metrics.quality import quality_score
from repro.metrics.records import BatchRunRecord

__all__ = [
    "close_sessions",
    "table1_rows",
    "fig1_tec_map",
    "fig2_boundary_discovery",
    "fig3_dependency_example",
    "fig4_indexing",
    "fig5_per_variant",
    "fig6_scatter",
    "fig7_summary",
    "fig8_combined",
    "fig9_makespan",
]

# ----------------------------------------------------------------------
# shared caches (benchmarks hit the same dataset/baseline repeatedly)
# ----------------------------------------------------------------------
_ref_cache: dict[tuple, ReferenceRun] = {}

# One Session per (dataset, scale): every figure driver that runs
# executors shares the point store and the memoized T_high/T_low pair
# instead of rebuilding both trees per policy/scheduler cell.
_session_cache: dict[tuple, Session] = {}


def _dataset_session(ds: LoadedDataset) -> Session:
    key = (ds.spec.name, ds.scale)
    session = _session_cache.get(key)
    if session is None or session.closed:
        session = Session(ds.points, dataset=ds.spec.name, kernel="bfs")
        _session_cache[key] = session
    return session


def close_sessions() -> None:
    """Close every cached figure-driver session (frees index memory)."""
    for session in _session_cache.values():
        session.close()
    _session_cache.clear()


def _cached_reference(
    ds: LoadedDataset, variants: VariantSet, cost_model: CostModel
) -> ReferenceRun:
    key = (ds.spec.name, ds.scale, tuple(v.as_tuple() for v in variants), cost_model)
    if key not in _ref_cache:
        _ref_cache[key] = reference_run(ds.points, variants, cost_model=cost_model)
    return _ref_cache[key]


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def table1_rows(scale: float | None = None) -> list[dict]:
    """Dataset characteristics at the active scale (paper Table I)."""
    from repro.data.registry import DATASETS

    rows = []
    for name, spec in DATASETS.items():
        ds = load_dataset(name, scale)
        rows.append(
            {
                "dataset": name,
                "class": spec.kind,
                "|D| (paper)": spec.full_size,
                "|D| (loaded)": ds.n_points,
                "noise": f"{spec.noise:.0%}" if spec.noise is not None else "N/A",
                "eps_scale": ds.eps_scale,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figures 1-3 — the paper's illustrative figures
# ----------------------------------------------------------------------
def fig1_tec_map(scale: float | None = None, *, width: int = 76, height: int = 22) -> str:
    """Figure 1: a TEC map and its thresholded point set (ASCII).

    The paper's Figure 1 shows a global TEC map with red high-TEC
    features (dataset SW1).  This driver renders our simulator's field
    as a shaded heatmap and the sampled SW1 point database as a scatter
    over its observation window.
    """
    from repro.data.tec import TECMapModel
    from repro.util.rng import resolve_rng
    from repro import viz

    ds = load_dataset("SW1", scale)
    model = TECMapModel(grid_resolution=1.0)
    _, _, tec, _, _ = model.evaluate(resolve_rng(ds.spec.seed))
    field = viz.heatmap(tec, width=width, height=height)
    pts = viz.scatter(ds.points, width=width, height=height)
    return (
        "Figure 1 (upper): simulated global TEC field\n"
        + field
        + "\n\nFigure 1 (lower): thresholded SW1 measurement points "
        f"({ds.n_points} pts, observation window)\n"
        + pts
    )


def fig2_boundary_discovery(seed: int = 2) -> dict:
    """Figure 2: the boundary-discovery mechanics of Algorithm 3.

    The paper's Figure 2 illustrates lines 10-17: sweep the cluster's
    eps-augmented MBB with the high-resolution tree, eps-search only
    the *outside* points, and collect the inside boundary members that
    will grow the cluster.  This driver runs those stages on a small
    two-blob instance and returns the stage-by-stage counts, which the
    bench prints alongside an ASCII rendering.
    """
    import numpy as np

    from repro.core.dbscan import dbscan as _dbscan
    from repro.core.variant_dbscan import variant_dbscan
    from repro.core.variants import Variant
    from repro.index.mbb import augment_mbb, mbb_of_points
    from repro.util.rng import resolve_rng

    g = resolve_rng(seed)
    points = np.vstack(
        [g.normal(0, 0.5, (120, 2)), g.normal([4.0, 0.0], 0.5, (60, 2)),
         g.uniform(-2, 6, (40, 2))]
    )
    indexes = IndexPair.build(points, 16)
    prev = _dbscan(points, 0.45, 4, index=indexes.t_low)
    sizes = prev.cluster_sizes()
    biggest = int(np.argmax(sizes))
    members = prev.cluster_members()[biggest]
    eps_new = 0.8
    sweep = augment_mbb(mbb_of_points(points[members]), eps_new)
    cand = indexes.t_high.query_rect(sweep)
    outside = np.setdiff1d(cand, members)

    counters = WorkCounters()
    res = variant_dbscan(
        points, Variant(eps_new, 4), prev,
        t_high=indexes.t_high, t_low=indexes.t_low, counters=counters,
    )
    return {
        "points": points,
        "source_result": prev,
        "cluster_size": int(sizes[biggest]),
        "sweep_candidates": int(cand.size),
        "outside_points": int(outside.size),
        "outside_searched": counters.outside_points_searched,
        "points_reused": res.points_reused,
        "result": res,
    }


def fig3_dependency_example() -> dict:
    """Figure 3: the worked scheduling example.

    Rebuilds the paper's exact variant set (A = {0.2, 0.4, 0.6},
    B = {20, 24, 28, 32}), its minimal-difference dependency tree
    (Fig. 3a), the depth-first single-thread schedule S1 (Fig. 3b), and
    the SCHEDMINPTS schedule S2 (Fig. 3c).
    """
    from repro.core.scheduling import (
        SchedMinpts,
        dependency_tree as _dependency_tree,
        depth_first_schedule,
    )

    vset = VariantSet.from_product([0.2, 0.4, 0.6], [20, 24, 28, 32])
    tree = _dependency_tree(vset)
    edges = [(str(p), str(c)) for p, c in tree.edges()]
    s1 = [str(v) for v in depth_first_schedule(tree)]
    s2 = [str(p.variant) for p in SchedMinpts().plan(vset)]
    return {"variants": [str(v) for v in vset], "edges": edges, "schedule_s1": s1, "schedule_s2": s2}


# ----------------------------------------------------------------------
# Figure 4 / Table II — the indexing study (scenario S1)
# ----------------------------------------------------------------------
def fig4_indexing(
    scale: float | None = None,
    *,
    configs: Sequence[S1Config] = S1_CONFIGS,
    r_sweep: Sequence[int] = S1_R_SWEEP,
    n_threads: int = 16,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> list[dict]:
    """Relative speedup of concurrent identical variants vs. ``r``.

    For each Table II (dataset, eps) cell, ``n_threads`` identical
    variants run concurrently.  Because the variants are identical, the
    makespan equals one variant's duration under the concurrency-T
    contention factor, and the reference total is ``n_threads`` times
    the sequential ``r = 1`` duration — exactly the Figure 4 setup.

    Row keys: ``dataset``, ``eps``, ``minpts``, ``clusters`` (Table II),
    ``speedup_r1`` (the unindexed T=16 bar), ``best_r``,
    ``best_speedup``, and ``speedup_by_r`` (full sweep).
    """
    rows = []
    for cfg in configs:
        ds = load_dataset(cfg.dataset, scale)
        eps = cfg.scaled_eps(ds)

        ref_counters = WorkCounters()
        ref_index = RTree(ds.points, r=1)
        ref_result = dbscan(ds.points, eps, cfg.minpts, index=ref_index, counters=ref_counters)
        ref_total = cfg.n_copies * cost_model.duration(ref_counters, concurrency=1)

        speedup_by_r: dict[int, float] = {}
        for r in r_sweep:
            if r == 1:
                counters = ref_counters
            else:
                counters = WorkCounters()
                dbscan(ds.points, eps, cfg.minpts, index=RTree(ds.points, r=r), counters=counters)
            makespan = cost_model.duration(counters, concurrency=n_threads)
            speedup_by_r[r] = ref_total / makespan

        best_r = max(speedup_by_r, key=speedup_by_r.get)
        rows.append(
            {
                "dataset": cfg.dataset,
                "eps": eps,
                "minpts": cfg.minpts,
                "clusters": ref_result.n_clusters,
                "speedup_r1": speedup_by_r.get(1, float("nan")),
                "best_r": best_r,
                "best_speedup": speedup_by_r[best_r],
                "speedup_by_r": speedup_by_r,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 5 — per-variant response time and reuse (scenario S2, T = 1)
# ----------------------------------------------------------------------
def fig5_per_variant(
    policy: ReusePolicy,
    scale: float | None = None,
    *,
    dataset: str = "SW1",
    low_res_r: int = 70,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> BatchRunRecord:
    """One reuse scheme's per-variant record on the S2 grid (paper Fig. 5).

    ``T = 1``, ``r = 70``, SCHEDGREEDY ordering, exactly as the paper's
    Figure 5 caption specifies; the three panels (a)-(c) are this
    function called with the three policies.
    """
    ds = load_dataset(dataset, scale)
    variants = s2_variant_set(ds)
    batch = _dataset_session(ds).run(
        variants,
        executor="serial",
        scheduler=SchedGreedy(),
        policy=policy,
        low_res_r=low_res_r,
        cost_model=cost_model,
        dataset=dataset,
    )
    return batch.record


def fig6_scatter(
    scale: float | None = None,
    *,
    dataset: str = "SW1",
    policies: Sequence[ReusePolicy] = (CLUS_DEFAULT, CLUS_DENSITY, CLUS_PTS_SQUARED),
) -> list[dict]:
    """Response time vs. reuse fraction points, grouped by eps and scheme.

    The Figure 6 scatter is just Figure 5's three runs re-plotted; rows
    carry ``eps``, ``minpts``, ``scheme``, ``reuse_fraction``,
    ``response_time``.
    """
    rows = []
    for policy in policies:
        record = fig5_per_variant(policy, scale, dataset=dataset)
        for r in record.records:
            rows.append(
                {
                    "scheme": policy.name,
                    "eps": r.variant.eps,
                    "minpts": r.variant.minpts,
                    "reuse_fraction": r.reuse_fraction,
                    "response_time": r.response_time,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 7 — reuse summary across datasets (scenario S2, T = 1)
# ----------------------------------------------------------------------
def fig7_summary(
    scale: float | None = None,
    *,
    datasets: Sequence[str] = S2_CONFIG.datasets,
    policies: Sequence[ReusePolicy] = (CLUS_DEFAULT, CLUS_DENSITY, CLUS_PTS_SQUARED),
    low_res_r: int = 70,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> list[dict]:
    """Speedup (7a), average reuse (7b), and quality (7c) per dataset.

    One row per (dataset, policy): ``speedup`` is reference total over
    the T = 1 VariantDBSCAN total; ``avg_reuse_fraction`` and
    ``avg_quality`` (mean per-variant Januzaj score vs. the reference's
    plain-DBSCAN output) complete the three panels.
    """
    rows = []
    for name in datasets:
        ds = load_dataset(name, scale)
        variants = s2_variant_set(ds)
        ref = _cached_reference(ds, variants, cost_model)
        session = _dataset_session(ds)
        for policy in policies:
            batch = session.run(
                variants,
                executor="serial",
                scheduler=SchedGreedy(),
                policy=policy,
                low_res_r=low_res_r,
                cost_model=cost_model,
                dataset=name,
            )
            qualities = [
                quality_score(ref.results[v], batch.results[v]) for v in variants
            ]
            rows.append(
                {
                    "dataset": name,
                    "scheme": policy.name,
                    "speedup": ref.total_units / batch.record.makespan,
                    "avg_reuse_fraction": batch.record.average_reuse_fraction,
                    "avg_quality": float(np.mean(qualities)),
                    "ref_units": ref.total_units,
                    "variant_units": batch.record.makespan,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 8 — combined indexing + reuse + scheduling (scenario S3, T = 16)
# ----------------------------------------------------------------------
def fig8_combined(
    scale: float | None = None,
    *,
    configs: Sequence[S3Config] = S3_CONFIGS,
    schedulers: Sequence[Scheduler] = (SchedGreedy(), SchedMinpts()),
    policies: Sequence[ReusePolicy] = (CLUS_DENSITY, CLUS_PTS_SQUARED),
    n_threads: int = 16,
    low_res_r: int = 70,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> list[dict]:
    """Relative speedup per (dataset, variant set, scheduler, policy).

    Uses the simulated executor at ``T = 16``; one row per bar of the
    paper's Figure 8.
    """
    rows = []
    for cfg in configs:
        ds = load_dataset(cfg.dataset, scale)
        variants = cfg.variant_set(ds)
        ref = _cached_reference(ds, variants, cost_model)
        session = _dataset_session(ds)
        for sched in schedulers:
            for policy in policies:
                batch = session.run(
                    variants,
                    executor="simulated",
                    n_threads=n_threads,
                    scheduler=sched,
                    policy=policy,
                    low_res_r=low_res_r,
                    cost_model=cost_model,
                    dataset=cfg.dataset,
                )
                rows.append(
                    {
                        "dataset": cfg.dataset,
                        "variants": cfg.variant_set_name,
                        "scheduler": sched.name,
                        "scheme": policy.name,
                        "speedup": ref.total_units / batch.record.makespan,
                        "n_from_scratch": batch.record.n_from_scratch,
                        "avg_reuse_fraction": batch.record.average_reuse_fraction,
                        "makespan": batch.record.makespan,
                        "ref_units": ref.total_units,
                    }
                )
    return rows


# ----------------------------------------------------------------------
# Figure 9 — makespan timelines (SW1 / V3 / CLUSDENSITY)
# ----------------------------------------------------------------------
def fig9_makespan(
    scale: float | None = None,
    *,
    dataset: str = "SW1",
    variant_set_name: str = "V3",
    n_threads: int = 16,
    low_res_r: int = 70,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> dict[str, BatchRunRecord]:
    """Per-thread makespan records for SCHEDGREEDY vs SCHEDMINPTS.

    Returns ``{"SCHEDGREEDY": record, "SCHEDMINPTS": record}``; each
    record's :meth:`~repro.metrics.records.BatchRunRecord.
    thread_timelines` gives the bars of Figure 9 and
    ``slowdown_vs_lower_bound`` the quoted idle percentages.
    """
    from repro.bench.scenarios import s3_variant_set

    ds = load_dataset(dataset, scale)
    variants = s3_variant_set(ds, variant_set_name)
    session = _dataset_session(ds)
    out: dict[str, BatchRunRecord] = {}
    for sched in (SchedGreedy(), SchedMinpts()):
        batch = session.run(
            variants,
            executor="simulated",
            n_threads=n_threads,
            scheduler=sched,
            policy=CLUS_DENSITY,
            low_res_r=low_res_r,
            cost_model=cost_model,
            dataset=dataset,
        )
        out[sched.name] = batch.record
    return out
