"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Materialize a Table I dataset to a ``.npz`` file.
``cluster``
    Run one DBSCAN variant over a dataset (registry name or ``.npz``)
    and optionally save labels / a per-cluster CSV summary.
``sweep``
    Run a whole variant grid with a chosen executor and kernel (and,
    under ``--kernel bfs``, scheduler and reuse policy); prints the
    per-variant reuse/time table.  ``sweep`` and ``trace`` take the
    same run flags.
``figure``
    Regenerate one of the paper's tables/figures (table1, fig1 ... fig9).
``optics``
    Run the OPTICS baseline and print the reachability profile plus
    DBSCAN-equivalent extractions at chosen radii.
``calibrate``
    Fit the work-unit cost model to this machine's wall-clock times.
``trace``
    Run a variant sweep under the observability layer and export the
    phase-level trace (JSONL and/or Chrome trace format).
``report``
    Regenerate the whole evaluation into one Markdown report.
``doctor``
    Audit the shared-memory filesystem for leaked ``repro_*`` segments
    and (with ``--unlink``) remove orphans left by killed processes.
``check``
    Run the project-native static analysis suite (layering, RNG
    discipline, shm lifecycle, wallclock discipline, executor
    contract, hot-path purity) over the installed package or given
    paths.

Every command accepts ``--scale`` to control dataset size (see
DESIGN.md's density-preserving scaling).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.bench import figures as figmod
from repro.bench.reporting import format_table, fraction_bar
from repro.core.dbscan import dbscan
from repro.core.reuse import POLICIES
from repro.core.scheduling import SCHEDULERS
from repro.core.variants import VariantSet
from repro.data import io as data_io
from repro.data.registry import DATASETS, load_dataset
from repro.engine.context import KERNELS
from repro.engine.factory import INDEX_KINDS
from repro.exec import EXECUTORS
from repro.index.rtree import RTree

__all__ = ["main", "build_parser"]


def _load_points(source: str, scale: float | None):
    """Resolve a dataset argument: registry name or .npz path."""
    if source in DATASETS:
        ds = load_dataset(source, scale)
        return ds.points, source
    points, _truth, meta = data_io.load_dataset_file(source)
    return points, meta.get("name", Path(source).stem)


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def cmd_generate(args: argparse.Namespace) -> int:
    ds = load_dataset(args.dataset, args.scale)
    out = args.output or f"{args.dataset}.npz"
    data_io.save_dataset(
        out,
        ds.points,
        truth=ds.truth,
        metadata={"name": args.dataset, "scale": ds.scale, "n": ds.n_points},
    )
    print(f"wrote {ds.n_points} points to {out}")
    return 0


def _build_cluster_index(points, kind: str, args: argparse.Namespace):
    """Build the ``cluster`` command's index for the chosen kind."""
    if kind == "rtree":
        return RTree(points, r=args.r)
    if kind == "cellgraph":
        from repro.index.cellgraph import CellGraphIndex

        return CellGraphIndex(points, args.eps)
    if kind == "grid":
        from repro.index.grid import UniformGridIndex

        return UniformGridIndex(points, cell_width=args.eps)
    if kind == "kdtree":
        from repro.index.kdtree import KDTree

        return KDTree(points)
    from repro.index.brute import BruteForceIndex

    return BruteForceIndex(points)


def cmd_cluster(args: argparse.Namespace) -> int:
    points, name = _load_points(args.dataset, args.scale)
    index = _build_cluster_index(points, args.index, args)
    result = dbscan(points, args.eps, args.minpts, index=index)
    print(
        f"{name}: {result.n_points} points -> {result.n_clusters} clusters, "
        f"{result.n_noise} noise ({result.elapsed:.2f}s, index={args.index})"
    )
    if args.save:
        data_io.save_result(args.save, result)
        print(f"labels saved to {args.save}")
    if args.summary:
        data_io.write_cluster_summary_csv(args.summary, result, points)
        print(f"cluster summary saved to {args.summary}")
    return 0


def _spec_from_args(args: argparse.Namespace, dataset: str) -> dict:
    """The :class:`~repro.engine.context.RunSpec` fields the run flags set.

    The paper's reuse flags (``--scheduler``, ``--policy``, ``--r``) are
    passed only when given, and only with ``--kernel bfs``.
    """
    spec = {
        "dataset": dataset,
        "executor": args.executor,
        "n_threads": args.threads,
        "kernel": args.kernel,
        "regions": args.regions,
        "part_size": args.part_size,
        "shard_threshold": args.shard_threshold,
        "resume": args.resume,
    }
    reuse = {
        flag: value
        for flag, value in (
            ("scheduler", args.scheduler), ("policy", args.policy), ("low_res_r", args.r)
        )
        if value is not None
    }
    if reuse and args.kernel != "bfs":
        raise SystemExit(
            "repro: --scheduler, --policy and --r apply to --kernel bfs only"
        )
    spec.update(reuse)
    if args.retries or args.deadline is not None:
        from repro.resilience import RetryPolicy

        spec["retry_policy"] = RetryPolicy(
            max_retries=args.retries, deadline_s=args.deadline
        )
    if args.supervise:
        from repro.supervise import SupervisePolicy

        spec["supervise"] = SupervisePolicy(risk_budget=args.risk_budget)
    return spec


def cmd_sweep(args: argparse.Namespace) -> int:
    points, name = _load_points(args.dataset, args.scale)
    variants = VariantSet.from_product(_floats(args.eps), _ints(args.minpts))
    from repro.engine import Session

    with Session(points, **_spec_from_args(args, name)) as session:
        batch = session.run(variants)
    rec = batch.record
    status = {}
    if batch.report is not None:
        status = {o.variant: o.status.value for o in batch.report.outcomes.values()}
    paper = f", {rec.scheduler}, {rec.reuse_policy}" if args.kernel == "bfs" else ""
    rows = [
        [
            str(r.variant),
            r.n_clusters,
            r.n_noise,
            r.reuse_fraction,
            fraction_bar(r.reuse_fraction, 16),
            str(r.reused_from) if r.reused_from else "scratch",
            r.response_time,
        ]
        + ([status.get(r.variant, "?")] if status else [])
        for r in rec.records
    ]
    headers = ["variant", "clusters", "noise", "reuse", "", "source", "response"]
    if status:
        headers.append("status")
    print(
        format_table(
            headers,
            rows,
            title=(
                f"{name}: |V|={len(variants)}, executor={args.executor}, "
                f"T={args.threads}{paper}"
            ),
        )
    )
    print(
        f"\nmakespan {rec.makespan:,.1f} | avg reuse "
        f"{rec.average_reuse_fraction:.1%} | {rec.n_from_scratch} from scratch"
    )
    if batch.report is not None:
        print(batch.report.summary())
        for variant in batch.report.failed:
            print(f"  FAILED {variant}: {batch.report.outcomes[variant].error}")
        if batch.report.remediations:
            print("remediations:")
            for row in batch.report.remediation_rows():
                action = row["action"] or {}
                print(
                    "  [{rid}] {kind} {subject}: {act} "
                    "(risk {risk:.2f}) -> {decision}/{verdict}".format(
                        rid=row["rid"],
                        kind=row["anomaly"]["kind"],
                        subject=row["anomaly"]["subject"],
                        act=action.get("kind", "-"),
                        risk=action.get("risk", 0.0),
                        decision=row["decision"],
                        verdict=row["verdict"] or "unchecked",
                    )
                )
        if not batch.report.complete:
            return 1
    return 0


def _doctor_anomalies(segments) -> list:
    """Classify orphaned segments through the supervisor's detector.

    Reuses the same signal → anomaly path the in-run supervisor walks,
    so ``repro doctor`` and the remediation loop can never disagree on
    what counts as a leak.
    """
    from repro.supervise import Detector, HealthMonitor

    return Detector().classify_all(HealthMonitor.orphan_signals(segments))


def cmd_doctor(args: argparse.Namespace) -> int:
    from repro.resilience.audit import scan_segments, unlink_segment

    if getattr(args, "watch", False):
        return _doctor_watch(args)
    segments = scan_segments()
    removed = []
    if args.unlink:
        for seg in segments:
            if seg.orphaned and unlink_segment(seg.name):
                removed.append(seg.name)
        segments = scan_segments()
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "schema": 2,
                    "segments": [s.as_dict() for s in segments],
                    "orphaned": sum(1 for s in segments if s.orphaned),
                    "removed": removed,
                    "anomalies": [
                        a.as_dict() for a in _doctor_anomalies(segments)
                    ],
                }
            )
        )
        return 0
    if not segments and not removed:
        print("no repro_* shared-memory segments found")
        return 0
    for seg in segments:
        state = "ORPHANED" if seg.orphaned else f"live (pid {seg.pid})"
        print(f"  {seg.name}  {seg.size:>12,} bytes  {state}")
    orphans = sum(1 for s in segments if s.orphaned)
    if removed:
        print(f"removed {len(removed)} orphaned segment(s)")
    if orphans:
        print(
            f"{orphans} orphaned segment(s) remain; "
            "run `repro doctor --unlink` to remove them"
        )
    return 0


def _doctor_watch(args: argparse.Namespace) -> int:
    """Poll-mode doctor: re-scan on an interval, report anomalies.

    ``--max-polls`` bounds the loop (0 = until interrupted) so tests
    and CI gates can run a fixed number of scans.  Exit status is 1 if
    the *final* scan still sees orphaned segments.
    """
    import time as _time

    from repro.resilience.audit import scan_segments, unlink_segment

    polls = 0
    orphans = 0
    while True:
        segments = scan_segments()
        anomalies = _doctor_anomalies(segments)
        orphans = len(anomalies)
        stamp = _time.strftime("%H:%M:%S")
        if anomalies:
            for a in anomalies:
                print(f"[{stamp}] {a.kind} {a.subject}: {a.detail}")
            if args.unlink:
                for a in anomalies:
                    if unlink_segment(a.subject):
                        print(f"[{stamp}] reclaimed {a.subject}")
                orphans = len(_doctor_anomalies(scan_segments()))
        else:
            print(f"[{stamp}] ok: {len(segments)} segment(s), 0 orphaned")
        polls += 1
        if args.max_polls and polls >= args.max_polls:
            break
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            break
    return 1 if orphans else 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro import analysis

    if args.list_rules:
        for rule in analysis.ALL_RULES:
            print(f"  {rule.rule_id:<22} {rule.description}")
        return 0
    if args.traces:
        return _check_traces(args)
    paths = args.paths or [analysis.default_check_root()]
    baseline = analysis.load_baseline(args.baseline) if args.baseline else set()
    # Findings (and baseline keys) are relative to the scanned root when
    # a single directory is checked, so baselines survive checkouts.
    relative_to = None
    if len(paths) == 1 and Path(paths[0]).is_dir():
        relative_to = Path(paths[0]).parent
    report = analysis.analyze_paths(paths, baseline=baseline, relative_to=relative_to)
    if args.write_baseline:
        analysis.write_baseline(args.write_baseline, report.findings)
        print(
            f"baseline with {len(report.findings)} finding(s) written to "
            f"{args.write_baseline}"
        )
        return 0
    if args.sarif:
        from repro.analysis.sarif import write_sarif

        write_sarif(args.sarif, report.findings)
        print(f"SARIF report written to {args.sarif}")
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "findings": [
                        {
                            "path": f.path,
                            "line": f.line,
                            "col": f.col,
                            "rule": f.rule,
                            "message": f.message,
                            "qualname": f.qualname,
                            "key": f.key(),
                        }
                        for f in report.findings
                    ],
                    "baselined": len(report.baselined),
                    "suppressed": report.suppressed,
                    "stale_baseline": report.stale_baseline,
                    "errors": report.errors,
                    "stats": report.stats,
                }
            )
        )
        return report.exit_code(strict=args.strict)
    for finding in report.findings:
        print(analysis.format_finding(finding))
    for error in report.errors:
        print(f"error: {error}")
    parts = [f"{len(report.findings)} finding(s)"]
    if report.baselined:
        parts.append(f"{len(report.baselined)} baselined")
    if report.suppressed:
        parts.append(f"{report.suppressed} pragma-suppressed")
    print(", ".join(parts))
    if args.strict and report.stale_baseline:
        print("stale baseline entries (fixed findings — prune them):")
        for key in report.stale_baseline:
            print(f"  {key}")
    return report.exit_code(strict=args.strict)


def _check_traces(args: argparse.Namespace) -> int:
    """``repro check --traces``: replay traces against happens-before."""
    from repro import analysis
    from repro.analysis.traces import check_traces

    try:
        findings, checked = check_traces(args.traces)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    if args.sarif:
        from repro.analysis.sarif import write_sarif

        write_sarif(args.sarif, findings)
        print(f"SARIF report written to {args.sarif}")
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "findings": [
                        {
                            "path": f.path,
                            "line": f.line,
                            "rule": f.rule,
                            "message": f.message,
                            "task": f.qualname,
                        }
                        for f in findings
                    ],
                    "spans_checked": checked,
                }
            )
        )
        return 1 if findings else 0
    for finding in findings:
        print(analysis.format_finding(finding))
    total = sum(checked.values())
    print(
        f"{len(findings)} happens-before violation(s) in "
        f"{total} task span(s) across {len(checked)} trace(s)"
    )
    return 1 if findings else 0


def cmd_optics(args: argparse.Namespace) -> int:
    from repro.baselines import extract_dbscan, optics
    from repro.viz import reachability_plot

    points, name = _load_points(args.dataset, args.scale)
    ordering = optics(points, args.delta, args.minpts)
    print(f"{name}: OPTICS pass at delta={args.delta}, minpts={args.minpts}")
    print(reachability_plot(ordering.reachability, width=76, height=10))
    for eps in _floats(args.eps) if args.eps else []:
        ext = extract_dbscan(ordering, eps)
        print(f"  eps={eps:g}: {ext.n_clusters} clusters, {ext.n_noise} noise")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.exec.calibration import collect_samples, fit_cost_model

    points, name = _load_points(args.dataset, args.scale)
    samples = collect_samples(points, args.eps, args.minpts)
    model = fit_cost_model(samples)
    print(f"cost model fitted on {name} ({len(samples)} runs):")
    print(f"  node_visit_cost      = 1.0   (normalization)")
    print(f"  candidate_cost       = {model.candidate_cost:.4f}")
    print(f"  search_overhead      = {model.search_overhead:.4f}")
    print(f"  reuse_copy_cost      = {model.reuse_copy_cost:.4f}")
    print(f"  bandwidth_saturation = {model.bandwidth_saturation:.2f} (not fitted)")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    scale = args.scale
    which = args.name
    if which == "fig1":
        print(figmod.fig1_tec_map(scale))
    elif which == "fig2":
        info = figmod.fig2_boundary_discovery()
        for k in ("cluster_size", "sweep_candidates", "outside_points", "points_reused"):
            print(f"{k}: {info[k]}")
    elif which == "fig3":
        info = figmod.fig3_dependency_example()
        print("tree edges:", info["edges"])
        print("schedule S1:", info["schedule_s1"])
        print("schedule S2:", info["schedule_s2"])
    elif which == "table1":
        rows = figmod.table1_rows(scale)
        print(
            format_table(
                list(rows[0].keys()), [list(r.values()) for r in rows], title="Table I"
            )
        )
    elif which == "fig4":
        rows = figmod.fig4_indexing(scale)
        print(
            format_table(
                ["dataset", "clusters", "r=1 T=16", "best r", "best speedup"],
                [
                    [r["dataset"], r["clusters"], r["speedup_r1"], r["best_r"], r["best_speedup"]]
                    for r in rows
                ],
                title="Figure 4",
            )
        )
    elif which == "fig5":
        from repro.core.reuse import CLUS_DENSITY

        rec = figmod.fig5_per_variant(CLUS_DENSITY, scale)
        print(
            format_table(
                ["variant", "response", "reuse"],
                [[str(r.variant), r.response_time, r.reuse_fraction] for r in rec.records],
                title="Figure 5 (CLUSDENSITY)",
            )
        )
    elif which == "fig6":
        rows = figmod.fig6_scatter(scale)
        print(
            format_table(
                ["scheme", "eps", "minpts", "reuse", "response"],
                [
                    [r["scheme"], r["eps"], r["minpts"], r["reuse_fraction"], r["response_time"]]
                    for r in rows
                ],
                title="Figure 6",
            )
        )
    elif which == "fig7":
        rows = figmod.fig7_summary(scale)
        print(
            format_table(
                ["dataset", "scheme", "speedup", "avg reuse", "quality"],
                [
                    [r["dataset"], r["scheme"], r["speedup"], r["avg_reuse_fraction"], r["avg_quality"]]
                    for r in rows
                ],
                title="Figure 7",
            )
        )
    elif which == "fig8":
        rows = figmod.fig8_combined(scale)
        print(
            format_table(
                ["dataset", "V", "scheduler", "scheme", "speedup"],
                [
                    [r["dataset"], r["variants"], r["scheduler"], r["scheme"], r["speedup"]]
                    for r in rows
                ],
                title="Figure 8",
            )
        )
    elif which == "fig9":
        out = figmod.fig9_makespan(scale)
        for name, rec in out.items():
            print(
                f"{name}: makespan {rec.makespan:,.0f}, lower bound "
                f"{rec.lower_bound_makespan:,.0f}, slowdown "
                f"{rec.slowdown_vs_lower_bound:.1%}, scratch {rec.n_from_scratch}"
            )
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown figure {which}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry, Tracer, use_tracer

    points, name = _load_points(args.dataset, args.scale)
    variants = VariantSet.from_product(_floats(args.eps), _ints(args.minpts))
    from repro.engine import Session

    tracer = Tracer()
    with use_tracer(tracer), Session(points, **_spec_from_args(args, name)) as session:
        batch = session.run(variants)
    registry = MetricsRegistry.from_batch(batch, tracer)
    print(registry.summary())
    coverage = registry.phase_coverage()
    if coverage:
        worst = min(coverage.values(), key=lambda v: -abs(v - 1.0))
        print(f"phase coverage: {len(coverage)} variants, worst {worst:.1%} of wall")
    if args.jsonl:
        registry.to_jsonl(args.jsonl)
        print(f"JSONL trace written to {args.jsonl}")
    if args.chrome:
        registry.to_chrome_trace(args.chrome)
        print(f"Chrome trace written to {args.chrome} (load in chrome://tracing)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.bench.runner import run_full_report

    text = run_full_report(
        args.scale,
        args.heavy_scale,
        output=args.output,
        quick=args.quick,
        trace_jsonl=args.trace_jsonl,
    )
    if args.output:
        print(f"report written to {args.output}")
    else:
        print(text)
    if args.trace_jsonl:
        print(f"trace written to {args.trace_jsonl}")
    return 0


def _add_run_args(p: argparse.ArgumentParser) -> None:
    """The run flags ``sweep`` and ``trace`` share (see :func:`_spec_from_args`)."""
    p.add_argument("--executor", choices=sorted(EXECUTORS), default="serial")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument(
        "--kernel",
        choices=list(KERNELS),
        default="cellgraph",
        help="clustering kernel: cellgraph (exact, one pass per eps; "
        "the default) or bfs (the paper's reuse path)",
    )
    p.add_argument("--scheduler", choices=sorted(SCHEDULERS), default=None,
                   help="variant scheduler (--kernel bfs only; "
                        "default SCHEDGREEDY)")
    p.add_argument("--policy", choices=sorted(POLICIES), default=None,
                   help="cluster-reuse policy (--kernel bfs only; "
                        "default CLUSDENSITY)")
    p.add_argument("--r", type=int, default=None,
                   help="points per T_low leaf MBB (--kernel bfs only; "
                        "default 70)")
    p.add_argument("--regions", type=int, default=None,
                   help="spatial region count for --executor sharded "
                        "(default: the worker count)")
    p.add_argument("--part_size", type=int, default=None, dest="part_size",
                   help="target points per region for --executor sharded "
                        "(region count becomes ceil(n / part_size); "
                        "mutually exclusive with --regions)")
    p.add_argument("--shard-threshold", type=int, default=None,
                   dest="shard_threshold", metavar="N",
                   help="point count at which --executor hybrid shards a "
                        "from-scratch variant across regions (0 shards "
                        "every scratch variant)")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--resume", default=None, metavar="DIR",
                   help="checkpoint directory: finished variants spill "
                        "there and a rerun over the same data skips them")
    p.add_argument("--retries", type=int, default=0,
                   help="per-variant retry budget (enables resilient mode)")
    p.add_argument("--supervise", action="store_true",
                   help="run under the self-healing supervisor "
                        "(heartbeats + risk-gated auto-remediation)")
    p.add_argument("--risk-budget", type=float, default=0.5,
                   dest="risk_budget", metavar="R",
                   help="auto-apply remediations with risk <= R; "
                        "recommend above (default 0.5)")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="per-variant deadline in seconds")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="VariantDBSCAN: variant-based parallel density clustering",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="materialize a Table I dataset to .npz")
    g.add_argument("dataset", choices=sorted(DATASETS))
    g.add_argument("--scale", type=float, default=None)
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("cluster", help="run one DBSCAN variant")
    c.add_argument("dataset", help="registry name or .npz file")
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--minpts", type=int, required=True)
    c.add_argument("--r", type=int, default=70, help="points per leaf MBB")
    c.add_argument(
        "--index",
        choices=sorted(INDEX_KINDS),
        default="rtree",
        help="spatial index kind (cellgraph selects the grid-cell kernel)",
    )
    c.add_argument("--scale", type=float, default=None)
    c.add_argument("--save", default=None, help="save labels to .npz")
    c.add_argument("--summary", default=None, help="write per-cluster CSV")
    c.set_defaults(func=cmd_cluster)

    s = sub.add_parser("sweep", help="run a variant grid V = A x B")
    s.add_argument("dataset", help="registry name or .npz file")
    s.add_argument("--eps", required=True, help="comma-separated eps values (A)")
    s.add_argument("--minpts", required=True, help="comma-separated minpts values (B)")
    _add_run_args(s)
    s.set_defaults(func=cmd_sweep)

    f = sub.add_parser("figure", help="regenerate a paper table/figure")
    f.add_argument(
        "name",
        choices=["table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
                 "fig7", "fig8", "fig9"],
    )
    f.add_argument("--scale", type=float, default=None)
    f.set_defaults(func=cmd_figure)

    o = sub.add_parser("optics", help="run the OPTICS baseline")
    o.add_argument("dataset", help="registry name or .npz file")
    o.add_argument("--delta", type=float, required=True, help="max radius")
    o.add_argument("--minpts", type=int, required=True)
    o.add_argument("--eps", default="", help="comma-separated extraction radii")
    o.add_argument("--scale", type=float, default=None)
    o.set_defaults(func=cmd_optics)

    k = sub.add_parser("calibrate", help="fit the cost model to this machine")
    k.add_argument("dataset", help="registry name or .npz file")
    k.add_argument("--eps", type=float, required=True)
    k.add_argument("--minpts", type=int, default=4)
    k.add_argument("--scale", type=float, default=None)
    k.set_defaults(func=cmd_calibrate)

    t = sub.add_parser("trace", help="run a sweep under the tracing layer")
    t.add_argument("dataset", help="registry name or .npz file")
    t.add_argument("--eps", required=True, help="comma-separated eps values (A)")
    t.add_argument("--minpts", required=True, help="comma-separated minpts values (B)")
    _add_run_args(t)
    t.add_argument("--jsonl", default=None, help="write the trace as JSONL")
    t.add_argument("--chrome", default=None,
                   help="write a chrome://tracing-loadable JSON file")
    t.set_defaults(func=cmd_trace)

    d = sub.add_parser(
        "doctor",
        help="audit shared-memory segments; remove orphans with --unlink",
    )
    d.add_argument("--unlink", action="store_true",
                   help="remove segments whose creating process is dead")
    d.add_argument("--json", action="store_true",
                   help="machine-readable output")
    d.add_argument("--watch", action="store_true",
                   help="poll mode: re-scan on an interval and report "
                        "anomalies via the supervisor's detector")
    d.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="seconds between --watch scans (default 2)")
    d.add_argument("--max-polls", type=int, default=0, dest="max_polls",
                   metavar="N",
                   help="stop --watch after N scans (0 = until interrupted)")
    d.set_defaults(func=cmd_doctor)

    a = sub.add_parser(
        "check",
        help="run the project-native static analysis suite",
    )
    a.add_argument("paths", nargs="*", default=None,
                   help="files/directories to analyze (default: the "
                        "installed repro package)")
    a.add_argument("--baseline", default=None, metavar="FILE",
                   help="baseline file of grandfathered findings")
    a.add_argument("--strict", action="store_true",
                   help="also fail on stale baseline entries, so the "
                        "baseline can only shrink")
    a.add_argument("--json", action="store_true",
                   help="machine-readable output")
    a.add_argument("--write-baseline", default=None, metavar="FILE",
                   dest="write_baseline",
                   help="write current findings as the new baseline")
    a.add_argument("--sarif", default=None, metavar="FILE",
                   help="also write the findings as a SARIF 2.1.0 file")
    a.add_argument("--traces", nargs="+", default=None, metavar="JSONL",
                   help="replay-check task spans in trace JSONL files "
                        "against the DAG's happens-before instead of "
                        "running the static rules")
    a.add_argument("--list-rules", action="store_true", dest="list_rules",
                   help="list the shipped rules and exit")
    a.set_defaults(func=cmd_check)

    r = sub.add_parser("report", help="regenerate the whole evaluation")
    r.add_argument("--scale", type=float, default=None)
    r.add_argument("--heavy-scale", type=float, default=None, dest="heavy_scale")
    r.add_argument("-o", "--output", default=None)
    r.add_argument("--quick", action="store_true", help="dataset slice smoke mode")
    r.add_argument("--trace-jsonl", default=None, dest="trace_jsonl",
                   help="run the evaluation under the tracing layer and "
                        "write the phase trace as JSONL")
    r.set_defaults(func=cmd_report)

    return p


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
