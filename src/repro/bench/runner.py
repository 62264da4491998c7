"""One-shot evaluation runner: every table and figure into one report.

``run_full_report`` executes the complete figure suite at a given scale
and renders a single Markdown report with the same rows the paper's
tables and figures carry — the "regenerate the whole evaluation"
entry point (also exposed as ``python -m repro report``).

The heavy S3 figures (8 and 9) accept their own smaller scale, matching
the benchmark suite's ``REPRO_BENCH_SCALE_HEAVY`` convention.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import figures as figmod
from repro.core.reuse import CLUS_DEFAULT, CLUS_DENSITY, CLUS_PTS_SQUARED

__all__ = ["run_full_report"]


def _md_table(headers, rows) -> str:
    out = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    for r in rows:
        out.append("| " + " | ".join(str(c) for c in r) + " |")
    return "\n".join(out)


def run_full_report(
    scale: float | None = None,
    heavy_scale: float | None = None,
    *,
    output: str | None = None,
    quick: bool = False,
    trace_jsonl: str | None = None,
) -> str:
    """Regenerate Table I and Figures 3-9; return (and optionally write)
    the Markdown report.

    Figures 1-2 are illustrative ASCII renderings and are skipped here
    (see ``benchmarks/bench_fig123_illustrations.py``); Figure 3's
    schedules are included since they are exact, data-free artifacts.
    ``quick`` restricts Figures 7/8 to a slice of their datasets — a
    smoke mode for tests and demos.

    ``trace_jsonl`` runs the whole evaluation under the observability
    layer (:mod:`repro.obs`): every executor the figures construct
    resolves the installed tracer, the aggregated phase breakdown is
    appended to the report as an *Observability* section, and the raw
    trace is written to the given JSONL path.
    """
    if trace_jsonl is not None:
        from repro.obs import MetricsRegistry, Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            report = run_full_report(
                scale, heavy_scale, output=None, quick=quick
            )
        registry = MetricsRegistry()
        registry.add_spans(tracer.records())
        registry.meta = {"source": "run_full_report", "scale": scale,
                         "heavy_scale": heavy_scale, "quick": quick}
        registry.to_jsonl(trace_jsonl)
        totals = registry.phase_totals()
        grand = sum(totals.values()) or 1.0
        parts = [report, "## Observability — where the evaluation spent its time\n"]
        parts.append(_md_table(
            ["phase", "total (ms)", "share"],
            [
                [name, f"{dur * 1e3:,.1f}", f"{dur / grand:.1%}"]
                for name, dur in sorted(totals.items(), key=lambda kv: -kv[1])
            ],
        ))
        parts.append(f"\nraw trace: `{trace_jsonl}`\n")
        report = "\n".join(parts)
        if output:
            Path(output).write_text(report)
        return report

    try:
        return _run_full_report_body(scale, heavy_scale, output=output, quick=quick)
    finally:
        # The figure drivers share per-dataset Sessions (point store +
        # memoized index pairs); release them once the report is built.
        figmod.close_sessions()


def _run_full_report_body(
    scale: float | None,
    heavy_scale: float | None,
    *,
    output: str | None,
    quick: bool,
) -> str:
    heavy_scale = heavy_scale if heavy_scale is not None else scale
    from repro.bench.scenarios import S2_CONFIG, S3_CONFIGS

    fig7_datasets = S2_CONFIG.datasets[:2] + ("SW1",) if quick else S2_CONFIG.datasets
    fig8_configs = S3_CONFIGS[:1] if quick else S3_CONFIGS
    parts: list[str] = ["# VariantDBSCAN evaluation report\n"]

    rows = figmod.table1_rows(scale)
    parts.append("## Table I — datasets\n")
    parts.append(
        _md_table(
            ["dataset", "class", "|D| paper", "|D| loaded", "noise"],
            [
                [r["dataset"], r["class"], r["|D| (paper)"], r["|D| (loaded)"], r["noise"]]
                for r in rows
            ],
        )
    )

    info = figmod.fig3_dependency_example()
    parts.append("\n## Figure 3 — scheduling example\n")
    parts.append("S1 (depth-first): " + ", ".join(info["schedule_s1"]) + "\n")
    parts.append("S2 (SCHEDMINPTS): " + ", ".join(info["schedule_s2"]) + "\n")

    rows = figmod.fig4_indexing(scale)
    parts.append("\n## Figure 4 — indexing study (T = 16)\n")
    parts.append(
        _md_table(
            ["dataset", "clusters", "r=1 speedup", "best r", "best speedup"],
            [
                [r["dataset"], r["clusters"], f"{r['speedup_r1']:.2f}x", r["best_r"], f"{r['best_speedup']:.1f}x"]
                for r in rows
            ],
        )
    )

    parts.append("\n## Figures 5/6 — per-variant reuse on SW1 (T = 1)\n")
    for policy in (CLUS_DEFAULT, CLUS_DENSITY, CLUS_PTS_SQUARED):
        rec = figmod.fig5_per_variant(policy, scale)
        parts.append(
            f"**{policy.name}**: total {rec.makespan:,.0f} units, "
            f"avg reuse {rec.average_reuse_fraction:.1%}, "
            f"{rec.n_from_scratch} from scratch\n"
        )

    rows = figmod.fig7_summary(scale, datasets=fig7_datasets)
    parts.append("\n## Figure 7 — reuse summary (T = 1)\n")
    parts.append(
        _md_table(
            ["dataset", "scheme", "speedup", "avg reuse", "quality"],
            [
                [
                    r["dataset"],
                    r["scheme"],
                    f"{r['speedup']:.2f}x",
                    f"{r['avg_reuse_fraction']:.3f}",
                    f"{r['avg_quality']:.4f}",
                ]
                for r in rows
            ],
        )
    )

    rows = figmod.fig8_combined(heavy_scale, configs=fig8_configs)
    parts.append("\n## Figure 8 — combined study (T = 16)\n")
    parts.append(
        _md_table(
            ["dataset", "V", "scheduler", "scheme", "speedup", "scratch"],
            [
                [
                    r["dataset"],
                    r["variants"],
                    r["scheduler"],
                    r["scheme"],
                    f"{r['speedup']:.2f}x",
                    r["n_from_scratch"],
                ]
                for r in rows
            ],
        )
    )

    out9 = figmod.fig9_makespan(heavy_scale)
    parts.append("\n## Figure 9 — makespans (SW1/V3/CLUSDENSITY, T = 16)\n")
    parts.append(
        _md_table(
            ["scheduler", "makespan", "lower bound", "slowdown", "scratch"],
            [
                [
                    name,
                    f"{rec.makespan:,.0f}",
                    f"{rec.lower_bound_makespan:,.0f}",
                    f"{rec.slowdown_vs_lower_bound:.1%}",
                    f"{rec.n_from_scratch}/{rec.n_variants}",
                ]
                for name, rec in out9.items()
            ],
        )
    )

    report = "\n".join(parts) + "\n"
    if output:
        Path(output).write_text(report)
    return report
