#!/usr/bin/env python3
"""Variant-batch benchmark: closed-loop ``Session.run`` over SW1 sweeps.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-minpts --seed 7 --seconds 20 --trace 0

One client submits a batch, waits for every label, checks the labels
against an exact oracle, then submits the next.  ``--trace 0`` measures
the end-to-end metrics with no spans; ``--trace 1`` makes the separate
traced run that gives the per-layer metrics, writes its spans as JSONL
under ``perfbench/out/`` and prints each layer's self time.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``perfbench/NOTES.md``
defines every metric and records why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import SpanLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "variants_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "worker_peak_rss_mb": "MB",
    "quality_mean": "score",
    "quality_min": "score",
    "ok_frac": "ratio",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "engine.store_s": "s",
    "engine.index_pair_s": "s",
    "engine.cellgraph_index_s": "s",
    "engine.shm_share_s": "s",
    "scheduling.plan_s": "s",
    "scheduling.scratch_roots": "count",
    "scheduling.reuse_share": "ratio",
    "taskgraph.lower_s": "s",
    "taskgraph.tasks": "count",
    "taskgraph.shard_tasks": "count",
    "neighbors.searches": "count",
    "neighbors.distance_computations": "count",
    "neighbors.found": "count",
    "neighbors.hit_ratio": "ratio",
    "index.nodes_visited": "count",
    "index.candidates_examined": "count",
    "kernel.scratch_s": "s",
    "kernel.reuse_s": "s",
    "reuse.points_reused": "count",
    "reuse.mbb_sweeps": "count",
    "reuse.outside_searched": "count",
    "reuse.fraction_mean": "ratio",
    "cellgraph.kernel_s": "s",
    "shard.plan_s": "s",
    "shard.cluster_s": "s",
    "shard.cluster_max_s": "s",
    "shard.merge_s": "s",
    "shard.halo_frac": "ratio",
    "exec.lane_busy_s": "s",
    "exec.lane_util": "ratio",
    "exec.overhead_s": "s",
    "exec.variant_wall_p50_s": "s",
    "exec.variant_wall_p90_s": "s",
    "exec.speedup_vs_serial": "x",
    "exec.modeled_speedup": "x",
    "proc.user_s": "s",
    "proc.sys_s": "s",
    "proc.minor_faults": "count",
    "proc.invol_ctx_switches": "count",
    "supervise.anomalies": "count",
    "supervise.remediations": "count",
    "trace.overhead_frac": "ratio",
}

#: Set-up repeats until both floors are met; ``setup_s`` is the median.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None, help="default: the SW1 registry seed")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_block(adapter) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": git_rev(),
        **adapter.versions(),
    }


def rusage() -> dict:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "self_cpu": s.ru_utime + s.ru_stime,
        "child_cpu": c.ru_utime + c.ru_stime,
        "user": s.ru_utime + c.ru_utime,
        "sys": s.ru_stime + c.ru_stime,
        "minflt": s.ru_minflt + c.ru_minflt,
        "nivcsw": s.ru_nivcsw + c.ru_nivcsw,
    }


def delta(a: dict, b: dict) -> dict:
    return {k: b[k] - a[k] for k in a}


class Tally:
    """Variants attempted and failed, and the quality of every result.

    Results are recorded as the batches finish and checked once the
    oracle exists, after every timed batch; each distinct output is
    kept once, so a deterministic program holds one batch of labels.
    Outputs that differ only in cluster numbering (a lane respawn or a
    degraded re-run can renumber) count as one, since the check
    compares canonical labels; that keeps the benchmark's own share of
    ``peak_rss_mb`` at one batch of labels.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.quality: list[float] = []
        self.worst: dict[tuple, float] = {}
        self._outputs: dict[tuple, list] = {}

    def record(self, adapter, results: dict, reused: dict, keys) -> None:
        """Count one batch of ``keys``; a variant missing from it fails."""
        for key in keys:
            self.attempted += 1
            result = results.get(key)
            if result is None:
                self.failed += 1
                print(f"FAIL {key}: missing from the batch", file=sys.stderr)
                continue
            exact = not reused.get(key, False)
            slot = (key, adapter.label_digest(result), exact)
            if slot not in self._outputs:
                slot = self._renumbered(adapter, slot, result)
            self._outputs.setdefault(slot, [result, 0])[1] += 1

    def _renumbered(self, adapter, slot: tuple, result) -> tuple:
        """The kept slot of ``slot``'s variant whose output equals
        ``result`` up to cluster numbering, else ``slot`` itself.

        Canonical digests are computed only here, when a variant's raw
        output changes, so a deterministic program never pays for them.
        """
        key, _, exact = slot
        digest = None
        for kept, entry in self._outputs.items():
            if kept[0] != key or kept[2] != exact:
                continue
            if digest is None:
                digest = adapter.canonical_digest(result)
            if len(entry) == 2:
                entry.append(adapter.canonical_digest(entry[0]))
            if entry[2] == digest:
                return kept
        return slot

    def lost(self, n: int) -> None:
        """A batch raised: every variant in it counts as failed."""
        traceback.print_exc(file=sys.stderr)
        self.attempted += n
        self.failed += n

    def check(self, adapter, oracle) -> None:
        """Score every recorded output; an exactness breach fails."""
        for (key, _, exact), (result, count, *_) in self._outputs.items():
            ok, quality = adapter.check_labels(oracle, key, result, exact)
            self.quality.extend([quality] * count)
            self.worst[key] = min(quality, self.worst.get(key, 1.0))
            if not ok:
                self.failed += count
                print(f"FAIL {key}: labels differ from the exact oracle", file=sys.stderr)
        self._outputs.clear()

    @property
    def distinct(self) -> int:
        """Distinct outputs held until the check."""
        return len(self._outputs)


def set_up(adapter, points, span, cellgraph_eps):
    """Repeated set-up; returns per-rep layer times and the last session."""
    reps = []
    session = None
    started = time.perf_counter()
    while len(reps) < SETUP_MIN_REPS or time.perf_counter() - started < SETUP_MIN_SECONDS:
        if session is not None:
            session.close()
            session = None  # freed before the next one is built
        gc.collect()
        with span("setup") as rep:
            t0 = time.perf_counter()
            session = adapter.open_session(points, span, cellgraph_eps)
            setup_s = time.perf_counter() - t0
        row = {"setup_s": setup_s}
        if span.enabled:
            with span("engine.shm_share") as shm:
                adapter.share_store(session)
            for s in [*(s for s in span.spans if s["parent"] == rep["id"]), shm]:
                row[s["name"] + "_s"] = s["t1"] - s["t0"]
        reps.append(row)
    return reps, session


def timed_batch(adapter, session, workload, vset, tally, keys):
    """One closed-loop batch: ``(wall seconds, rusage delta, outcome)``.

    The wall covers ``Session.run`` and summing its record; recording
    its labels follows, untimed.
    """
    gc.collect()
    r0 = rusage()
    t0 = time.perf_counter()
    try:
        outcome = adapter.run_batch(session, workload, vset)
    except Exception:  # a failed batch is counted, and the loop goes on
        tally.lost(len(keys))
        return None
    wall = time.perf_counter() - t0
    used = delta(r0, rusage())
    tally.record(adapter, outcome.results, outcome.reused, keys)
    outcome.results.clear()  # the tally keeps each distinct output once
    return wall, used, outcome


def peaks_mb(in_workers: bool) -> tuple[float, float]:
    """Parent peak RSS, and the largest peak of the processes that ran
    variants: the reaped lane workers, or the parent on the serial
    substrate."""
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not in_workers:
        return parent, parent
    return parent, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_plain(adapter, workload, seed, seconds) -> tuple[dict, Tally, dict]:
    span = SpanLog("", enabled=False)
    points = adapter.make_points(workload.scale, seed)
    vset = adapter.variant_set(workload)
    keys = list(workload.variants)
    cg_eps = workload.eps_values if workload.kernel == "cellgraph" else []
    reps, session = set_up(adapter, points, span, cg_eps)
    tally = Tally()
    setup_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls: list[float] = []
    anomalies = 0
    with session:
        timed_batch(adapter, session, workload, vset, tally, keys)  # warm-up
        started = time.perf_counter()
        while True:
            got = timed_batch(adapter, session, workload, vset, tally, keys)
            if got is not None:
                walls.append(got[0])
                anomalies += got[2].anomalies
            if time.perf_counter() - started >= seconds:
                break
    # Peaks are read before the late set-up and the oracle run, so they
    # are the batches'.
    parent, worker = peaks_mb(workload.in_workers)
    # A second set-up round after the loop, so that setup_s, like the
    # batch median, samples the host's speed at both ends of the run.
    late, spare = set_up(adapter, points, span, cg_eps)
    spare.close()
    distinct = tally.distinct
    tally.check(adapter, adapter.build_oracle(points, workload, span))
    metrics = {
        "variants_per_s": (
            len(keys) / statistics.median(walls) if walls else 0.0
        ),
        "setup_s": statistics.median(r["setup_s"] for r in reps + late),
        "peak_rss_mb": parent,
        "worker_peak_rss_mb": worker,
        "quality_mean": statistics.fmean(tally.quality) if tally.quality else 0.0,
        "quality_min": min(tally.quality, default=0.0),
        "ok_frac": (tally.attempted - tally.failed) / max(1, tally.attempted),
    }
    detail = {
        "n_points": int(points.shape[0]),
        "n_variants": len(keys),
        "timed_batches": len(walls),
        "batch_walls_s": walls,
        "setup_reps": len(reps) + len(late),
        "setup_s_before_after": [
            statistics.median(r["setup_s"] for r in rs) for rs in (reps, late)
        ],
        "peak_rss_after_setup_mb": setup_peak,
        "supervise_anomalies": anomalies,
        "distinct_outputs": distinct,
        "variants_below_0.998": sum(1 for q in tally.worst.values() if q < 0.998),
    }
    return metrics, tally, detail


def run_traced(adapter, workload, seed, seconds) -> tuple[dict, Tally, dict]:
    span = SpanLog(f"{workload.name}-{seed}-{os.getpid()}", enabled=True)
    points = adapter.make_points(workload.scale, seed)
    vset = adapter.variant_set(workload)
    keys = list(workload.variants)
    reps, session = set_up(adapter, points, span, workload.eps_values)
    tally = Tally()
    plain, traced = [], []
    with session:
        timed_batch(adapter, session, workload, vset, tally, keys)  # warm-up
        started = time.perf_counter()
        # Plain and traced batches alternate so drift hits both alike.
        while True:
            got = timed_batch(adapter, session, workload, vset, tally, keys)
            if got is not None:
                plain.append(got)
            with span("session.run"):
                got = timed_batch(adapter, session, workload, vset, tally, keys)
            if got is not None:
                traced.append(got)
            if time.perf_counter() - started >= seconds:
                break
        if not (plain and traced):
            raise RuntimeError("no plain or no traced batch completed; see the errors above")
        planned = adapter.plan_and_lower(workload, vset, int(points.shape[0]), span)
        roots = adapter.serial_kernels(session, workload, vset, planned, span)
        halo_frac, merged = adapter.shard_roots(points, workload, roots, span)
        tally.record(adapter, merged, {}, roots)
        modeled = adapter.modeled_speedup(session, workload, vset, span)
    oracle = adapter.build_oracle(points, workload, span)
    tally.check(adapter, oracle)

    batches = plain + traced
    serial_s = (span_total(span, "kernel.scratch"), span_total(span, "kernel.reuse"))
    walls = [b[0] for b in plain]
    wall = statistics.median(walls)
    lanes = workload.n_threads
    busy = [b[1]["child_cpu" if workload.in_workers else "self_cpu"] for b in plain]
    first = batches[0][2]
    c = first.counters
    variant_walls = [w for b in plain for w in b[2].variant_walls]
    counts_repeat = all(b[2].counters == c for b in batches)
    m = {
        "engine.store_s": statistics.median(r["engine.store_s"] for r in reps),
        "engine.index_pair_s": statistics.median(r["engine.index_pair_s"] for r in reps),
        "engine.cellgraph_index_s": statistics.median(
            r["engine.cellgraph_index_s"] for r in reps
        ),
        "engine.shm_share_s": statistics.median(r["engine.shm_share_s"] for r in reps),
        "scheduling.plan_s": span_total(span, "scheduling.plan"),
        "scheduling.scratch_roots": first.n_from_scratch,
        "scheduling.reuse_share": 1.0 - first.n_from_scratch / max(1, first.n_variants),
        "taskgraph.lower_s": span_total(span, "taskgraph.lower"),
        "taskgraph.tasks": planned["tasks"],
        "taskgraph.shard_tasks": planned["shard_tasks"],
        "neighbors.searches": c["neighbor_searches"],
        "neighbors.distance_computations": c["distance_computations"],
        "neighbors.found": c["neighbors_found"],
        "neighbors.hit_ratio": c["neighbors_found"] / max(1, c["distance_computations"]),
        "index.nodes_visited": c["index_nodes_visited"],
        "index.candidates_examined": c["candidates_examined"],
        "kernel.scratch_s": serial_s[0],
        "kernel.reuse_s": serial_s[1],
        "reuse.points_reused": c["points_reused"],
        "reuse.mbb_sweeps": c["cluster_mbb_sweeps"],
        "reuse.outside_searched": c["outside_points_searched"],
        "reuse.fraction_mean": first.reuse_fraction_mean,
        "cellgraph.kernel_s": oracle.kernel_s,
        "shard.plan_s": span_total(span, "shard.plan"),
        "shard.cluster_s": span_total(span, "shard.cluster"),
        "shard.cluster_max_s": max(span_durations(span, "shard.cluster")),
        "shard.merge_s": span_total(span, "shard.merge"),
        "shard.halo_frac": halo_frac,
        "exec.lane_busy_s": statistics.median(busy),
        "exec.lane_util": statistics.median(
            b / (lanes * w) for b, w in zip(busy, walls)
        ),
        "exec.overhead_s": statistics.median(w - b / lanes for b, w in zip(busy, walls)),
        "exec.variant_wall_p50_s": statistics.median(variant_walls),
        "exec.variant_wall_p90_s": statistics.quantiles(
            variant_walls, n=10, method="inclusive"
        )[8],
        "exec.speedup_vs_serial": sum(serial_s) / wall,
        "exec.modeled_speedup": modeled,
        "proc.user_s": statistics.fmean(b[1]["user"] for b in batches),
        "proc.sys_s": statistics.fmean(b[1]["sys"] for b in batches),
        "proc.minor_faults": statistics.fmean(b[1]["minflt"] for b in batches),
        "proc.invol_ctx_switches": statistics.fmean(b[1]["nivcsw"] for b in batches),
        "supervise.anomalies": sum(b[2].anomalies for b in batches),
        "supervise.remediations": sum(b[2].remediations for b in batches),
        "trace.overhead_frac": statistics.median(b[0] for b in traced) / wall - 1.0,
    }
    path = OUT / f"{workload.name}-seed{seed}.spans.jsonl"
    meta = {"workload": workload.name, "seed": seed, "run": span.run_id}
    read_back = adapter.write_spans(path, span.spans, meta)
    if read_back != len(span.spans):
        tally.failed += 1
        print(f"FAIL spans: wrote {len(span.spans)}, read back {read_back}", file=sys.stderr)
    print(f"spans: {len(span.spans)} written to {path.relative_to(ROOT)}")
    print("self time by layer:")
    for layer, s in sorted(span.self_times().items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {s:10.4f} s")
    print(f"  {'trace.overhead_frac':<12} {m['trace.overhead_frac']:+.4f}")
    detail = {
        "n_points": int(points.shape[0]),
        "plain_batches": len(plain),
        "traced_batches": len(traced),
        "counts_repeat": counts_repeat,
        "scratch_roots_serial": len(roots),
    }
    return m, tally, detail


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker the runtime started, and
    wait for it, so the benchmark leaves no process behind."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def span_durations(span, name: str) -> list[float]:
    return [s["t1"] - s["t0"] for s in span.spans if s["name"] == name]


def span_total(span, name: str) -> float:
    return sum(span_durations(span, name))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import adapter

    workload = adapter.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(adapter.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = adapter.registry_seed() if args.seed is None else args.seed
    if args.trace:
        metrics, tally, detail = run_traced(adapter, workload, seed, args.seconds)
        units = PER_LAYER
    else:
        metrics, tally, detail = run_plain(adapter, workload, seed, args.seconds)
        units = END_TO_END
    stop_resource_tracker()
    env = env_block(adapter)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": seed, "trace": args.trace,
              "env": env, "detail": detail, **result}
    (OUT / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print("env: " + json.dumps(env))
    print("detail: " + json.dumps(detail))
    for k, v in result["metrics"].items():
        print(f"{k:<32} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
