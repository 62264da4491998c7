"""Regenerate the committed chaos-soak traces in this directory.

Run from the repository root::

    PYTHONPATH=src python traces/generate.py

Each trace is a :func:`repro.obs.export.write_jsonl` file from one
supervised run with injected faults (plus one deterministic simulated
run without faults).  They are committed as fixtures for the trace-replay race
checker::

    PYTHONPATH=src python -m repro check --traces traces/*.jsonl

which derives happens-before from the ``task`` spans' hard-dep edges
and must accept every file here.  Timestamps differ run to run; the
*orderings* the checker validates are what the runtime guarantees.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import FaultPlan, FaultSpec, RetryPolicy, Session, Variant, VariantSet
from repro.obs.registry import MetricsRegistry
from repro.obs.span import Tracer, use_tracer
from repro.supervise import SupervisePolicy
from repro.util.rng import resolve_rng

HERE = Path(__file__).parent

#: Reuse chain of four variants (one scratch root, three reuse links).
VSET = VariantSet([Variant(0.5 + 0.1 * i, 5) for i in range(4)])

#: Fully autonomous supervision with a tight stall detector.
AUTONOMOUS = SupervisePolicy(
    risk_budget=1.0, stall_timeout_s=1.0, poll_interval_s=0.1
)


def _points() -> np.ndarray:
    g = resolve_rng(777)
    return np.ascontiguousarray(g.random((500, 2)) * 10)


def _write(name: str, batch, tracer: Tracer) -> None:
    registry = MetricsRegistry.from_batch(batch, tracer)
    path = HERE / name
    registry.to_jsonl(path)
    tasks = sum(
        1 for s in registry.spans if s.name == "task"
    )
    print(f"{path}: {tasks} task span(s)")


def sim_hybrid(points: np.ndarray) -> None:
    """Deterministic work-unit clock, hybrid lowering (shards + chains)."""
    tracer = Tracer()
    with use_tracer(tracer), Session(points) as s:
        batch = s.run(
            VSET, executor="simulated", n_threads=2, shard_threshold=0
        )
    _write("sim_hybrid.jsonl", batch, tracer)


def chaos_processes(points: np.ndarray) -> None:
    """Lanes substrate, a stalled group worker remediated mid-run."""
    plan = FaultPlan(
        [FaultSpec("stall", 1, attempt=0, phase="start", hang_s=30.0)]
    )
    tracer = Tracer()
    with use_tracer(tracer), Session(points) as s:
        batch = s.run(
            VSET, executor="processes", n_threads=2,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=2, deadline_s=60.0),
            supervise=AUTONOMOUS,
        )
    _write("chaos_processes.jsonl", batch, tracer)


def chaos_sharded(points: np.ndarray) -> None:
    """Shard pipeline with a task-targeted stall, healed by respawn."""
    v = VSET[1]
    plan = FaultPlan(
        [
            FaultSpec(
                "stall", -1, task=f"shard:{v.eps:g}/{v.minpts}#0",
                attempt=0, phase="start", hang_s=30.0,
            )
        ]
    )
    tracer = Tracer()
    with use_tracer(tracer), Session(points) as s:
        batch = s.run(
            VSET, executor="sharded", n_threads=2, regions=2,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=2, deadline_s=60.0),
            supervise=AUTONOMOUS,
        )
    _write("chaos_sharded.jsonl", batch, tracer)


def chaos_sim(points: np.ndarray) -> None:
    """Inline lanes, hybrid lowering, a corrupted root merge retried."""
    root = VSET[0]
    plan = FaultPlan(
        [
            FaultSpec(
                "corrupt", -1, task=f"merge:{root.eps:g}/{root.minpts}",
                attempt=0, phase="finish",
            )
        ]
    )
    tracer = Tracer()
    with use_tracer(tracer), Session(points) as s:
        batch = s.run(
            VSET, executor="simulated", n_threads=2, shard_threshold=0,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=2),
            supervise=AUTONOMOUS,
        )
    _write("chaos_sim.jsonl", batch, tracer)


SCENARIOS = {
    "sim_hybrid": sim_hybrid,
    "chaos_processes": chaos_processes,
    "chaos_sharded": chaos_sharded,
    "chaos_sim": chaos_sim,
}


def main(argv: list[str] | None = None) -> None:
    """Regenerate all scenarios, or just the ones named as arguments."""
    import sys

    names = list(argv if argv is not None else sys.argv[1:]) or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise SystemExit(
            f"unknown scenario(s) {unknown}; choose from {sorted(SCENARIOS)}"
        )
    points = _points()
    for name in names:
        SCENARIOS[name](points)


if __name__ == "__main__":
    main()
