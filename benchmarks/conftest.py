"""Shared benchmark infrastructure.

Scales
------
Figure benches run the *paper's* scenarios on the Table I datasets at a
reduced size (see DESIGN.md's density-preserving scaling).  Two knobs:

* ``REPRO_BENCH_SCALE`` — size fraction for the cheap benches
  (default 0.01: SW1 ~ 18.6k points).
* ``REPRO_BENCH_SCALE_HEAVY`` — size fraction for the S3 benches,
  which run 57-variant batches and their |V| = 57 r = 1 references on
  four datasets (default 0.002 keeps the whole suite in minutes; raise
  it for a closer-to-paper run).

Every figure bench writes its rows to ``benchmarks/out/<name>.txt`` so
results persist beyond pytest's captured stdout, and prints them too
(visible with ``pytest -s``).

Tracing
-------
Set ``REPRO_TRACE_DIR=<dir>`` to run the whole bench session under the
observability layer (:mod:`repro.obs`): every executor the benches
construct resolves the session tracer, and at teardown the aggregated
per-phase breakdown is printed and the raw trace is written to
``<dir>/bench_trace.jsonl`` (plus a Chrome-trace twin for
``chrome://tracing`` / Perfetto).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

OUT_DIR = Path(__file__).parent / "out"


def bench_scale(heavy: bool = False) -> float:
    var = "REPRO_BENCH_SCALE_HEAVY" if heavy else "REPRO_BENCH_SCALE"
    default = 0.002 if heavy else 0.01
    return float(os.environ.get(var, default))


# One engine Session per (dataset, scale) for the whole bench run: the
# point store and memoized T_high/T_low are built once and shared by
# every bench that touches the dataset.  Construction happens under the
# session tracer (when REPRO_TRACE_DIR is set), so traces include the
# engine's ``index_build`` and ``shm_attach`` phases alongside the
# kernel phases.
_SESSIONS: dict = {}


def bench_session(dataset: str, scale: float = None, **session_kwargs):
    """The shared :class:`repro.Session` for ``dataset`` at ``scale``."""
    from repro.data.registry import load_dataset
    from repro.engine import Session

    scale = bench_scale() if scale is None else scale
    key = (dataset, scale)
    session = _SESSIONS.get(key)
    if session is None or session.closed:
        ds = load_dataset(dataset, scale)
        session = Session(ds.points, dataset=dataset, kernel="bfs", **session_kwargs)
        _SESSIONS[key] = session
    return session


@pytest.fixture(scope="session", autouse=True)
def _close_bench_sessions():
    """Close every shared session (unlinking any shm segments) at exit."""
    yield
    for session in _SESSIONS.values():
        session.close()
    _SESSIONS.clear()


@pytest.fixture(scope="session", autouse=True)
def session_tracer():
    """Install a session-wide tracer when ``REPRO_TRACE_DIR`` is set."""
    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    if not trace_dir:
        yield None
        return
    from repro.obs import MetricsRegistry, Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        yield tracer
    registry = MetricsRegistry()
    registry.add_spans(tracer.records())
    registry.meta = {"source": "benchmarks", "trace_dir": trace_dir}
    out = Path(trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    registry.to_jsonl(out / "bench_trace.jsonl")
    registry.to_chrome_trace(out / "bench_trace.chrome.json")
    print(f"\n{registry.summary()}")
    print(f"[trace saved to {out / 'bench_trace.jsonl'}]")


@pytest.fixture(scope="session")
def report():
    """Write a named report to benchmarks/out/ and echo it."""

    def _write(name: str, text: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _write
