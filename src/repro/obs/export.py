"""Trace export formats: JSONL (lossless round-trip) and Chrome trace.

JSONL is the machine-readable interchange format: one JSON object per
line, typed by a ``type`` field, loss-free — :func:`read_jsonl`
reconstructs a :class:`~repro.obs.registry.MetricsRegistry` whose
spans, variant rows, totals, and metadata compare equal
to the original.  Line types:

``meta``
    Batch configuration labels (exactly one line, first).
``span``
    One :class:`~repro.obs.span.SpanRecord` (wall span, ``phase:*``
    total, or instant event): ``name``, ``t0``, ``dur``, ``thread``,
    ``args``.
``variant``
    One per-variant row (reuse bookkeeping, times, counters).

The Chrome trace export targets ``chrome://tracing`` / Perfetto:
complete (``"ph": "X"``) events in microseconds, one track per worker
thread, instant (``"ph": "i"``) events for one-off events.  It is a
*view*, not an interchange format — phase totals from an accumulating
clock are rendered as one block at the phase's first entry, so
overlapping blocks on a track mean interleaved phases, not
double-counted time.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.metrics.counters import WorkCounters
from repro.obs.registry import MetricsRegistry
from repro.obs.span import SpanRecord

__all__ = ["write_jsonl", "read_jsonl", "write_chrome_trace"]

PathLike = str | Path


def write_jsonl(path: PathLike, registry: MetricsRegistry) -> None:
    """Serialize ``registry`` to one JSON object per line."""
    lines: list[str] = [json.dumps({"type": "meta", **registry.meta})]
    for s in registry.spans:
        lines.append(
            json.dumps(
                {
                    "type": "span",
                    "name": s.name,
                    "t0": s.t0,
                    "dur": s.dur,
                    "thread": s.thread,
                    "args": s.args,
                }
            )
        )
    for row in registry.variant_rows:
        lines.append(json.dumps({"type": "variant", **row}))
    Path(path).write_text("\n".join(lines) + "\n")


def read_jsonl(path: PathLike) -> MetricsRegistry:
    """Load a :func:`write_jsonl` file back into a registry."""
    reg = MetricsRegistry()
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        kind = obj.pop("type")
        if kind == "meta":
            reg.meta = obj
        elif kind == "span":
            reg.spans.append(
                SpanRecord(obj["name"], obj["t0"], obj["dur"],
                           obj.get("thread", ""), obj.get("args", {}))
            )
        elif kind == "variant":
            reg.variant_rows.append(obj)
            reg.totals.merge(WorkCounters.from_dict(obj["counters"]))
        elif kind == "cache":
            # Neighborhood-cache stats from files written before the
            # cache was removed; nothing reads them any more.
            continue
        else:
            raise ValueError(f"unknown trace line type {kind!r} in {path}")
    return reg


def write_chrome_trace(path: PathLike, registry: MetricsRegistry) -> None:
    """Render ``registry`` as a Chrome trace-event JSON file."""
    events: list[dict] = []
    threads: dict[str, int] = {}

    def tid(thread: str) -> int:
        if thread not in threads:
            threads[thread] = len(threads)
        return threads[thread]

    # Rebase onto the earliest timestamp so the viewer opens at t = 0.
    t_base = min((s.t0 for s in registry.spans), default=0.0)
    for s in registry.spans:
        event = {
            "name": s.name,
            "pid": 0,
            "tid": tid(s.thread),
            "ts": (s.t0 - t_base) * 1e6,
            "args": s.args,
        }
        if s.dur > 0.0:
            event["ph"] = "X"
            event["dur"] = s.dur * 1e6
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    for thread, t in threads.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": t,
                "args": {"name": thread},
            }
        )
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": registry.meta,
    }
    Path(path).write_text(json.dumps(doc))
