"""In-memory spans recorded by the benchmark around its calls into ``repro``.

A span holds its name, start, end, parent span and the run id.  Spans
stay in memory until the run ends.  The layer of a span is its name up
to the first dot (``engine.store`` belongs to ``engine``).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class SpanLog:
    """Callable span recorder: ``with log("engine.store"): ...``.

    A disabled log records nothing and costs one call per span.
    """

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def __call__(self, name: str, **args):
        if not self.enabled:
            return nullcontext()
        return self._span(name, args)

    @contextmanager
    def _span(self, name: str, args: dict):
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "name": name,
            "args": args,
            "t0": time.perf_counter(),
            "t1": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            self._stack.pop()
            span["t1"] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by the layer's child spans.

        Spans are recorded from one thread, so a parent's children never
        overlap and the part they cover is the sum of their durations.
        """
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["t1"] - s["t0"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"].split(".", 1)[0]] += (s["t1"] - s["t0"]) - covered[s["id"]]
        return dict(out)
