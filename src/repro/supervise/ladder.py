"""The graceful-degradation ladder and the remediation circuit breaker.

When remediation at the current lowering keeps failing, the supervisor
steps the *failing variant* — not the batch — down a declared ladder of
strictly-less-parallel configurations:

==========  =========================================  ================
axis        rungs (top → bottom)                       what a step costs
==========  =========================================  ================
lowering    shard → variant                            intra-variant
                                                       parallelism
kernel      cellgraph → bfs                            grid-kernel
                                                       throughput
substrate   lanes → serial                             process isolation
==========  =========================================  ================

Every rung produces byte-identical labels (the repo's equivalence
suites pin this), so degradation trades throughput for survivability
without touching correctness.  The bottom rung — serial, one unit at a
time on an inline lane in the parent process — has no pools, no shared
memory, and no worker boundary left to fail, which is what makes the
ladder terminate.

The :class:`CircuitBreaker` bounds how much remediation one subject may
consume: after ``threshold`` failures of the same ``(variant, region)``
pair the breaker trips and the supervisor quarantines the pair (records
the anomaly, stops proposing) instead of retrying forever.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CircuitBreaker", "DEFAULT_LADDER", "LadderStep", "next_step"]


@dataclass(frozen=True)
class LadderStep:
    """One rung-to-rung transition on a named axis."""

    axis: str
    source: str
    target: str

    @property
    def label(self) -> str:
        return f"{self.axis}:{self.source}→{self.target}"


#: The declared ladder (see module docstring for the rationale).
DEFAULT_LADDER = (
    LadderStep("lowering", "shard", "variant"),
    LadderStep("kernel", "cellgraph", "bfs"),
    LadderStep("substrate", "lanes", "serial"),
)


def next_step(axis: str, rung: str) -> LadderStep | None:
    """The step down from ``rung`` on ``axis``, or ``None`` at its floor."""
    return next((s for s in DEFAULT_LADDER if (s.axis, s.source) == (axis, rung)), None)


class CircuitBreaker:
    """Trips after ``threshold`` failures of the same subject key."""

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self._failures: dict = {}

    def record_failure(self, key) -> bool:
        """Count one failure; returns True when the breaker just tripped."""
        count = self._failures.get(key, 0) + 1
        self._failures[key] = count
        return count == self.threshold

    def tripped(self, key) -> bool:
        return self._failures.get(key, 0) >= self.threshold

    def failures(self, key) -> int:
        return self._failures.get(key, 0)
