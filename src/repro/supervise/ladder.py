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

__all__ = ["CircuitBreaker", "DEFAULT_LADDER", "DegradationLadder", "LadderStep"]


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


class DegradationLadder:
    """Ordered per-axis rungs with next-step lookup.

    Steps on one axis must chain (each step's source is the previous
    step's target) so "the next rung down" is always unambiguous.
    """

    def __init__(self, steps: tuple[LadderStep, ...] = DEFAULT_LADDER) -> None:
        self._next: dict[tuple[str, str], LadderStep] = {}
        chains: dict[str, list[LadderStep]] = {}
        for step in steps:
            key = (step.axis, step.source)
            if key in self._next:
                raise ValueError(
                    f"axis {step.axis!r} declares two steps from "
                    f"{step.source!r}; the ladder must be a chain"
                )
            self._next[key] = step
            chains.setdefault(step.axis, []).append(step)
        self._rungs: dict[str, tuple[str, ...]] = {}
        for axis, axis_steps in chains.items():
            sources = {s.source for s in axis_steps}
            targets = {s.target for s in axis_steps}
            heads = sources - targets
            if len(heads) != 1:
                raise ValueError(
                    f"axis {axis!r} does not form a single chain "
                    f"(heads: {sorted(heads)})"
                )
            rungs = [heads.pop()]
            while (axis, rungs[-1]) in self._next:
                rungs.append(self._next[(axis, rungs[-1])].target)
            if len(rungs) != len(axis_steps) + 1:
                raise ValueError(f"axis {axis!r} steps do not chain")
            self._rungs[axis] = tuple(rungs)

    @property
    def axes(self) -> tuple[str, ...]:
        return tuple(sorted(self._rungs))

    def rungs(self, axis: str) -> tuple[str, ...]:
        """All rungs on ``axis``, most parallel first."""
        return self._rungs[axis]

    def next_step(self, axis: str, current: str) -> LadderStep | None:
        """The step down from ``current``, or ``None`` at the floor."""
        return self._next.get((axis, current))

    def floor(self, axis: str) -> str:
        """The terminal (least parallel) rung on ``axis``."""
        return self._rungs[axis][-1]


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
