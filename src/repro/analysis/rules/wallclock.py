"""Wallclock discipline: timing paths use the monotonic clock.

Every span, phase total, and work-unit response time feeds the
"phases sum to wall-clock" consistency suite and the process-lane
trace, whose worker spans join the parent's without rebasing.
``time.time()`` is subject to NTP steps and DST-less-but-still-steppable
realtime adjustments; one mixed-clock call site makes merged timelines
non-monotonic in a way no test can reproduce on demand.
``time.perf_counter()`` is monotonic *and* system-wide, so worker and
parent stamps share one clock across the process boundary.

Flagged everywhere in the library: ``time.time()`` calls and
``from time import time``.  Genuine wall-of-day needs (log
timestamps, say) take a pragma with a justification.
"""

from __future__ import annotations

import ast

from repro.analysis.visitor import RuleVisitor, dotted_source

__all__ = ["WallclockDisciplineRule"]


class WallclockDisciplineRule(RuleVisitor):
    rule_id = "wallclock-discipline"
    description = "time.time() banned in timing paths; use time.perf_counter()"

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module == "time":
            for alias in node.names:
                if alias.name == "time":
                    self.report(
                        node,
                        "'from time import time'; use time.perf_counter() "
                        "for timing paths",
                    )

    def visit_Call(self, node: ast.Call) -> None:
        if dotted_source(node.func) == "time.time":
            self.report(
                node,
                "time.time() in a timing path; use time.perf_counter() "
                "(monotonic, system-wide)",
            )
        self.generic_visit(node)
