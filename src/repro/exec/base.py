"""The result of executing a whole :class:`VariantSet` over one database.

:meth:`repro.Session.run` produces a :class:`BatchResult` bundling
every variant's :class:`~repro.core.result.ClusteringResult` with the
batch-level :class:`~repro.metrics.records.BatchRunRecord` that the
figures are drawn from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.result import ClusteringResult
from repro.core.variants import Variant
from repro.metrics.records import BatchRunRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.report import BatchReport

__all__ = ["BatchResult"]


@dataclass
class BatchResult:
    """Everything produced by executing a variant set.

    Attributes
    ----------
    results:
        Completed clustering per variant.  Under a resilient run this
        may be a strict subset of the variant set — permanently failed
        variants are absent here and accounted in :attr:`report`.
    record:
        Batch-level run record (per-variant rows, makespan, config).
    report:
        Per-variant outcome statuses (ok / retried / replanned /
        resumed / failed) when the run executed with any resilience
        configuration (retry policy, fault plan, or checkpoint);
        ``None`` for plain runs.
    """

    results: dict[Variant, ClusteringResult]
    record: BatchRunRecord
    report: BatchReport | None = None

    def __getitem__(self, variant: Variant) -> ClusteringResult:
        return self.results[variant]

    def __len__(self) -> int:
        return len(self.results)
