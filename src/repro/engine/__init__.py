"""Session engine: shared point store, memoized indexes, run contexts.

Import order matters: ``store`` → ``context`` → ``factory`` →
``session``.  ``session`` lazily imports ``repro.exec`` inside methods,
which keeps this package importable from ``repro.exec.base`` (the
compatibility re-export site for :class:`IndexPair`) without a cycle.
"""

from repro.engine.store import (  # noqa: I001  (import order is load-bearing)
    SPAN_SHM_ATTACH,
    PointStore,
    PointStoreHandle,
    fingerprint_points,
)
from repro.engine.context import ReuseSpec, RunContext, RunSpec
from repro.engine.factory import (
    INDEX_KINDS,
    SPAN_INDEX_BUILD,
    IndexFactory,
    IndexPair,
)
from repro.engine.session import Session

__all__ = [
    "INDEX_KINDS",
    "IndexFactory",
    "IndexPair",
    "PointStore",
    "PointStoreHandle",
    "ReuseSpec",
    "RunContext",
    "RunSpec",
    "SPAN_INDEX_BUILD",
    "SPAN_SHM_ATTACH",
    "Session",
    "fingerprint_points",
]
