"""repro — VariantDBSCAN: variant-based parallel density clustering.

A full reproduction of *"Exploiting Variant-Based Parallelism for Data
Mining of Space Weather Phenomena"* (Gowanlock, Blair & Pankratius,
IPPS 2016): DBSCAN and VariantDBSCAN over a tunable-resolution R-tree,
cluster-reuse heuristics, variant schedulers, parallel executors,
synthetic and space-weather (TEC) dataset generators, and the complete
benchmark harness regenerating every table and figure of the paper's
evaluation.

Quickstart
----------
>>> import numpy as np
>>> from repro import Session, Variant, VariantSet, dbscan
>>> rng = np.random.default_rng(0)
>>> pts = np.vstack([rng.normal(0, 0.5, (200, 2)), rng.normal(8, 0.5, (200, 2))])
>>> res = dbscan(pts, eps=0.6, minpts=4)
>>> res.n_clusters
2
>>> with Session(pts) as session:
...     batch = session.run(VariantSet.from_product([0.6, 0.8], [4, 8]))
>>> len(batch.results)
4
"""

from repro.baselines import extract_dbscan, optics
from repro.core import (
    CLUS_DEFAULT,
    CLUS_DENSITY,
    CLUS_PTS_SQUARED,
    ClusteringResult,
    CompletedRegistry,
    NeighborSearcher,
    SchedGreedy,
    SchedMinpts,
    Scheduler,
    Variant,
    VariantSet,
    cellgraph_dbscan,
    dbscan,
    dependency_tree,
    variant_dbscan,
)
from repro.core.incremental import IncrementalDBSCAN
from repro.engine import (
    IndexFactory,
    IndexPair,
    PointStore,
    ReuseSpec,
    RunContext,
    RunSpec,
    Session,
)
from repro.exec import BatchResult
from repro.index import BruteForceIndex, CellGraphIndex, RTree, UniformGridIndex
from repro.metrics import (
    BatchRunRecord,
    VariantRunRecord,
    WorkCounters,
    quality_score,
)
from repro.metrics.external import adjusted_rand_index
from repro.obs import MetricsRegistry, Tracer, use_tracer
from repro.resilience import (
    BatchReport,
    CheckpointStore,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    VariantStatus,
)

__version__ = "1.0.0"

__all__ = [
    "Variant",
    "VariantSet",
    "ClusteringResult",
    "dbscan",
    "cellgraph_dbscan",
    "variant_dbscan",
    "NeighborSearcher",
    "CLUS_DEFAULT",
    "CLUS_DENSITY",
    "CLUS_PTS_SQUARED",
    "Scheduler",
    "SchedGreedy",
    "SchedMinpts",
    "CompletedRegistry",
    "dependency_tree",
    "RTree",
    "BruteForceIndex",
    "UniformGridIndex",
    "CellGraphIndex",
    "WorkCounters",
    "quality_score",
    "VariantRunRecord",
    "BatchRunRecord",
    "BatchResult",
    "Session",
    "PointStore",
    "IndexFactory",
    "IndexPair",
    "RunContext",
    "RunSpec",
    "ReuseSpec",
    "IncrementalDBSCAN",
    "optics",
    "extract_dbscan",
    "Tracer",
    "use_tracer",
    "MetricsRegistry",
    "adjusted_rand_index",
    "BatchReport",
    "CheckpointStore",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "VariantStatus",
    "__version__",
]
