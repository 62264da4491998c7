"""The paper's primary contribution: DBSCAN, VariantDBSCAN, reuse, scheduling.

Module map (paper section in parentheses):

* :mod:`repro.core.variants` — ``Variant`` parameter pairs, the
  reusability (inclusion) criteria, canonical ordering (II-A, IV-B/D).
* :mod:`repro.core.neighbors` — epsilon-neighborhood search, Alg. 2 (IV-A).
* :mod:`repro.core.dbscan` — plain DBSCAN, Alg. 1 (II-B).
* :mod:`repro.core.result` — ``ClusteringResult`` label container.
* :mod:`repro.core.reuse` — cluster-seed prioritisation heuristics
  CLUSDEFAULT / CLUSDENSITY / CLUSPTSSQUARED (IV-C).
* :mod:`repro.core.variant_dbscan` — VariantDBSCAN, Algs. 3 & 4 (IV-B).
* :mod:`repro.core.scheduling` — dependency tree, SCHEDGREEDY,
  SCHEDMINPTS (IV-D).
"""

from repro.core.cellgraph import cellgraph_dbscan
from repro.core.dbscan import dbscan
from repro.core.neighbors import NeighborSearcher, neighbor_search
from repro.core.result import ClusteringResult
from repro.core.reuse import (
    ReusePolicy,
    CLUS_DEFAULT,
    CLUS_DENSITY,
    CLUS_PTS_SQUARED,
    get_seed_list,
)
from repro.core.scheduling import (
    Scheduler,
    SchedGreedy,
    SchedMinpts,
    CompletedRegistry,
    dependency_tree,
)
from repro.core.variant_dbscan import variant_dbscan
from repro.core.variants import Variant, VariantSet

__all__ = [
    "Variant",
    "VariantSet",
    "ClusteringResult",
    "NeighborSearcher",
    "neighbor_search",
    "dbscan",
    "cellgraph_dbscan",
    "variant_dbscan",
    "ReusePolicy",
    "CLUS_DEFAULT",
    "CLUS_DENSITY",
    "CLUS_PTS_SQUARED",
    "get_seed_list",
    "Scheduler",
    "SchedGreedy",
    "SchedMinpts",
    "CompletedRegistry",
    "dependency_tree",
]
