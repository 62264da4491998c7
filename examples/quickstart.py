#!/usr/bin/env python3
"""Quickstart: cluster one dataset under many DBSCAN parameterisations.

Covers the core public API in ~60 lines:

1. make a 2-D point database;
2. cluster it once with plain DBSCAN;
3. define a variant grid ``V = A x B`` and run the whole batch with
   VariantDBSCAN's reuse + scheduling (one call);
4. inspect per-variant results and the reuse statistics.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    Session,
    Variant,
    VariantSet,
    dbscan,
    quality_score,
)
from repro.util.rng import resolve_rng

# ----------------------------------------------------------------- 1.
# A toy database: three blobs of different density plus uniform noise.
rng = resolve_rng(42)
points = np.vstack(
    [
        rng.normal([0, 0], 0.4, (400, 2)),
        rng.normal([10, 0], 0.8, (300, 2)),
        rng.normal([5, 9], 0.3, (200, 2)),
        rng.uniform(-3, 13, (100, 2)),
    ]
)
print(f"database: {len(points)} points")

# ----------------------------------------------------------------- 2.
# One plain DBSCAN run.
result = dbscan(points, eps=0.6, minpts=4)
print(
    f"dbscan(eps=0.6, minpts=4): {result.n_clusters} clusters, "
    f"{result.n_noise} noise points, "
    f"{result.counters.neighbor_searches} neighborhood searches"
)

# ----------------------------------------------------------------- 3.
# A variant grid, exactly the paper's V = A x B notation.
variants = VariantSet.from_product([0.4, 0.6, 0.8], [4, 8, 16])
print(f"\nvariant grid: |V| = {len(variants)}  ->  {list(variants)}")

# The Session owns the point store and memoized indexes.  kernel="bfs"
# selects the paper's reuse path (serial executor, SCHEDGREEDY,
# CLUSDENSITY); the default, "cellgraph", clusters every variant exactly
# from one pass per eps and reuses nothing.
session = Session(points, kernel="bfs")
batch = session.run(variants)

# ----------------------------------------------------------------- 4.
print("\nper-variant results (note reuse kicking in after the first):")
for rec in batch.record.records:
    src = f"reused {rec.reused_from}" if rec.reused_from else "from scratch"
    print(
        f"  {str(rec.variant):>10}: {rec.n_clusters:3d} clusters, "
        f"reuse {rec.reuse_fraction:5.1%}, {src}"
    )
print(
    f"\nbatch: {batch.record.n_from_scratch}/{len(variants)} from scratch, "
    f"average reuse {batch.record.average_reuse_fraction:.1%}"
)

# Reused results are interchangeable with scratch runs:
v = Variant(0.8, 4)
scratch = dbscan(points, v.eps, v.minpts)
print(f"quality of reused {v} vs scratch: {quality_score(scratch, batch[v]):.4f}")

# Every run knob is a RunSpec field: the session holds the defaults
# (session.spec) and a run overrides any of them.  The indexes built
# above are reused unless a reuse knob (here low_res_r, a ReuseSpec
# field) forces a different pair.
batch2 = session.run(variants, executor="serial", low_res_r=100)
assert len(batch2) == len(variants)
assert session.spec.reuse.low_res_r == 70  # overrides never stick
session.close()
print("done.")
