#!/usr/bin/env python3
"""Early-warning demo: streaming TEC epochs at clustering throughput.

The paper's conclusion argues variant-based parallelism "could enable
the short run times required for early warning systems for natural
hazards".  This demo simulates that deployment: TEC maps arrive in
epochs (a disturbance growing over time); each epoch must be analysed
under a whole grid of DBSCAN parameterisations within a time budget,
and an alert fires when a rapidly-growing coherent disturbance is
detected consistently across variants.

Run:  python examples/early_warning.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import Session, VariantSet
from repro.data.tec import TECMapModel, generate_tec_points
from repro.util.rng import resolve_rng

EPOCHS = 6
POINTS_PER_EPOCH = 6000
VARIANTS = VariantSet.from_product([0.25, 0.4], [4, 8, 16])
ALERT_GROWTH = 1.35  # largest-cluster growth factor that triggers an alert


def epoch_points(epoch: int) -> np.ndarray:
    """TEC measurements for one epoch; a disturbance front grows over time.

    The quiet-time map is fixed (same seed each epoch — the same region
    re-observed), and a wavefront-shaped enhancement sweeps through it,
    contributing more above-threshold measurements each epoch: the
    signature of a traveling ionospheric disturbance strengthening over
    the network (cf. the tsunami/earthquake signatures of the paper's
    introduction).
    """
    n_front = 120 * epoch * epoch
    base = generate_tec_points(
        POINTS_PER_EPOCH - n_front, TECMapModel(band_level=0.3), seed=900,
        area_fraction=0.01,
    )
    if n_front == 0:
        return base
    rng = resolve_rng(314 + epoch)
    center = np.median(base, axis=0)
    length = 2.0 + 1.2 * epoch  # the front elongates as it propagates
    along = rng.uniform(-length, length, n_front)
    across = rng.normal(0.0, 0.15, n_front)
    theta = 0.6
    front = center + np.column_stack(
        [along * np.cos(theta) - across * np.sin(theta),
         along * np.sin(theta) + across * np.cos(theta)]
    )
    return np.ascontiguousarray(np.vstack([base, front]))


def dominant_fraction(batch) -> float:
    """Median across variants of the largest cluster's share of points.

    Using the median over the whole variant grid makes the alarm robust
    to any single parameterisation's quirks — the reason the sweep is
    run at all.
    """
    shares = []
    for res in batch.results.values():
        sizes = res.cluster_sizes()
        shares.append(sizes.max() / res.n_points if sizes.size else 0.0)
    return float(np.median(shares))


def main() -> None:
    previous = None
    print(
        f"monitoring: {EPOCHS} epochs x {POINTS_PER_EPOCH} points x "
        f"|V| = {len(VARIANTS)} variants\n"
    )
    for epoch in range(EPOCHS):
        pts = epoch_points(epoch)
        t0 = time.perf_counter()
        with Session(pts, dataset=f"epoch{epoch}", kernel="bfs") as session:
            batch = session.run(VARIANTS)
        wall = time.perf_counter() - t0
        share = dominant_fraction(batch)
        growth = share / previous if previous else 1.0
        status = "ALERT" if growth >= ALERT_GROWTH else "ok"
        print(
            f"epoch {epoch}: analysed in {wall:5.2f}s "
            f"(reuse {batch.record.average_reuse_fraction:5.1%}), "
            f"dominant-feature share {share:6.1%}, growth x{growth:4.2f}  [{status}]"
        )
        if status == "ALERT":
            print(
                "        -> coherent disturbance growing across all "
                "parameterisations; dispatch warning."
            )
        previous = share


if __name__ == "__main__":
    main()
