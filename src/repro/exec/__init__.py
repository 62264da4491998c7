"""Variant-batch execution (the ``parallel for`` of Algorithm 3).

Every batch runs on the one task-graph runtime,
:class:`~repro.exec.graph.GraphRuntime`.  An executor *name* picks a
substrate (where tasks run) and a lowering mode (which task DAG):
:data:`EXECUTORS` is that table, and :meth:`repro.Session.run` reads it
directly.

Two substrates remain, and both run the runtime's one dispatch loop:
inline lanes (``sim``) and process lanes (``lanes``).

* ``serial`` — one inline lane on the work-unit clock, ``T`` forced to
  1; the paper's Section V-D reuse study.
* ``simulated`` — ``T`` inline lanes on the deterministic work-unit
  clock with a memory-contention model; regenerates the paper's
  thread-scaling figures independently of host hardware.  It lowers
  hybrid when the run sets ``shard_threshold``, else variant.
* ``processes`` — process lanes, at most ``n_threads``; a unit is one
  cell-graph pass under ``cellgraph`` (every ``minpts`` of one
  ``eps``, dispatched longest first) and a statically partitioned
  reuse chain under ``bfs``
  (:func:`~repro.exec.graph.partition_reuse_chains`).  The lanes are
  the session's: started by its first such run and kept until
  :meth:`~repro.Session.close`, so later batches start no process.
  Workers attach the session's shared-memory store and index pack (the
  R-tree pair under ``bfs``, the per-eps cell grids under
  ``cellgraph``) once and keep them, so they build no index; a batch
  packs again only for indexes the pack lacks.
* ``hybrid`` — both axes on one pool, variant-first: whole variants
  fill the lanes as under ``processes``, and, under ``kernel="bfs"``,
  scratch variants of ``DEFAULT_SHARD_THRESHOLD`` or more points fan
  out into shard/merge tasks (spatial regions with eps halos, merged
  back into byte-identical labels) only while the batch has fewer
  scratch roots than lanes; under ``cellgraph`` it lowers variant.  An
  explicit ``shard_threshold`` shards every scratch variant at that
  size while other variants' reuse chains run concurrently.
"""

from __future__ import annotations

from repro.exec.base import BatchResult
from repro.exec.calibration import CalibrationSample, collect_samples, fit_cost_model
from repro.exec.cost import DEFAULT_COST_MODEL, CostModel
from repro.exec.graph import GraphRuntime

__all__ = [
    "BatchResult",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "CalibrationSample",
    "collect_samples",
    "fit_cost_model",
    "GraphRuntime",
    "EXECUTORS",
]

#: Executor name -> (:class:`GraphRuntime` substrate, lowering mode).
#: ``simulated``'s mode is ``None``: it is derived from each run's
#: ``shard_threshold`` (see the module docstring).
EXECUTORS: dict[str, tuple[str, str | None]] = {
    "serial": ("sim", "variant"),
    "simulated": ("sim", None),
    "processes": ("lanes", "variant"),
    "hybrid": ("lanes", "hybrid"),
}
