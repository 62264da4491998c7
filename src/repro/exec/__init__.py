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
  thread-scaling figures independently of host hardware.  Its lowering
  follows the run's shard knobs: ``shard_threshold`` set lowers hybrid,
  else ``regions`` / ``part_size`` set lowers shard, else variant.
* ``processes`` — one process lane per statically partitioned reuse
  chain (:func:`~repro.exec.graph.partition_reuse_chains`); workers
  attach the session's shared-memory store and index pack.
* ``sharded`` — process lanes over spatial regions with eps halos
  inside each variant, merged back into byte-identical labels.
* ``hybrid`` — both axes on one pool: scratch variants at or above
  ``shard_threshold`` points fan out into shard/merge tasks while
  other variants' reuse chains run concurrently.
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
#: ``simulated``'s mode is ``None``: it is derived from each run's shard
#: knobs (see the module docstring).
EXECUTORS: dict[str, tuple[str, str | None]] = {
    "serial": ("sim", "variant"),
    "simulated": ("sim", None),
    "processes": ("lanes", "variant"),
    "sharded": ("lanes", "shard"),
    "hybrid": ("lanes", "hybrid"),
}
