"""The session engine: one owner for dataset, indexes, run spec, tracer.

The paper's premise (Section IV) is that one in-memory database ``D``
and its two R-trees are built **once** and shared by every variant.
:class:`Session` is that premise as an object:

* it owns the immutable :class:`~repro.engine.store.PointStore`
  (shared-memory capable, content-fingerprinted);
* it owns an :class:`~repro.engine.factory.IndexFactory`, so
  ``T_high``/``T_low`` are built once per session and reused across
  every run, benchmark iteration, and figure driver;
* it holds the default :class:`~repro.engine.context.RunSpec`; each run
  overrides it by keyword, pairs the result with the session's
  resources in a :class:`~repro.engine.context.RunContext`, and
  executes it on :class:`~repro.exec.graph.GraphRuntime` under the
  named executor's substrate and lowering — the single seam every
  layer (CLI, benchmarks, figure drivers) routes through.

Usage::

    from repro import Session, VariantSet

    with Session(points, dataset="SW1") as session:
        batch = session.run(VariantSet.from_product([0.5, 0.7], [4]))
        again = session.run(variants, executor="processes", n_threads=8)
        paper = session.run(variants, kernel="bfs", scheduler="SCHEDMINPTS")

The session also owns the process lanes its ``processes`` and
``hybrid`` runs dispatch onto: started by the first such run and kept,
with each worker's store attachment and the indexes it built, until
:meth:`Session.close`.  The context-manager form guarantees that the
lanes stop and any shared-memory segments the session materialized
are unlinked even when a worker raises; a finalizer does the same for
a session dropped without a close.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.core.variants import VariantSet
from repro.engine.context import RunContext, RunSpec
from repro.engine.factory import IndexFactory, IndexPair
from repro.engine.store import PointStore
from repro.obs.span import Tracer, resolve_tracer
from repro.util.errors import SessionClosedError

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path

    import numpy as np

    from repro.core.reuse import ReusePolicy
    from repro.exec.base import BatchResult
    from repro.exec.graph import _ProcessLanes
    from repro.index.base import SpatialIndex
    from repro.resilience.checkpoint import CheckpointStore

__all__ = ["Session"]


def _stop(lanes: _ProcessLanes, store: PointStore) -> None:
    """Stop a session's lanes, then release its store's segment."""
    lanes.shutdown()
    store.close()


class Session:
    """Owns one database plus everything derived from it.

    Parameters
    ----------
    points:
        ``(n, 2)`` array-like, or an existing
        :class:`~repro.engine.store.PointStore` to adopt (the session
        then owns its lifecycle).
    tracer:
        Span collector for everything the session does; ``None``
        resolves to the globally active tracer at each use.
    **defaults:
        The session's default :class:`~repro.engine.context.RunSpec`,
        by field name (``dataset=``, ``kernel=``, ``executor=`` ...);
        the :class:`~repro.engine.context.ReuseSpec` fields
        (``scheduler=``, ``policy=``, ``low_res_r=``) are accepted
        flat, with ``kernel="bfs"`` only.  Held, validated, as
        :attr:`spec`.
    """

    def __init__(
        self,
        points: np.ndarray | PointStore,
        *,
        tracer: Tracer | None = None,
        **defaults: object,
    ) -> None:
        self.spec = RunSpec().override(**defaults)
        self.store = PointStore.from_points(points)
        self.factory = IndexFactory()
        self.tracer = tracer
        self._closed = False
        self._active_runs = 0
        self._lanes: _ProcessLanes | None = None
        self._stop_lanes: weakref.finalize | None = None

    # -- derived state --------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        return self.store.points

    @property
    def n_points(self) -> int:
        return self.store.n_points

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def reuse_policy(self) -> ReusePolicy:
        """The default runs' reuse policy (``CLUSDENSITY`` off ``bfs``)."""
        return self.spec.effective_reuse.policy

    def indexes(self, low_res_r: int | None = None) -> IndexPair:
        """The memoized ``(T_high, T_low)`` pair at the given resolution."""
        if low_res_r is None:
            low_res_r = self.spec.effective_reuse.low_res_r
        return self.factory.index_pair(
            self.store, low_res_r, tracer=resolve_tracer(self.tracer)
        )

    def index(self, kind: str, **params: object) -> SpatialIndex:
        """A memoized single index of ``kind`` (rtree/cellgraph/brute)."""
        return self.factory.get(
            self.store, kind, tracer=resolve_tracer(self.tracer), **params
        )

    # -- execution ------------------------------------------------------
    def context(self, **overrides: object) -> RunContext:
        """The :class:`RunContext` of one run: the session spec with
        ``overrides`` applied (see :meth:`RunSpec.override`), the
        session's store and index factory, and the checkpoint store
        ``resume`` names.  Indexes are built on first use, so a run
        builds only what its kernel reads.

        ``serial`` runs with one worker whatever ``n_threads`` says.
        """
        if self._closed:
            raise SessionClosedError("Session is closed")
        spec = self.spec.override(**overrides)
        if spec.executor == "serial":
            spec = replace(spec, n_threads=1)
        return RunContext(
            store=self.store,
            spec=spec,
            tracer=resolve_tracer(self.tracer),
            factory=self.factory,
            checkpoint=self._resolve_checkpoint(spec.resume),
        )

    def run(self, variants: VariantSet, **overrides: object) -> BatchResult:
        """Execute every variant and return the batch result.

        ``overrides`` replace fields of the session's
        :class:`~repro.engine.context.RunSpec` for this run only;
        indexes come from the memoized factory, so repeated runs never
        rebuild them, and a run builds only the indexes its kernel
        reads (the ``(T_high, T_low)`` pair under ``kernel="bfs"``, one
        cell grid per eps under ``cellgraph``).  ``executor`` names a row of
        :data:`repro.exec.EXECUTORS` (``serial`` / ``simulated`` /
        ``processes`` / ``hybrid``): the runtime substrate and lowering
        the batch runs on.

        Any of ``retry_policy``, ``fault_plan`` or ``resume`` makes the
        run resilient: a permanently failed variant no longer aborts the
        batch, and dependents re-plan onto surviving donors.
        ``supervise`` attaches the self-healing supervisor (heartbeat
        monitoring, risk-gated remediation, graceful degradation — see
        :mod:`repro.supervise`); ``supervise=False`` switches off a
        session default.  Supervision implies a resilient run.
        """
        from repro.exec import EXECUTORS
        from repro.exec.graph import GraphRuntime

        ctx = self.context(**overrides)
        spec = ctx.spec
        if not isinstance(variants, VariantSet):
            variants = VariantSet(variants)
        substrate, mode = EXECUTORS[spec.executor]
        if substrate == "lanes":
            ctx = replace(ctx, lanes=self._process_lanes())
        if mode is None:
            mode = "variant" if spec.shard_threshold is None else "hybrid"
        self._active_runs += 1
        try:
            result = GraphRuntime(substrate).run(ctx, variants, mode=mode)
        finally:
            self._active_runs -= 1
        record = result.record
        record.executor = spec.executor
        record.n_threads = spec.n_threads
        record.scheduler = spec.effective_reuse.scheduler.name
        record.reuse_policy = spec.effective_reuse.policy.name
        record.dataset = spec.dataset
        return result

    def _process_lanes(self) -> _ProcessLanes:
        """The session's process lanes, made on first use."""
        if self._lanes is None:
            from repro.exec.graph import _ProcessLanes

            self._lanes = _ProcessLanes()
            # Holds the lanes and the store, never the session, so an
            # unclosed session is still collected, and stops its lanes.
            self._stop_lanes = weakref.finalize(self, _stop, self._lanes, self.store)
        return self._lanes

    def _resolve_checkpoint(
        self, resume: str | Path | CheckpointStore | None
    ) -> CheckpointStore | None:
        """A :class:`CheckpointStore` for this database, or ``None``."""
        if resume is None:
            return None
        from repro.resilience.checkpoint import CheckpointStore

        if isinstance(resume, CheckpointStore):
            return resume
        return CheckpointStore(resume, self.store.fingerprint, self.n_points)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release everything the session owns.

        Stops the session's process lanes (their workers are reaped
        here, with the indexes they built), unlinks any shared-memory
        segment the store materialized, drops the index cache, and
        audits this process's own segment registry so nothing survives
        even if an executor leaked.
        Raises :class:`~repro.util.errors.SessionClosedError` on a
        double close or a close while a run is still executing — both
        are lifecycle bugs that previously surfaced later as opaque
        shared-memory ``FileNotFoundError`` in whoever touched the
        store next.
        """
        if self._closed:
            raise SessionClosedError("Session is already closed")
        if self._active_runs > 0:
            raise SessionClosedError(
                f"cannot close Session while {self._active_runs} run(s) are "
                "still executing"
            )
        self._closed = True
        segment = self.store.segment_name
        self.factory.clear()
        if self._stop_lanes is not None:
            self._stop_lanes()
        self.store.close()
        if segment is not None:
            # Owner-side audit scoped to *this* session's segment: even
            # if the ordinary unlink above was skipped (a BufferError
            # path, an interrupted close), nothing of ours survives.
            # Never audit process-wide here — other sessions in this
            # process legitimately own their own live segments.
            from repro.engine.shm import reclaim_segments

            reclaim_segments([segment])

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *exc: object) -> None:
        if not self._closed:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"Session(n={self.store.n_points}, dataset={self.spec.dataset!r}, "
            f"indexes_cached={len(self.factory)}, {state})"
        )
