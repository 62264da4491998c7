"""Session-lived process lanes: started once, reused by every batch.

A :class:`~repro.Session` starts its process lanes on its first
``processes``/``hybrid`` run and keeps them, with each worker's store
attachment and the indexes it built, until :meth:`~repro.Session.close`.
These tests pin what that may not change (outputs, fault outcomes),
what a worker builds (each index once) and what must be cleaned up
(processes, segments), also after failures.
"""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import struct
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import repro.exec.graph as graph
from repro import FaultPlan, FaultSpec, RetryPolicy, Session, VariantSet
from repro.data.registry import load_dataset
from repro.engine.shm import owned_segments
from repro.obs.span import Tracer
from repro.resilience.report import VariantStatus

VSET = VariantSet.from_product([0.3, 0.5], [4, 8])
REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def points():
    return load_dataset("SW1", 0.002).points


def _segments() -> set[str]:
    return {p.rsplit("/", 1)[-1] for p in glob.glob("/dev/shm/repro_*")}


def _workers() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _same(a, b, variants) -> None:
    for v in variants:
        assert a[v].labels.tobytes() == b[v].labels.tobytes(), v
        assert a[v].core_mask.tobytes() == b[v].core_mask.tobytes(), v


def _reference(points, variants, kernel):
    """``serial`` under ``cellgraph``; a one-batch session's lanes under ``bfs``,
    whose chain split permutes the reuse sources serial would pick."""
    with Session(points, kernel=kernel) as s:
        if kernel == "cellgraph":
            return s.run(variants)
        return s.run(variants, executor="processes", n_threads=2)


class TestReuse:
    @pytest.mark.parametrize("kernel", ["cellgraph", "bfs"])
    def test_batches_share_workers_and_outputs(self, points, kernel):
        ref = _reference(points, VSET, kernel)
        before = _workers()
        with Session(points, kernel=kernel) as s:
            first = s.run(VSET, executor="processes", n_threads=2)
            pids = _workers() - before
            second = s.run(VSET, executor="processes", n_threads=2)
            assert len(pids) == 2
            assert _workers() - before == pids, "the second batch starts no lane"
        _same(first, ref, VSET)
        _same(second, ref, VSET)

    def test_new_eps_values_on_the_same_workers_stay_byte_identical(self, points):
        later = VariantSet.from_product([0.4], [4, 6])
        with Session(points) as s:
            serial = s.run(later)
        bfs_ref = _reference(points, VSET, "bfs")
        before = _workers()
        with Session(points) as s:
            s.run(VSET, executor="processes", n_threads=2)
            pids = _workers() - before
            grown = s.run(later, executor="processes", n_threads=2)
            bfs = s.run(VSET, executor="processes", n_threads=2, kernel="bfs")
            assert _workers() - before == pids
        _same(grown, serial, later)
        _same(bfs, bfs_ref, VSET)


class TestWorkerIndexes:
    @pytest.mark.parametrize("kernel", ["cellgraph", "bfs"])
    def test_a_batch_leaves_only_the_store_segment(self, points, kernel):
        before = set(owned_segments())
        with Session(points, kernel=kernel) as s:
            s.run(VSET, executor="processes", n_threads=2)
            s.run(VSET, executor="processes", n_threads=2, supervise=True)
            assert set(owned_segments()) - before == {s.store.segment_name}

    @pytest.mark.parametrize("kernel", ["cellgraph", "bfs"])
    def test_a_lane_builds_each_index_once(self, points, kernel):
        """One lane over three batches: the second repeats the first and
        builds nothing; the third builds only its new eps's grid."""
        later = VariantSet.from_product([0.3, 0.4], [4, 6])
        with Session(points) as s:
            refs = [s.run(VSET), s.run(later)]
        tracer = Tracer()

        def worker_builds():
            return sorted(
                (r.args["kind"], r.args.get("eps", 0.0), r.args.get("r", 0))
                for r in tracer.drain()
                if r.name == "index_build" and r.thread.startswith("worker")
            )

        with Session(points, kernel=kernel, tracer=tracer) as s:
            first = s.run(VSET, executor="processes", n_threads=1)
            built = worker_builds()
            second = s.run(VSET, executor="processes", n_threads=1)
            assert worker_builds() == [], "the second identical batch builds nothing"
            third = s.run(later, executor="processes", n_threads=1)
            grown = worker_builds()
        if kernel == "cellgraph":
            assert built == [("cellgraph", 0.3, 0), ("cellgraph", 0.5, 0)]
            assert grown == [("cellgraph", 0.4, 0)]
            _same(first, refs[0], VSET)
            _same(third, refs[1], later)
        else:
            assert built == [("rtree", 0.0, 1), ("rtree", 0.0, 70)]
            assert grown == []
        _same(second, first, VSET)


class TestFailures:
    def test_killed_lane_serves_the_next_batch(self, points):
        ref = _reference(points, VSET, "cellgraph")
        with Session(points) as s:
            hit = s.run(
                VSET, executor="processes", n_threads=2,
                fault_plan=FaultPlan([FaultSpec("kill", 0)]),
                retry_policy=RetryPolicy(max_retries=2),
            )
            assert hit.report is not None and hit.report.complete
            assert hit.report.retried
            again = s.run(VSET, executor="processes", n_threads=2, retry_policy=RetryPolicy())
            assert again.report is not None
            assert {o.status for o in again.report.outcomes.values()} == {VariantStatus.OK}
        _same(hit, ref, VSET)
        _same(again, ref, VSET)

    def test_a_raising_batch_leaves_the_session_usable(self, points, tmp_path, monkeypatch):
        """No retry policy: a worker's error propagates, and the next batch runs."""
        marker = tmp_path / "raise"
        marker.touch()
        run_unit = graph._run_unit

        def flaky(ctx, chain, *args, **kwargs):
            if marker.exists() and chain[0].eps == 0.3:
                raise RuntimeError("injected")
            return run_unit(ctx, chain, *args, **kwargs)

        # Lanes fork on the session's first batch, so they run the patch.
        monkeypatch.setattr(graph, "_run_unit", flaky)
        ref = _reference(points, VSET, "cellgraph")
        with Session(points) as s:
            with pytest.raises(RuntimeError, match="injected"):
                s.run(VSET, executor="processes", n_threads=2)
            marker.unlink()
            after = s.run(VSET, executor="processes", n_threads=2)
        _same(after, ref, VSET)


#: The pool whose worker :func:`_half_result` writes into (a fork child
#: inherits the parent's module state, so the worker finds it here).
_POOL = None


def _half_result(marker: str) -> None:
    """Send the first bytes of a 1000-byte result, then hang."""
    fd = _POOL._result_queue._writer.fileno()
    os.write(fd, struct.pack("!i", 1000) + b"x" * 10)
    Path(marker).touch()
    time.sleep(600)


class TestRespawn:
    def test_a_worker_killed_mid_result_does_not_wedge_its_lane(self, tmp_path):
        """Respawning a hung lane whose worker died while it sent a result
        returns, and the pool's reader thread ends instead of waiting on
        the rest of the message forever."""
        global _POOL
        lanes = graph._ProcessLanes()
        lanes.pools = [ProcessPoolExecutor(max_workers=1)]
        _POOL = lanes.pools[0]
        marker = tmp_path / "sent"
        respawn = threading.Thread(target=lanes.respawn, args=(0, True), daemon=True)
        try:
            lanes.pools[0].submit(_half_result, str(marker))
            deadline = time.monotonic() + 30
            while not marker.exists():
                assert time.monotonic() < deadline, "the worker never wrote"
                time.sleep(0.01)
            reader = lanes.pools[0]._executor_manager_thread
            respawn.start()
            respawn.join(30)
            assert not respawn.is_alive(), "respawn waited on the half-sent result"
            reader.join(30)
            assert not reader.is_alive(), "the reader thread still waits on the result"
            assert lanes.pools[0].submit(os.getpid).result(timeout=30) != os.getpid()
        finally:
            _POOL = None
            if not respawn.is_alive():  # else the old pool is wedged for good
                lanes.shutdown()


class TestCleanup:
    def test_close_reaps_workers_and_segments(self, points):
        before, segments = _workers(), _segments()
        s = Session(points)
        s.run(VSET, executor="processes", n_threads=2)
        s.run(VSET, executor="hybrid", n_threads=2, kernel="bfs", shard_threshold=0)
        assert _workers() - before and _segments() - segments
        s.close()
        assert _workers() == before
        assert _segments() == segments

    def test_an_unclosed_session_cleans_up_at_exit(self, tmp_path):
        """A dropped session and one alive at exit both stop their lanes."""
        script = textwrap.dedent(
            """
            import gc, glob, json, multiprocessing, sys
            from repro import Session, VariantSet
            from repro.data.registry import load_dataset

            pts = load_dataset("SW1", 0.002).points
            vs = VariantSet.from_product([0.3, 0.5], [4, 8])
            dropped = Session(pts)
            dropped.run(vs, executor="processes", n_threads=2)
            gone = {p.pid for p in multiprocessing.active_children()}
            del dropped
            gc.collect()
            left = {p.pid for p in multiprocessing.active_children()}
            kept = Session(pts)
            kept.run(vs, executor="processes", n_threads=2)
            json.dump({
                "dropped": sorted(gone), "after_drop": sorted(left),
                "kept": [p.pid for p in multiprocessing.active_children()],
                "segments": glob.glob("/dev/shm/repro_*"),
            }, sys.stdout)
            """
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        )
        seen = json.loads(done.stdout)
        assert seen["dropped"] and not set(seen["dropped"]) & set(seen["after_drop"])
        assert seen["kept"] and seen["segments"]
        for pid in seen["dropped"] + seen["kept"]:
            assert not Path(f"/proc/{pid}").exists(), f"worker {pid} outlived the interpreter"
        for path in seen["segments"]:
            assert not Path(path).exists(), f"{path} outlived the interpreter"
        assert "leaked shared_memory" not in done.stderr, done.stderr
