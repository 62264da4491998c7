"""Session-lived process lanes: started once, reused by every batch.

A :class:`~repro.Session` starts its process lanes on its first
``processes``/``hybrid`` run and keeps them, with each worker's store
and index-pack attachments, until :meth:`~repro.Session.close`.  These
tests pin what that may not change (outputs, fault outcomes) and what
it must clean up (processes, segments), also after failures.
"""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.exec.graph as graph
from repro import FaultPlan, FaultSpec, RetryPolicy, Session, VariantSet
from repro.data.registry import load_dataset
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

    def test_new_indexes_repack_on_the_same_workers(self, points):
        later = VariantSet.from_product([0.4], [4, 6])
        with Session(points) as s:
            serial = s.run(later)
        bfs_ref = _reference(points, VSET, "bfs")
        before = _workers()
        with Session(points) as s:
            s.run(VSET, executor="processes", n_threads=2)
            pids = _workers() - before
            lanes = s._lanes
            assert lanes is not None
            pack = lanes.idx_handle
            s.run(VSET, executor="processes", n_threads=2)
            assert lanes.idx_handle is pack, "the same grids: no new pack"
            grown = s.run(later, executor="processes", n_threads=2)
            assert lanes.idx_handle is not pack
            assert [p["eps"] for _, p in lanes.packed] == [0.3, 0.5, 0.4]
            bfs = s.run(VSET, executor="processes", n_threads=2, kernel="bfs")
            assert [k for k, _ in lanes.packed] == ["cellgraph"] * 3 + ["rtree"] * 2
            assert _workers() - before == pids
        _same(grown, serial, later)
        _same(bfs, bfs_ref, VSET)


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
