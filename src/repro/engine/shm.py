"""POSIX shared-memory segments with owned-segment bookkeeping.

The paper's execution model (Section IV) is shared-memory threads: one
database ``D`` visible to every worker for free.  Our process-lane
substitute loses that for free-ness: pickling the point array to each
worker costs a copy per worker.  This module restores it with
:mod:`multiprocessing.shared_memory`: :func:`create_shm` makes an owned,
audited segment (the point store's, a supervised batch's heartbeat
mailbox) and :func:`attach_shm` maps one in another process.  Indexes
do not travel: each lane worker builds the ones it reads and keeps
them for its life.

Lifecycle rules (enforced by callers, see :class:`~repro.engine.store.
PointStore`): exactly one process *owns* a segment and is responsible
for ``unlink``; attachers only ever ``close``.  On Python < 3.13 the
stdlib registers attached segments with the ``resource_tracker``, whose
cleanup-at-exit would destroy segments the attacher does not own;
:func:`attach_shm` therefore suppresses that registration (the
workaround for CPython issue 82300) so ownership stays with the
creator.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import threading
from collections.abc import Iterable
from multiprocessing import resource_tracker, shared_memory

__all__ = [
    "attach_shm",
    "create_shm",
    "destroy_segment",
    "destroy_segment_by_name",
    "discard_segment",
    "owned_segments",
    "reclaim_segments",
    "release_segment",
    "segment_exists",
    "shm_name",
]

#: Names of segments created (and therefore owned) by this process and
#: not yet unlinked — the working set the owner-side leak audit checks.
_OWNED_LOCK = threading.Lock()
_OWNED: set[str] = set()


def shm_name(tag: str = "") -> str:
    """A collision-resistant, recognisably-ours segment name.

    The ``repro_`` prefix lets tests (and operators) audit ``/dev/shm``
    for leaked segments; the pid + random suffix avoids collisions with
    concurrent sessions.
    """
    suffix = f"_{tag}" if tag else ""
    return f"repro_{os.getpid()}_{secrets.token_hex(4)}{suffix}"[:30]


def create_shm(size: int, tag: str = "") -> shared_memory.SharedMemory:
    """Create an owned shared-memory segment of ``size`` bytes.

    The segment's name is registered in the process-local owned set so
    the leak audit (:func:`reclaim_segments`, ``repro doctor``) can
    find segments whose normal unlink path was skipped by a crash.
    """
    # Retry on the (astronomically unlikely) name collision.
    for _ in range(8):
        try:
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, int(size)), name=shm_name(tag)
            )
        except FileExistsError:  # pragma: no cover - needs a collision
            continue
        with _OWNED_LOCK:
            _OWNED.add(shm.name)
        return shm
    raise RuntimeError("could not allocate a uniquely named shared-memory segment")


def discard_segment(name: str) -> None:
    """Unregister ``name`` from the owned set (call after unlinking)."""
    with _OWNED_LOCK:
        _OWNED.discard(name)


def owned_segments() -> list[str]:
    """Snapshot of segment names this process created and still owns."""
    with _OWNED_LOCK:
        return sorted(_OWNED)


def segment_exists(name: str) -> bool:
    """Whether a shared-memory segment named ``name`` currently exists."""
    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):
        return os.path.exists(os.path.join(shm_dir, name))
    try:  # pragma: no cover - non-tmpfs platforms
        probe = attach_shm(name)
    except FileNotFoundError:  # pragma: no cover
        return False
    probe.close()  # pragma: no cover
    return True  # pragma: no cover


def reclaim_segments(names: Iterable[str] | None = None) -> list[str]:
    """Owner-side leak audit: unlink any still-existing owned segments.

    ``names`` restricts the audit (e.g. to the segments one batch
    created); the default audits everything this process still owns.
    Only call on names this process created — unlinking someone else's
    live segment would tear it out from under them.  Returns the names
    actually reclaimed (normally empty: a healthy run unlinks every
    segment through its ordinary lifecycle).
    """
    targets = list(names) if names is not None else owned_segments()
    reclaimed: list[str] = []
    for name in targets:
        if segment_exists(name) and destroy_segment_by_name(name):
            reclaimed.append(name)
        discard_segment(name)
    return reclaimed


def release_segment(shm: shared_memory.SharedMemory) -> None:
    """Unmap ``shm`` in this process, tolerating exported views.

    A NumPy view built over the buffer keeps the mapping exported;
    the OS releases it at process exit, and (for owners) a following
    :func:`destroy_segment` still removes the segment *name*.
    """
    with contextlib.suppress(BufferError):
        shm.close()


def destroy_segment(shm: shared_memory.SharedMemory) -> None:
    """Owner-side teardown: unlink the segment and clear the audit entry.

    Only the creating process may call this (attachers only ever
    :func:`release_segment`).  Tolerates a segment already removed —
    a crashed owner cleaned up by the OS, or a test's explicit unlink.
    """
    with contextlib.suppress(FileNotFoundError):
        shm.unlink()
    discard_segment(shm.name)


def destroy_segment_by_name(name: str) -> bool:
    """Attach-and-destroy a segment by name; False if already gone.

    The escape hatch for the orphan reaper (``repro doctor --unlink``)
    tearing down segments whose creating process died without running
    its normal lifecycle.  Never call on a live owner's segment.
    """
    try:
        shm = attach_shm(name)
    except FileNotFoundError:
        return False
    release_segment(shm)
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - raced another closer
        return False
    finally:
        discard_segment(name)
    return True


def attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting its lifecycle.

    The attaching process must only ever ``close()`` the returned
    object; ``unlink`` stays with the creator.  On Python < 3.13 the
    stdlib has no ``track=False`` and registers every attach with the
    resource tracker, whose cleanup-at-exit would destroy segments the
    attacher does not own.  Registration is suppressed for the duration
    of the attach (rather than unregistered afterwards: with the
    ``fork`` start method the tracker daemon is shared with the parent,
    so a worker's *unregister* would delete the creator's registration
    and make the eventual unlink double-unregister).
    """
    with contextlib.suppress(TypeError):
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    original_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register
