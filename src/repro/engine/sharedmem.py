"""Zero-copy matrix hand-off to worker processes via shared memory.

Pickling a request's full ``N x N`` matrix through a worker's queue costs
one copy *per request*, even when a thousand requests share one matrix.
This module replaces the per-request copy with a per-*matrix* copy: the
front end (:class:`~repro.serving.frontend.ClusterEngine`, which also serves
``ScenarioRunner(mode="process")``) publishes each distinct matrix (by
content fingerprint) into a :mod:`multiprocessing.shared_memory` segment
exactly once, requests carry a tiny :class:`SharedMatrixHandle` instead of
the array, and workers attach read-only views backed by the same physical
pages.

Lifecycle is deterministic rather than garbage-collector-driven:

* :class:`SharedMatrixRegistry` (parent side) owns the segments.  ``publish``
  is idempotent per fingerprint and refcounted; ``release`` drops one
  reference and unlinks at zero; ``close`` (also the context-manager exit and
  a ``__del__`` safety net) unlinks everything that is left.  After a normal
  exit, an error exit, or an explicit ``close()`` no segment survives.
* Workers keep a per-process attachment table so each segment is mapped once
  per worker regardless of how many jobs reference it; the views are marked
  read-only, so a buggy worker cannot corrupt the matrix under its siblings.
  The handle also carries the publish-time **fingerprint**, which the
  compiled-solver cache accepts directly — workers skip re-hashing the bytes
  on every request on top of skipping the copy.

POSIX note: the registry unlinks segment *names*; attached mappings stay
valid until each process drops them (exactly like unlinking an open file),
so ``close()`` never races a still-running worker.  The worker fleet uses
the ``fork`` start method, so worker processes share the parent's resource
tracker and the parent's unlink is the single point of cleanup (on
Python ≥ 3.13 attachments additionally opt out of tracking via
``track=False``).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from multiprocessing import shared_memory

import numpy as np

from ..utils import is_linear_operator, matrix_fingerprint

__all__ = [
    "SharedMatrixHandle",
    "SharedMatrixRegistry",
    "attach_matrix",
    "detach_all",
]

#: byte alignment of packed component arrays inside a structured segment
#: (generous for any numeric dtype).
_PACK_ALIGN = 16


@dataclass(frozen=True)
class SharedMatrixHandle:
    """Picklable reference to a published matrix.

    This is what crosses the process boundary instead of the array: the
    shared-memory segment name plus everything needed to rebuild the ndarray
    view (dtype, shape) and to key caches (the content ``fingerprint``,
    computed from the published bytes, so workers never re-hash).

    **Structured operators** publish their component arrays packed into one
    segment; ``structure`` then carries the operator metadata plus per-array
    specs (dtype, shape, byte offset), ``nbytes`` is the structured payload
    size (``nnz_bytes``-ish, not ``N²·8``), and the worker-side attach
    rebuilds the operator over zero-copy read-only views.
    """

    segment: str
    fingerprint: str
    dtype: str
    shape: tuple[int, ...]
    nbytes: int
    creator_pid: int
    structure: dict | None = None


class SharedMatrixRegistry:
    """Fingerprint-keyed owner of shared-memory matrix segments.

    Thread-safe.  Use as a context manager (or call :meth:`close`) so the
    segments are unlinked deterministically:

    >>> with SharedMatrixRegistry() as registry:
    ...     handle = registry.publish(matrix)        # one copy, refcount 1
    ...     same = registry.publish(matrix)          # dedup: same segment
    ...     view = attach_matrix(handle)             # zero-copy read-only view
    ... # exiting unlinks every segment, even on error
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: fingerprint -> (segment, handle, refcount)
        self._segments: dict[str, tuple[shared_memory.SharedMemory,
                                        SharedMatrixHandle, int]] = {}
        self._closed = False
        self._publishes = 0
        self._copies = 0

    # ------------------------------------------------------------------ #
    def publish(self, matrix) -> SharedMatrixHandle:
        """Copy ``matrix`` into shared memory (once per distinct content).

        Re-publishing a matrix whose bytes are already live returns the
        existing handle and bumps its refcount — the copy happens exactly
        once per fingerprint, which is the whole point.  Structured
        operators publish their ``O(nnz)`` component arrays instead of a
        dense ``N²`` buffer.
        """
        if is_linear_operator(matrix):
            return self._publish_entry(matrix_fingerprint(matrix),
                                       lambda: self._pack_structured(matrix))
        array = np.ascontiguousarray(np.asarray(matrix))
        return self._publish_entry(matrix_fingerprint(array),
                                   lambda: self._pack_dense(array))

    def _publish_entry(self, fingerprint: str, pack) -> SharedMatrixHandle:
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot publish through a closed registry")
            entry = self._segments.get(fingerprint)
            self._publishes += 1
            if entry is not None:
                segment, handle, refcount = entry
                self._segments[fingerprint] = (segment, handle, refcount + 1)
                return handle
            segment, handle = pack()
            handle = replace(handle, fingerprint=fingerprint)
            self._segments[fingerprint] = (segment, handle, 1)
            self._copies += 1
            return handle

    @staticmethod
    def _pack_dense(array: np.ndarray):
        segment = shared_memory.SharedMemory(create=True, size=array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        del view
        handle = SharedMatrixHandle(
            segment=segment.name, fingerprint="",
            dtype=str(array.dtype), shape=tuple(array.shape),
            nbytes=int(array.nbytes), creator_pid=os.getpid())
        return segment, handle

    @staticmethod
    def _pack_structured(operator):
        """One segment holding every component array, aligned and indexed."""
        meta, arrays = operator.to_state()
        specs = []
        offset = 0
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            specs.append({"dtype": str(arr.dtype), "shape": list(arr.shape),
                          "offset": offset})
            offset += -(-arr.nbytes // _PACK_ALIGN) * _PACK_ALIGN
        total = max(offset, 1)
        segment = shared_memory.SharedMemory(create=True, size=total)
        for spec, arr in zip(specs, arrays):
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf,
                              offset=spec["offset"])
            view[...] = arr
            del view
        handle = SharedMatrixHandle(
            segment=segment.name, fingerprint="",
            dtype="structured", shape=tuple(operator.shape),
            nbytes=int(total), creator_pid=os.getpid(),
            structure={"meta": meta, "arrays": specs})
        return segment, handle

    def release(self, handle_or_fingerprint) -> bool:
        """Drop one reference; unlink the segment when the count reaches zero.

        Returns ``True`` when this call unlinked the segment.  Releasing an
        unknown fingerprint is a no-op (``False``) so teardown code can be
        unconditional.
        """
        fingerprint = getattr(handle_or_fingerprint, "fingerprint",
                              handle_or_fingerprint)
        with self._lock:
            entry = self._segments.get(fingerprint)
            if entry is None:
                return False
            segment, handle, refcount = entry
            if refcount > 1:
                self._segments[fingerprint] = (segment, handle, refcount - 1)
                return False
            del self._segments[fingerprint]
        _destroy_segment(segment)
        return True

    def close(self) -> None:
        """Unlink every live segment.  Idempotent; also the ``with`` exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments = [entry[0] for entry in self._segments.values()]
            self._segments.clear()
        for segment in segments:
            _destroy_segment(segment)

    # ------------------------------------------------------------------ #
    def segment_names(self) -> list[str]:
        """Names of the currently live segments (test/diagnostic hook)."""
        with self._lock:
            return [entry[1].segment for entry in self._segments.values()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)

    def stats(self) -> dict:
        """Snapshot: live segments/bytes and how many copies publishing saved."""
        with self._lock:
            segments = len(self._segments)
            total_bytes = sum(entry[1].nbytes for entry in self._segments.values())
        return {
            "segments": segments,
            "segment_bytes": total_bytes,
            "publishes": self._publishes,
            "copies": self._copies,
            "copies_saved": self._publishes - self._copies,
        }

    def __enter__(self) -> "SharedMatrixRegistry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net only
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (f"SharedMatrixRegistry(segments={stats['segments']}, "
                f"bytes={stats['segment_bytes']}, closed={self._closed})")


def _destroy_segment(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.close()
    except BufferError:  # a local view is still alive; the unlink still works
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


# ---------------------------------------------------------------------- #
# worker side: per-process attachment table
# ---------------------------------------------------------------------- #
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}
_ATTACH_LOCK = threading.Lock()


def attach_matrix(handle: SharedMatrixHandle):
    """Return a read-only zero-copy view of a published matrix.

    The segment is mapped once per process and memoised, so a worker
    executing many jobs against the same matrix attaches a single time; the
    view is zero-copy (backed by the shared pages) and write-protected.
    Dense handles return an ndarray; structured handles rebuild the
    :class:`~repro.linalg.operators.StructuredOperator` over read-only views
    of the packed component arrays (the operator constructors adopt frozen
    arrays without copying).
    """
    with _ATTACH_LOCK:
        entry = _ATTACHED.get(handle.segment)
        if entry is None:
            try:
                # Python >= 3.13: opt out of resource tracking for attachments
                # (the publishing process owns cleanup).
                segment = shared_memory.SharedMemory(name=handle.segment,
                                                     track=False)
            except TypeError:
                # <= 3.12 tracks attachments too; with the fork start method
                # the workers share the parent's tracker and registration is
                # set-deduplicated, so the parent's unlink stays the single
                # cleanup point.
                segment = shared_memory.SharedMemory(name=handle.segment)
            if handle.structure is not None:
                from ..linalg.operators import operator_from_state

                arrays = []
                for spec in handle.structure["arrays"]:
                    view = np.ndarray(tuple(spec["shape"]),
                                      dtype=np.dtype(spec["dtype"]),
                                      buffer=segment.buf,
                                      offset=int(spec["offset"]))
                    view.flags.writeable = False
                    arrays.append(view)
                view = operator_from_state(handle.structure["meta"], arrays)
            else:
                view = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype),
                                  buffer=segment.buf)
                view.flags.writeable = False
            entry = (segment, view)
            _ATTACHED[handle.segment] = entry
    return entry[1]


def detach_all() -> int:
    """Drop every memoised attachment in this process; returns the count.

    Called by tests and long-lived workers between runs; the arrays handed
    out by :func:`attach_matrix` must no longer be in use (a still-referenced
    buffer keeps its mapping alive until garbage collection, which is safe
    but delays the memory return).
    """
    with _ATTACH_LOCK:
        entries = list(_ATTACHED.values())
        _ATTACHED.clear()
    for segment, view in entries:
        del view
        try:
            segment.close()
        except BufferError:  # caller still holds the view; GC will finish it
            pass
    return len(entries)
