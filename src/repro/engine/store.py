"""Persistent synthesis store: spill compiled solvers to disk, keyed by matrix.

The in-memory :class:`~repro.engine.cache.CompiledSolverCache` makes repeated
requests within one process free, but every *fresh process* — a new or
respawned serving worker, a restarted service, the next benchmark run —
still pays the full synthesis (block-encoding, Eq.-(4)
polynomial, QSP phases, plan fusion) from scratch.  :class:`SynthesisStore`
closes that gap: the compiled payload of a solver
(:meth:`repro.core.qsvt_solver.QSVTLinearSolver.export_payload` — phase
factors, polynomial, normalisation metadata and the fused plan gate bytes) is
written to an on-disk cache keyed by the same canonical tuple the in-memory
cache uses (matrix fingerprint + ``ε_l`` + backend + options), so a store hit
restores a ready-to-solve solver in milliseconds where a compile takes
hundreds.

Format and failure model
------------------------
* one ``<sha256(key)>`` :data:`ENTRY_SUFFIX` file per entry, read with one
  ``read_bytes``: a magic tag, the header length, a SHA-256 of everything
  after it, a JSON header (**format version**, key fingerprint, payload
  meta, and each array's name, dtype, shape, offset and length), then the
  raw array bytes at 64-byte-aligned offsets, restored as read-only
  ``np.frombuffer`` views.  Only numeric dtypes are written or read, so an
  entry never carries a pickle.  Entries written by an incompatible
  version of the code (including the ``.npz`` archives of format 2, which
  are never opened) are treated as misses, never as errors;
* writes are **atomic**: the entry is serialised to a temporary file in the
  store directory and ``os.replace``-d into place, so readers (including
  concurrent worker processes) only ever observe complete entries;
* loads are **corruption-safe**: any failure to read, parse, verify or
  restore an entry (foreign tag, truncated file, flipped bit, garbage
  header, an array outside the buffer, fingerprint mismatch)
  **quarantines** the bad entry — it is renamed to ``<entry>.corrupt``
  (kept for forensics, invisible to later lookups), counted in
  :meth:`stats` under ``corrupt_quarantined``, and the caller falls back
  to recompilation, whose result overwrites the slot with a fresh entry.
  A poisoned store can cost time, never correctness — and never costs
  that time *twice* for one entry.

The default location is ``~/.cache/repro/synthesis`` (respecting
``XDG_CACHE_HOME``); set the ``REPRO_SYNTHESIS_STORE`` environment variable
to relocate it without touching code.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import json
import math
import os
import pathlib
import threading

import numpy as np

from ..core.qsvt_solver import QSVTLinearSolver
from ..obs.trace import current_trace
from ..utils import atomic_write

__all__ = ["SynthesisStore", "TieredSynthesisStore", "default_store_path",
           "FORMAT_VERSION", "ENTRY_SUFFIX"]

#: bump when the payload layout changes; mismatched entries are plain misses.
#: (2: compiled QSVT programs record whether their ``-θ`` run is
#: conjugate-derived.  3: one header and one raw buffer replace the
#: ``.npz`` archive.)
FORMAT_VERSION = 3

#: file suffix of a store entry; format 2's ``.npz`` entries are never read.
ENTRY_SUFFIX = ".synth"

#: environment variable overriding the default on-disk location.
STORE_ENV_VAR = "REPRO_SYNTHESIS_STORE"

#: an entry's fixed prefix: this tag, the header length (8 bytes, little
#: endian) and the SHA-256 of everything after the prefix.
_MAGIC = b"REPROSYN"
_PREFIX = len(_MAGIC) + 8 + 32
#: the data section and every array in it start at a multiple of this.
_ALIGN = 64
#: the only array dtype kinds an entry holds: bool, int, uint, float, complex.
_NUMERIC = "biufc"


def _pack(head: bytes, data: bytes) -> bytes:
    """One entry: the prefix, the header (padded so the data section starts
    aligned) and the data section."""
    head += b" " * (-(_PREFIX + len(head)) % _ALIGN)
    body = head + data
    return (_MAGIC + len(head).to_bytes(8, "little")
            + hashlib.sha256(body).digest() + body)


def _unpack(raw: bytes) -> tuple[dict, int]:
    """The header of a verified entry and where its data section starts;
    ``ValueError`` on a foreign tag, a short file or a digest mismatch."""
    if len(raw) < _PREFIX or raw[:len(_MAGIC)] != _MAGIC:
        raise ValueError("not a synthesis-store entry")
    start = _PREFIX + int.from_bytes(raw[len(_MAGIC):_PREFIX - 32], "little")
    if (start > len(raw) or hashlib.sha256(memoryview(raw)[_PREFIX:]).digest()
            != raw[_PREFIX - 32:_PREFIX]):
        raise ValueError("entry is truncated or corrupt")
    return json.loads(raw[_PREFIX:start]), start


def _encode(header: dict, arrays: dict) -> bytes:
    """Entry bytes for ``header`` plus the numeric ``arrays``."""
    specs, data = [], bytearray()
    for name, array in arrays.items():
        array = np.asarray(array)
        if array.dtype.kind not in _NUMERIC:
            raise TypeError(f"array {name!r} is not numeric ({array.dtype})")
        fortran = array.flags.f_contiguous and not array.flags.c_contiguous
        data += bytes(-len(data) % _ALIGN)
        specs.append({"name": name, "dtype": array.dtype.str,
                      "shape": list(array.shape), "fortran": fortran,
                      "offset": len(data), "length": array.nbytes})
        data += array.tobytes(order="F" if fortran else "C")
    return _pack(json.dumps({**header, "arrays": specs}).encode(), bytes(data))


def _arrays(raw: bytes, start: int, specs: list) -> dict:
    """Read-only views of the arrays ``specs`` place in ``raw``'s data
    section (at ``start``); ``ValueError`` on a non-numeric dtype or an
    array outside the buffer."""
    arrays = {}
    for spec in specs:
        dtype, shape = np.dtype(spec["dtype"]), tuple(spec["shape"])
        count, offset = math.prod(shape), start + spec["offset"]
        if (dtype.kind not in _NUMERIC or min(shape, default=0) < 0
                or offset < start or spec["length"] != count * dtype.itemsize
                or offset + spec["length"] > len(raw)):
            raise ValueError(f"array {spec['name']!r} is malformed")
        arrays[spec["name"]] = np.frombuffer(raw, dtype, count, offset).reshape(
            shape, order="F" if spec["fortran"] else "C")
    return arrays


def default_store_path() -> pathlib.Path:
    """Resolve the store directory: env override, then the user cache dir."""
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return pathlib.Path(env).expanduser()
    base = os.environ.get("XDG_CACHE_HOME")
    root = pathlib.Path(base).expanduser() if base else pathlib.Path.home() / ".cache"
    return root / "repro" / "synthesis"


class _Tally:
    """Named event counters behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = collections.Counter()

    def _count(self, *names: str) -> None:
        with self._lock:
            self._counts.update(names)

    def _snapshot(self, names) -> dict:
        with self._lock:
            return {name: self._counts[name] for name in names}


class SynthesisStore(_Tally):
    """On-disk cache of compiled :class:`~repro.core.qsvt_solver.QSVTLinearSolver` payloads.

    Parameters
    ----------
    path:
        Store directory (created lazily on the first write).  Defaults to
        :func:`default_store_path`, i.e. ``$REPRO_SYNTHESIS_STORE`` or
        ``~/.cache/repro/synthesis``.
    chaos:
        Optional fault injector (an object with a
        ``corrupt_payload(bytes) -> bytes | None`` method, normally a
        :class:`repro.serving.resilience.ChaosPolicy`) applied to entry
        bytes on :meth:`save` — the deterministic way to exercise the
        quarantine path.  ``None`` (the default) costs nothing.

    Examples
    --------
    >>> store = SynthesisStore(tmpdir)
    >>> cache = CompiledSolverCache(store=store)        # compile once...
    >>> cache.solver(matrix, epsilon_l=1e-2, backend="circuit")
    >>> fresh = CompiledSolverCache(store=store)        # ...restore forever
    >>> fresh.solver(matrix, epsilon_l=1e-2, backend="circuit")  # store hit
    >>> fresh.stats()["compiles"]
    0
    """

    def __init__(self, path: str | os.PathLike | None = None, *,
                 chaos=None, events=None) -> None:
        self.path = pathlib.Path(path) if path is not None else default_store_path()
        self.chaos = chaos
        #: optional :class:`repro.obs.events.EventLog`: quarantines are
        #: exactly the store incident a post-hoc timeline needs to explain.
        self.events = events
        super().__init__()
        self._readonly = False

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #
    @staticmethod
    def entry_key(cache_key: tuple) -> str:
        """Filename-safe digest of a canonical cache key tuple.

        The tuple is the one :class:`~repro.engine.cache.CompiledSolverCache`
        builds (matrix fingerprint, ``ε_l``, backend name, κ, canonical
        options) — its ``repr`` is deterministic because every element is a
        primitive, so the digest is stable across processes and runs.
        """
        return hashlib.sha256(repr(cache_key).encode()).hexdigest()

    def key_for(self, matrix, *, epsilon_l: float = 1e-2, backend: str = "auto",
                kappa: float | None = None, **backend_options) -> str:
        """Entry key for a solver configuration (mirrors the cache signature)."""
        from .cache import CompiledSolverCache  # local: cache imports nothing from here

        return self.entry_key(CompiledSolverCache._key(
            matrix, epsilon_l, backend, kappa, backend_options))

    def _entry_path(self, entry_key: str) -> pathlib.Path:
        return self.path / f"{entry_key}{ENTRY_SUFFIX}"

    def _entries(self, suffixes=(ENTRY_SUFFIX,)) -> list[pathlib.Path]:
        """The files in the store directory ending in one of ``suffixes``
        (none while the directory does not exist)."""
        return [entry for suffix in suffixes
                for entry in self.path.glob(f"*{suffix}")]

    # ------------------------------------------------------------------ #
    # load / save
    # ------------------------------------------------------------------ #
    def load(self, cache_key: tuple, _entry: list | None = None,
             **backend_options) -> QSVTLinearSolver | None:
        """Restore the solver stored under ``cache_key``; ``None`` on a miss.

        ``_entry``, when given, receives the verified bytes of a hit (the
        tiered store promotes them as they are).  ``backend_options`` are
        forwarded to the restored backend's constructor (they are part of
        the key, so a stored entry always matches the options it was
        compiled with).  Failure handling is
        split by what the failure means for the entry: transient I/O errors
        (permissions, descriptor exhaustion, interrupted reads) are plain
        misses that *leave the entry alone*; only content that cannot be
        parsed or verified — or whose recorded key fingerprint disagrees
        with the requested key — is quarantined and counted as corrupt.  A
        format-version mismatch is a miss that leaves the entry in place
        (another interpreter may still read it).
        """
        entry_key = self.entry_key(cache_key)
        path = self._entry_path(entry_key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self._count("misses")
            return None
        except OSError:
            # transient filesystem trouble is not evidence against the entry
            self._count("errors", "misses")
            return None
        try:
            header, start = _unpack(raw)
            if header.get("format_version") != FORMAT_VERSION:
                self._count("misses")
                return None
            # the key fingerprint was recorded at save time: it guards
            # against digest collisions and tampered/renamed entries.
            # (It intentionally is the *caller's* matrix fingerprint —
            # for non-float64 inputs this differs from the restored
            # solver's own float64 fingerprint, exactly as it does on
            # the compile path.)
            if header.get("key_fingerprint") != cache_key[0]:
                raise ValueError("stored entry belongs to a different key")
            payload = {"meta": header["payload"],
                       "arrays": _arrays(raw, start, header["arrays"])}
            solver = QSVTLinearSolver.from_payload(payload, **backend_options)
        except Exception:
            # foreign tag, truncated file, flipped bit, garbage header,
            # missing arrays, key mismatch, ... — the bytes themselves are
            # bad: quarantine the entry (rename, don't delete: the evidence
            # survives for forensics while every later lookup is a plain
            # miss instead of a repeated parse-and-fail) and recompile.
            self._count("corrupt", "misses")
            try:
                path.replace(path.with_name(path.name + ".corrupt"))
                quarantined = True
                self._count("corrupt_quarantined")
            except OSError:
                quarantined = False
                with contextlib.suppress(OSError):
                    path.unlink()
            if self.events is not None:
                trace = current_trace()
                self.events.emit(
                    "store_quarantine",
                    trace_id=None if trace is None else trace.trace_id,
                    entry=entry_key, path=str(path),
                    quarantined=quarantined)
            return None
        self._count("hits")
        if _entry is not None:
            _entry.append(raw)
        return solver

    def save(self, cache_key: tuple, solver: QSVTLinearSolver) -> bool:
        """Persist a compiled solver under ``cache_key``; returns success.

        Backends without payload export (the exact-inverse surrogate) and I/O
        failures both return ``False`` — persistence is an optimisation and
        must never fail a solve.  A ``PermissionError`` latches the store
        **read-only** (reported by :meth:`stats`): a store pointed at a
        read-only shared directory — the tiered-cache deployment where one
        warm directory is exported to a fleet — keeps serving reads while
        writes are skipped without paying a doomed serialisation each time.
        """
        if self._readonly:
            return False
        try:
            payload = solver.export_payload()
        except NotImplementedError:
            return False
        return self._write(cache_key, lambda: _encode(
            {"format_version": FORMAT_VERSION, "key_fingerprint": cache_key[0],
             "payload": payload["meta"]}, payload["arrays"]))

    def _write(self, cache_key: tuple, entry) -> bool:
        """Atomically write the bytes ``entry()`` returns (through the chaos
        hook) under ``cache_key``; the failure handling of :meth:`save`."""
        if self._readonly:
            return False
        try:
            data = entry()
            if self.chaos is not None:
                corrupted = self.chaos.corrupt_payload(data)
                if corrupted is not None:
                    data = corrupted
            atomic_write(self._entry_path(self.entry_key(cache_key)), data)
        except PermissionError:
            self._readonly = True
            self._count("errors")
            return False
        except Exception:
            self._count("errors")
            return False
        self._count("stores")
        return True

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def clear(self) -> int:
        """Delete every entry, format 2's ``.npz`` ones included; returns
        the number removed (counters kept)."""
        removed = 0
        for entry in self._entries((ENTRY_SUFFIX, ".npz")):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return len(self._entries())

    def disk_bytes(self) -> int:
        """Summed size of the stored entries on disk."""
        total = 0
        for entry in self._entries():
            try:
                total += entry.stat().st_size
            except OSError:
                pass
        return total

    def stats(self) -> dict:
        """Counter snapshot (hits, misses, stores, corrupt, errors).

        Deliberately counters-only: this is called on hot paths (per-job
        worker telemetry snapshots), so it must not touch the filesystem —
        use :meth:`__len__` / :meth:`disk_bytes` for on-disk size queries.
        """
        return {"path": str(self.path),
                **self._snapshot(("hits", "misses", "stores", "corrupt",
                                  "corrupt_quarantined", "errors")),
                "readonly": self._readonly}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        counts = self._snapshot(("hits", "misses", "stores"))
        return (f"SynthesisStore(path={str(self.path)!r}, hits={counts['hits']}, "
                f"misses={counts['misses']}, stores={counts['stores']})")


class TieredSynthesisStore(_Tally):
    """Two-level persistence: a node-local store backed by a shared directory.

    The serving tier's cache hierarchy is per-worker LRU → **node-local**
    :class:`SynthesisStore` → **shared** store directory (one warm directory
    exported to the whole fleet, possibly read-only).  This class is the
    disk half of that hierarchy and is a drop-in for the ``store=``
    parameter of :class:`~repro.engine.cache.CompiledSolverCache`:

    * :meth:`load` tries the local store first; on a local miss it consults
      the shared store and **promotes** a shared hit into the local store,
      so a cold worker warm-starts from whatever any node ever compiled and
      pays the shared-directory read once per entry;
    * :meth:`save` writes the local store always and the shared store
      best-effort — a read-only shared directory (``PermissionError``)
      degrades to local-only persistence instead of crashing, exactly the
      posture a fleet worker needs when only some nodes may publish.

    Both levels accept a path or a ready :class:`SynthesisStore`; ``shared``
    may be ``None`` (single-level, pure delegation).
    """

    def __init__(self, local: "SynthesisStore | str | os.PathLike",
                 shared: "SynthesisStore | str | os.PathLike | None" = None,
                 *, events=None) -> None:
        self.local = (local if isinstance(local, SynthesisStore)
                      else SynthesisStore(local))
        self.shared = (shared if isinstance(shared, SynthesisStore)
                       or shared is None else SynthesisStore(shared))
        if events is not None:
            self.local.events = events
            if self.shared is not None:
                self.shared.events = events
        super().__init__()

    #: the cache hands ``str(store.path)`` to process workers; the local
    #: level is the per-node location that makes sense to inherit.
    @property
    def path(self) -> pathlib.Path:
        return self.local.path

    # ------------------------------------------------------------------ #
    def load(self, cache_key: tuple, **backend_options) -> QSVTLinearSolver | None:
        """Tiered lookup: local store, then shared store (with promotion)."""
        solver = self.local.load(cache_key, **backend_options)
        if solver is not None:
            self._count("local_hits")
            return solver
        if self.shared is None:
            return None
        entry: list = []
        try:
            solver = self.shared.load(cache_key, _entry=entry,
                                      **backend_options)
        except PermissionError:
            # an unreadable shared directory must degrade to a local-only
            # store, never take the worker down (SynthesisStore.load already
            # absorbs most OSErrors; this guards pathological mounts).
            self._count("shared_denied")
            return None
        if solver is None:
            return None
        self._count("shared_hits")
        # promote the verified bytes as they are: no re-export, no re-encode
        if self.local._write(cache_key, lambda: entry[0]):
            self._count("promotions")
        return solver

    def save(self, cache_key: tuple, solver: QSVTLinearSolver) -> bool:
        """Persist locally (authoritative) and to the shared level best-effort."""
        saved = self.local.save(cache_key, solver)
        if self.shared is not None:
            try:
                self.shared.save(cache_key, solver)
            except PermissionError:  # pragma: no cover - save() already absorbs
                self._count("shared_denied")
        return saved

    # ------------------------------------------------------------------ #
    def clear(self) -> int:
        """Clear the local level only (the shared level is fleet property)."""
        return self.local.clear()

    def __len__(self) -> int:
        return len(self.local)

    def stats(self) -> dict:
        """Tier counters plus both levels' own snapshots."""
        tiered = self._snapshot(("local_hits", "shared_hits", "promotions",
                                 "shared_denied"))
        tiered["local"] = self.local.stats()
        tiered["shared"] = None if self.shared is None else self.shared.stats()
        return tiered

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TieredSynthesisStore(local={str(self.local.path)!r}, "
                f"shared={None if self.shared is None else str(self.shared.path)!r})")
