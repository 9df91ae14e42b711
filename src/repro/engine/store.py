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
* one ``<sha256(key)>.npz`` file per entry, containing the payload arrays
  plus a JSON ``__meta__`` record with a **format version** — entries written
  by an incompatible version of the code are treated as misses, never as
  errors;
* writes are **atomic**: the archive is serialised to a temporary file in the
  store directory and ``os.replace``-d into place, so readers (including
  concurrent worker processes) only ever observe complete entries;
* loads are **corruption-safe**: any failure to read, parse or restore an
  entry (truncated file, garbage bytes, fingerprint mismatch) **quarantines**
  the bad entry — it is renamed to ``<entry>.corrupt`` (kept for forensics,
  invisible to later lookups), counted in :meth:`stats` under
  ``corrupt_quarantined``, and the caller falls back to recompilation, whose
  result overwrites the slot with a fresh entry.  A poisoned store can cost
  time, never correctness — and never costs that time *twice* for one entry.

The default location is ``~/.cache/repro/synthesis`` (respecting
``XDG_CACHE_HOME``); set the ``REPRO_SYNTHESIS_STORE`` environment variable
to relocate it without touching code.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import threading

import numpy as np

from ..core.qsvt_solver import QSVTLinearSolver
from ..obs.trace import current_trace
from ..utils import atomic_write

__all__ = ["SynthesisStore", "TieredSynthesisStore", "default_store_path",
           "FORMAT_VERSION"]

#: bump when the payload layout changes; mismatched entries are plain misses.
#: (2: compiled QSVT programs record whether their ``-θ`` run is
#: conjugate-derived.)
FORMAT_VERSION = 2

#: environment variable overriding the default on-disk location.
STORE_ENV_VAR = "REPRO_SYNTHESIS_STORE"


def default_store_path() -> pathlib.Path:
    """Resolve the store directory: env override, then the user cache dir."""
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return pathlib.Path(env).expanduser()
    base = os.environ.get("XDG_CACHE_HOME")
    root = pathlib.Path(base).expanduser() if base else pathlib.Path.home() / ".cache"
    return root / "repro" / "synthesis"


class SynthesisStore:
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
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._corrupt = 0
        self._corrupt_quarantined = 0
        self._errors = 0
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
        return self.path / f"{entry_key}.npz"

    # ------------------------------------------------------------------ #
    # load / save
    # ------------------------------------------------------------------ #
    def load(self, cache_key: tuple, **backend_options) -> QSVTLinearSolver | None:
        """Restore the solver stored under ``cache_key``; ``None`` on a miss.

        ``backend_options`` are forwarded to the restored backend's
        constructor (they are part of the key, so a stored entry always
        matches the options it was compiled with).  Failure handling is
        split by what the failure means for the entry: transient I/O errors
        (permissions, descriptor exhaustion, interrupted reads) are plain
        misses that *leave the entry alone*; only content that cannot be
        parsed — or whose recorded key fingerprint disagrees with the
        requested key — is deleted and counted as corrupt.  A format-version
        mismatch is a miss that leaves the entry in place (another
        interpreter may still read it).
        """
        entry_key = self.entry_key(cache_key)
        path = self._entry_path(entry_key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            with self._lock:
                self._misses += 1
            return None
        except OSError:
            # transient filesystem trouble is not evidence against the entry
            with self._lock:
                self._errors += 1
                self._misses += 1
            return None
        try:
            with np.load(io.BytesIO(raw), allow_pickle=False) as npz:
                header = json.loads(str(npz["__meta__"][()]))
                if header.get("format_version") != FORMAT_VERSION:
                    with self._lock:
                        self._misses += 1
                    return None
                # the key fingerprint was recorded at save time: it guards
                # against digest collisions and tampered/renamed entries.
                # (It intentionally is the *caller's* matrix fingerprint —
                # for non-float64 inputs this differs from the restored
                # solver's own float64 fingerprint, exactly as it does on
                # the compile path.)
                if header.get("key_fingerprint") != cache_key[0]:
                    raise ValueError("stored entry belongs to a different key")
                payload = {
                    "meta": header["payload"],
                    "arrays": {name: npz[name] for name in npz.files
                               if name != "__meta__"},
                }
            solver = QSVTLinearSolver.from_payload(payload, **backend_options)
        except Exception:
            # truncated archive, garbage bytes, missing arrays, key
            # mismatch, ... — the bytes themselves are bad: quarantine the
            # entry (rename, don't delete: the evidence survives for
            # forensics while every later lookup is a plain miss instead of
            # a repeated parse-and-fail) and recompile.
            with self._lock:
                self._corrupt += 1
                self._misses += 1
            quarantined = False
            try:
                path.replace(path.with_name(path.name + ".corrupt"))
                quarantined = True
            except OSError:
                try:
                    path.unlink()
                except OSError:
                    pass
            if quarantined:
                with self._lock:
                    self._corrupt_quarantined += 1
            if self.events is not None:
                trace = current_trace()
                self.events.emit(
                    "store_quarantine",
                    trace_id=None if trace is None else trace.trace_id,
                    entry=entry_key, path=str(path),
                    quarantined=quarantined)
            return None
        with self._lock:
            self._hits += 1
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
        entry_key = self.entry_key(cache_key)
        try:
            buffer = io.BytesIO()
            np.savez(buffer,
                     __meta__=json.dumps({"format_version": FORMAT_VERSION,
                                          "key_fingerprint": cache_key[0],
                                          "payload": payload["meta"]}),
                     **payload["arrays"])
            data = buffer.getvalue()
            if self.chaos is not None:
                corrupted = self.chaos.corrupt_payload(data)
                if corrupted is not None:
                    data = corrupted
            atomic_write(self._entry_path(entry_key), data)
        except PermissionError:
            with self._lock:
                self._errors += 1
                self._readonly = True
            return False
        except Exception:
            with self._lock:
                self._errors += 1
            return False
        with self._lock:
            self._stores += 1
        return True

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def clear(self) -> int:
        """Delete every entry; returns the number removed (counters kept)."""
        removed = 0
        if self.path.is_dir():
            for entry in self.path.glob("*.npz"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.path.is_dir():
            return 0
        return sum(1 for _ in self.path.glob("*.npz"))

    def disk_bytes(self) -> int:
        """Summed size of the stored entries on disk."""
        if not self.path.is_dir():
            return 0
        total = 0
        for entry in self.path.glob("*.npz"):
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
        with self._lock:
            return {
                "path": str(self.path),
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "corrupt": self._corrupt,
                "corrupt_quarantined": self._corrupt_quarantined,
                "errors": self._errors,
                "readonly": self._readonly,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SynthesisStore(path={str(self.path)!r}, hits={self._hits}, "
                f"misses={self._misses}, stores={self._stores})")


class TieredSynthesisStore:
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
        self._lock = threading.Lock()
        self._local_hits = 0
        self._shared_hits = 0
        self._promotions = 0
        self._shared_denied = 0

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
            with self._lock:
                self._local_hits += 1
            return solver
        if self.shared is None:
            return None
        try:
            solver = self.shared.load(cache_key, **backend_options)
        except PermissionError:
            # an unreadable shared directory must degrade to a local-only
            # store, never take the worker down (SynthesisStore.load already
            # absorbs most OSErrors; this guards pathological mounts).
            with self._lock:
                self._shared_denied += 1
            return None
        if solver is None:
            return None
        with self._lock:
            self._shared_hits += 1
        if self.local.save(cache_key, solver):
            with self._lock:
                self._promotions += 1
        return solver

    def save(self, cache_key: tuple, solver: QSVTLinearSolver) -> bool:
        """Persist locally (authoritative) and to the shared level best-effort."""
        saved = self.local.save(cache_key, solver)
        if self.shared is not None:
            try:
                self.shared.save(cache_key, solver)
            except PermissionError:  # pragma: no cover - save() already absorbs
                with self._lock:
                    self._shared_denied += 1
        return saved

    # ------------------------------------------------------------------ #
    def clear(self) -> int:
        """Clear the local level only (the shared level is fleet property)."""
        return self.local.clear()

    def __len__(self) -> int:
        return len(self.local)

    def stats(self) -> dict:
        """Tier counters plus both levels' own snapshots."""
        with self._lock:
            tiered = {
                "local_hits": self._local_hits,
                "shared_hits": self._shared_hits,
                "promotions": self._promotions,
                "shared_denied": self._shared_denied,
            }
        tiered["local"] = self.local.stats()
        tiered["shared"] = None if self.shared is None else self.shared.stats()
        return tiered

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TieredSynthesisStore(local={str(self.local.path)!r}, "
                f"shared={None if self.shared is None else str(self.shared.path)!r})")
