"""LRU cache of compiled QSVT solvers.

Algorithm 2 is compile-once / solve-many: the block-encoding, the Eq.-(4)
inverse polynomial and the QSP phase factors depend only on ``(A, ε_l)`` and
are reused across every refinement iteration.  A service that answers many
requests therefore wants one more level of reuse — across *requests*: two
solves against the same matrix at the same inner accuracy should share one
synthesis.  :class:`CompiledSolverCache` provides exactly that, keyed by

* the **matrix fingerprint** (:func:`repro.utils.matrix_fingerprint`, exact
  bytes — the same guard :class:`repro.core.qsvt_solver.QSVTLinearSolver`
  uses for staleness detection, so cache keys can never serve a mutated
  matrix),
* the inner accuracy ``ε_l``,
* the backend kind and its options.

Eviction is least-recently-used and **byte-accounted**: every entry's payload
(matrix bytes + compiled plan arrays + phases/SVD factors, via
:meth:`repro.core.qsvt_solver.QSVTLinearSolver.payload_bytes`) is tracked,
and a ``max_bytes`` budget evicts by memory footprint rather than entry
count (an entry-count cap ``maxsize`` remains available).  ``hits`` /
``misses`` / ``compiles`` counters and the byte totals make the reuse
observable through :meth:`CompiledSolverCache.stats` (the throughput
benchmark and the engine tests assert on them).  The cache is thread-safe
and is what :class:`repro.engine.runner.ScenarioRunner` threads and serving
workers consult before paying for a synthesis.

Two serving-layer extensions ride on the same keys:

* a **persistent store** (:class:`repro.engine.store.SynthesisStore`, the
  ``store`` parameter): an in-memory miss first tries to restore the
  compiled payload from disk — still a *miss* in the counters, but a
  ``store_hit`` instead of a ``compile`` — and every fresh compilation is
  spilled back, so new worker processes and repeated runs skip synthesis;
* a **precomputed fingerprint** (the ``fingerprint=`` argument): callers
  that already know the exact content hash — the shared-memory hand-off of
  :mod:`repro.engine.sharedmem` carries it in the segment handle — skip
  re-hashing the matrix bytes on every lookup.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..core.backends import QSVTBackend
from ..core.qsvt_solver import QSVTLinearSolver
from ..linalg.operators import is_structured_operator
from ..obs.metrics import MetricsRegistry
from ..obs.trace import span as obs_span
from ..utils import matrix_fingerprint

__all__ = ["CompiledSolverCache"]


class CompiledSolverCache:
    """Reuse compiled :class:`~repro.core.qsvt_solver.QSVTLinearSolver` objects.

    Parameters
    ----------
    maxsize:
        Maximum number of compiled solvers kept alive; the least recently
        used entry is evicted first.  ``None`` disables the entry-count cap.
    max_bytes:
        Memory budget for the summed entry payloads (matrix + compiled plan
        arrays).  While the total exceeds the budget, least-recently-used
        entries are evicted — except the most recent one, which is always
        kept so an oversized solver still caches.  ``None`` (default)
        disables byte accounting as an eviction trigger (sizes are still
        tracked and reported by :meth:`stats`).
    store:
        Optional :class:`repro.engine.store.SynthesisStore`.  When given,
        an in-memory miss first attempts a disk restore (counted as a
        ``store_hit``; no synthesis) and every fresh compilation is
        persisted, making compiled solvers survive process restarts.

    Examples
    --------
    >>> cache = CompiledSolverCache()
    >>> s1 = cache.solver(matrix, epsilon_l=1e-2, backend="circuit")  # compiles
    >>> s2 = cache.solver(matrix, epsilon_l=1e-2, backend="circuit")  # cache hit
    >>> s1 is s2, cache.stats()["compiles"]
    (True, 1)
    """

    def __init__(self, maxsize: int | None = 32,
                 max_bytes: int | None = None, store=None,
                 metrics=None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be >= 1 (or None for unbounded)")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None for unbounded)")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        # the registry series are the only counters stats() reads; a cache
        # built without a registry keeps a private one.
        metrics = MetricsRegistry() if metrics is None else metrics
        self._m_lookups = metrics.counter(
            "cache_lookups_total",
            "Compiled-solver cache lookups by result (hit / miss / store_hit)")
        self._m_compiles = metrics.counter(
            "cache_compiles_total", "Solver syntheses paid by the cache")
        self._m_evictions = metrics.counter(
            "cache_evictions_total", "Cache entries evicted (LRU/bytes)")
        #: optional :class:`repro.engine.store.SynthesisStore` consulted on
        #: in-memory misses and populated after fresh compilations.
        self.store = store
        self._entries: OrderedDict[tuple, QSVTLinearSolver] = OrderedDict()
        self._entry_bytes: dict[tuple, int] = {}
        self._total_bytes = 0
        self._lock = threading.Lock()
        #: per-key compile locks so concurrent misses for the *same* key wait
        #: for one synthesis instead of each paying for their own, while
        #: different keys still compile in parallel.
        self._compile_locks: dict[tuple, threading.Lock] = {}

    # ------------------------------------------------------------------ #
    @classmethod
    def _canonical_option(cls, value):
        """Deterministic, identity-free form of one backend option value.

        Cache keys must not depend on object identity (``repr`` of a numpy
        ``Generator`` embeds a memory address: equal configurations would
        never hit, and address reuse could collide different ones), so only
        plainly comparable values are accepted.
        """
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, (tuple, list)):
            return tuple(cls._canonical_option(item) for item in value)
        if isinstance(value, dict):
            return tuple(sorted((str(k), cls._canonical_option(v))
                                for k, v in value.items()))
        raise TypeError(
            f"backend option value {value!r} ({type(value).__name__}) cannot be "
            "used as a cache key; pass primitives (numbers, strings, tuples) or "
            "construct the QSVTLinearSolver directly instead of going through "
            "the cache")

    @classmethod
    def _key(cls, matrix, epsilon_l: float, backend, kappa, backend_options,
             *, fingerprint: str | None = None) -> tuple:
        if isinstance(backend, QSVTBackend):
            raise TypeError(
                "CompiledSolverCache requires the backend by *name* ('circuit', "
                "'ideal', 'exact', 'auto'); a backend instance carries state that "
                "cannot be shared safely across cache entries")
        options = tuple(sorted((str(k), cls._canonical_option(v))
                               for k, v in backend_options.items()))
        if fingerprint is None:
            fingerprint = matrix_fingerprint(matrix)
        return (fingerprint, float(epsilon_l), str(backend).lower(),
                None if kappa is None else float(kappa), options)

    # ------------------------------------------------------------------ #
    def solver(self, matrix, *, epsilon_l: float = 1e-2, backend: str = "auto",
               kappa: float | None = None, fingerprint: str | None = None,
               **backend_options) -> QSVTLinearSolver:
        """Return a compiled solver for ``(matrix, ε_l, backend)``, reusing one if cached.

        On a miss, a :class:`~repro.core.qsvt_solver.QSVTLinearSolver` is
        built (paying block-encoding + polynomial + phase synthesis) and
        stored; on a hit, the cached instance is returned untouched — zero
        re-synthesis.  When a persistent ``store`` is attached, a miss first
        tries a disk restore (no synthesis either; counted as a store hit)
        and a fresh compilation is written back.  The signature mirrors the
        solver constructor so the cache is a drop-in replacement for direct
        construction.

        ``fingerprint`` lets trusted callers pass the precomputed content
        hash of ``matrix`` (e.g. from a shared-memory segment handle, whose
        fingerprint was taken at publish time from the very same bytes) so
        the lookup skips re-hashing; passing a hash that does not match the
        bytes poisons the entry, exactly like handing the wrong matrix.

        The cached solver owns a *private copy* of the matrix: mutating the
        caller's array afterwards can therefore never poison the entry —
        requests presenting the original bytes keep hitting a solver whose
        matrix still matches them.  Every lookup is counted as exactly one
        hit or one miss, and a miss implies this call performed (or
        restored) the synthesis (concurrent misses for one key serialise on
        a per-key lock, so a burst of identical requests compiles once).
        """
        key = self._key(matrix, epsilon_l, backend, kappa, backend_options,
                        fingerprint=fingerprint)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self._m_lookups.inc(result="hit")
                return cached
            compile_lock = self._compile_locks.setdefault(key, threading.Lock())
        with compile_lock:
            # another thread may have finished the synthesis while we waited.
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self._m_lookups.inc(result="hit")
                    return cached
            self._m_lookups.inc(result="miss")
            # restore from the persistent store if one is attached: a store
            # hit installs a ready-made solver without any synthesis.
            if self.store is not None:
                with obs_span("store_lookup") as entry:
                    restored = self.store.load(key, **backend_options)
                    if entry is not None:
                        entry["attrs"]["hit"] = restored is not None
                if restored is not None:
                    self._install(key, restored, store_hit=True)
                    return restored
            # compile outside the global lock: synthesis can take seconds and
            # other keys must not serialise behind it.  The solver gets its
            # own copy of the matrix so later caller-side mutations cannot
            # reach the cached synthesis.  Only StructuredOperator instances
            # skip the copy: their read-only storage is a class guarantee,
            # which arbitrary matvec-shaped objects do not give.
            try:
                owned = (matrix if is_structured_operator(matrix)
                         else np.array(matrix, dtype=float, copy=True))
                with obs_span("compile", backend=str(backend),
                              epsilon_l=float(epsilon_l)):
                    solver = QSVTLinearSolver(owned,
                                              epsilon_l=epsilon_l,
                                              backend=backend,
                                              kappa=kappa, **backend_options)
            except BaseException:
                # failed syntheses must not leak their per-key lock (a stream
                # of failing requests would otherwise grow the map unboundedly)
                with self._lock:
                    self._compile_locks.pop(key, None)
                raise
            self._install(key, solver, store_hit=False)
            if self.store is not None:
                # persistence is best-effort: save() swallows I/O failures and
                # reports them in the store's own stats.
                self.store.save(key, solver)
        return solver

    def _install(self, key: tuple, solver: QSVTLinearSolver, *,
                 store_hit: bool) -> None:
        """Insert a freshly obtained solver and release its compile lock."""
        entry_bytes = self._payload_bytes(solver)
        if store_hit:
            self._m_lookups.inc(result="store_hit")
        else:
            self._m_compiles.inc()
        with self._lock:
            self._entries[key] = solver
            self._entries.move_to_end(key)
            self._entry_bytes[key] = entry_bytes
            self._total_bytes += entry_bytes
            self._compile_locks.pop(key, None)
            self._evict_locked()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _payload_bytes(solver) -> int:
        """Memory footprint of one cached entry (matrix + compiled artefacts)."""
        payload = getattr(solver, "payload_bytes", None)
        if callable(payload):
            return int(payload())
        matrix = getattr(solver, "matrix", None)
        return int(matrix.nbytes) if matrix is not None else 0

    def _drop_locked(self, key: tuple) -> None:
        del self._entries[key]
        self._total_bytes -= self._entry_bytes.pop(key, 0)

    def _evict_locked(self) -> None:
        """Enforce the entry-count cap, then the byte budget (LRU order).

        The byte budget never evicts the most recently used entry: a single
        solver bigger than ``max_bytes`` stays cached (evicting it would make
        the cache useless for exactly the workloads that need it most).
        """
        while self.maxsize is not None and len(self._entries) > self.maxsize:
            key = next(iter(self._entries))
            self._drop_locked(key)
            self._m_evictions.inc()
        if self.max_bytes is None:
            return
        while self._total_bytes > self.max_bytes and len(self._entries) > 1:
            key = next(iter(self._entries))
            self._drop_locked(key)
            self._m_evictions.inc()

    # ------------------------------------------------------------------ #
    def invalidate(self, matrix) -> int:
        """Drop every entry compiled for ``matrix`` (by fingerprint).

        Returns the number of entries removed.  Note that in-place mutation
        already changes the fingerprint and therefore the key — explicit
        invalidation is only needed to reclaim memory or force a re-synthesis
        of unchanged bytes.
        """
        fingerprint = matrix_fingerprint(matrix)
        with self._lock:
            stale = [key for key in self._entries if key[0] == fingerprint]
            for key in stale:
                self._drop_locked(key)
        return len(stale)

    def clear(self) -> None:
        """Drop every cached solver (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._entry_bytes.clear()
            self._total_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, matrix) -> bool:
        """Whether *any* entry was compiled for ``matrix`` (any ε_l/backend)."""
        fingerprint = matrix_fingerprint(matrix)
        with self._lock:
            return any(key[0] == fingerprint for key in self._entries)

    # ------------------------------------------------------------------ #
    @property
    def hits(self) -> int:
        """Lookups answered without synthesis."""
        return int(self._m_lookups.value(result="hit"))

    @property
    def misses(self) -> int:
        """Lookups that required a synthesis."""
        return int(self._m_lookups.value(result="miss"))

    @property
    def compiles(self) -> int:
        """Solver compilations performed on behalf of callers."""
        return int(self._m_compiles.value())

    @property
    def store_hits(self) -> int:
        """In-memory misses answered by the persistent store (no synthesis)."""
        return int(self._m_lookups.value(result="store_hit"))

    @property
    def total_bytes(self) -> int:
        """Summed payload bytes of the live entries."""
        with self._lock:
            return self._total_bytes

    def stats(self) -> dict:
        """Counter snapshot (hits, misses, compiles, store hits, evictions,
        size, bytes, hit rate; plus the attached store's own counters)."""
        with self._lock:
            size = len(self._entries)
            total_bytes = self._total_bytes
        hits, misses = self.hits, self.misses
        stats = {
            "hits": hits,
            "misses": misses,
            "compiles": self.compiles,
            "store_hits": self.store_hits,
            "evictions": int(self._m_evictions.value()),
            "size": size,
            "total_bytes": total_bytes,
            "max_bytes": self.max_bytes,
            "hit_rate": (hits / (hits + misses)) if hits + misses else 0.0,
        }
        if self.store is not None:
            stats["store"] = self.store.stats()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (f"CompiledSolverCache(size={stats['size']}, hits={stats['hits']}, "
                f"misses={stats['misses']}, compiles={stats['compiles']})")
