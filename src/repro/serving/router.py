"""Consistent-hash routing of matrix fingerprints onto workers.

The serving tier's whole performance story is cache heat: a worker that
repeatedly sees the *same* matrices answers from its compiled-solver LRU,
its node-local :class:`~repro.engine.store.SynthesisStore` and its attached
shared-memory segments, paying synthesis exactly once per matrix.  Routing
therefore must be **deterministic** (the same fingerprint always lands on
the same live worker, across processes and restarts) and **stable under
churn** (when a worker dies, only the fingerprints it owned move — the
survivors' caches stay hot).  Plain modulo hashing fails the second
property catastrophically: removing one of ``W`` workers remaps ``(W-1)/W``
of all keys.

:class:`HashRing` is the classic consistent-hashing construction: each
worker is hashed onto a ring at ``vnodes`` pseudo-random points (virtual
nodes, smoothing the arc sizes), and a fingerprint routes to the first
point clockwise from its own hash whose worker is *eligible*.  The ring
itself is fixed — built once from every worker id, since a respawn keeps
its id — and the caller passes the eligible set per walk.  Skipping an
ineligible worker's points is exactly a walk over a ring with those points
removed, so a worker leaving hands exactly its own arcs to the clockwise
successors, and its return restores the exact earlier placement.  Hashes
are SHA-256-derived — *never* Python's randomised ``hash()`` — so placement
agrees across interpreter runs, which is what lets a restarted front end
route onto a warm fleet.
"""

from __future__ import annotations

import bisect
import hashlib

from ..exceptions import WorkerUnavailableError

__all__ = ["HashRing", "DEFAULT_VNODES"]

#: virtual nodes per worker; 64 keeps the max/min arc ratio within ~2x for
#: small fleets while the ring stays a few hundred points.
DEFAULT_VNODES = 64


def _hash(token: str) -> int:
    """Stable 64-bit ring position of a string token (SHA-256 prefix)."""
    return int.from_bytes(hashlib.sha256(token.encode()).digest()[:8], "big")


class HashRing:
    """Deterministic fingerprint → worker placement with minimal churn.

    Parameters
    ----------
    workers:
        Every worker identifier (any strings; the serving tier uses
        ``"worker-0"``, ``"worker-1"``, ...).  Duplicates are an error.
    vnodes:
        Virtual nodes per worker.  More vnodes = smoother load split and
        finer-grained movement on removal, at ``O(W * vnodes)`` ring size.

    Immutable, so safe to share between threads; ``route`` is
    ``O(log(W * vnodes))`` plus the points it skips.

    Examples
    --------
    >>> ring = HashRing(["worker-0", "worker-1", "worker-2"])
    >>> owner = ring.route(fingerprint)
    >>> rest = set(ring.workers) - {owner}
    >>> ring.route(fingerprint, eligible=rest) in rest   # only owner's keys move
    True
    """

    def __init__(self, workers=(), *, vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        ids = [str(worker) for worker in workers]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate worker ids in {ids!r}")
        self.vnodes = int(vnodes)
        #: every worker id, sorted.
        self.workers = sorted(ids)
        self._all = frozenset(ids)
        #: sorted ring positions and the worker owning each position
        #: (parallel lists so ``bisect`` works on the positions directly).
        placed = sorted((_hash(f"{worker}#{index}"), worker)
                        for worker in ids for index in range(self.vnodes))
        self._points = [point for point, _ in placed]
        self._owners = [owner for _, owner in placed]

    def route(self, fingerprint: str, eligible=None) -> str:
        """The eligible worker owning ``fingerprint`` (see
        :meth:`route_replicas`)."""
        return self.route_replicas(fingerprint, 1, eligible)[0]

    def route_replicas(self, fingerprint: str, n: int,
                       eligible=None) -> list[str]:
        """The first ``n`` **distinct** eligible workers clockwise from the key.

        ``eligible`` is a set of worker ids (default: every worker).
        Element 0 is the primary (identical to :meth:`route`); the rest
        are the failover/hedge replicas in ring order.  When fewer than
        ``n`` eligible workers exist the list is simply shorter — a
        one-worker ring yields ``[worker]`` for any ``n >= 1``.  Raises
        ``ValueError`` for ``n < 1`` and
        :class:`~repro.exceptions.WorkerUnavailableError` when no worker
        on the ring is eligible.
        """
        if n < 1:
            raise ValueError("replica count must be >= 1")
        if eligible is None:
            eligible = self._all
        replicas: list[str] = []
        start = bisect.bisect_right(self._points, _hash(str(fingerprint)))
        total = len(self._owners)
        for step in range(total):
            owner = self._owners[(start + step) % total]
            if owner in eligible and owner not in replicas:
                replicas.append(owner)
                if len(replicas) == n:
                    break
        if not replicas:
            raise WorkerUnavailableError(
                "no eligible worker on the hash ring: every worker is "
                "retired or draining")
        return replicas

    def arc_shares(self, members=None) -> dict[str, float]:
        """Fraction of the key space each member owns (sums to 1.0).

        ``members`` is the set of workers whose arcs count (default:
        every worker) — the exact expected load split under uniformly
        distributed fingerprints, the telemetry hook for spotting
        imbalanced rings (too few vnodes, pathological ids).
        """
        members = self._all if members is None else self._all & set(members)
        if len(members) <= 1:
            # exact by construction; skips float accumulation error
            return dict.fromkeys(members, 1.0)
        points = [(point, owner) for point, owner
                  in zip(self._points, self._owners) if owner in members]
        shares = dict.fromkeys(members, 0.0)
        span = float(2 ** 64)
        for index, (point, owner) in enumerate(points):
            previous = points[index - 1][0] if index else (
                points[-1][0] - 2 ** 64)
            shares[owner] += (point - previous) / span
        return shares

    def stats(self, members=None, draining=()) -> dict:
        """Snapshot: members, vnodes, drain state and arc-share split."""
        shares = self.arc_shares(members)
        return {
            "workers": sorted(shares),
            "draining": sorted(draining),
            "vnodes": self.vnodes,
            "points": len(shares) * self.vnodes,
            "arc_shares": shares,
            "max_arc_share": max(shares.values()) if shares else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"HashRing(workers={len(self.workers)}, "
                f"vnodes={self.vnodes})")
