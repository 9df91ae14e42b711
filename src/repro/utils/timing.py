"""Wall-clock timing helpers: the :class:`Timer` context manager and the
:class:`LatencyHistogram` percentile tracker shared by the serving tier.

Every layer that reports request latencies — the serving-tier workers'
coalesced sweeps, the cluster front end, the cluster benchmark — records
into a :class:`LatencyHistogram` and reads p50/p90/p99 from its
:meth:`~LatencyHistogram.summary`, so percentiles are computed in exactly
one place instead of being re-derived per consumer.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Timer", "LatencyHistogram"]


@dataclass
class Timer:
    """Context manager measuring elapsed wall-clock time.

    Examples
    --------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    #: elapsed seconds, populated when the ``with`` block exits.
    elapsed: float = 0.0
    _start: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self._start

    def restart(self) -> None:
        """Reset the start time (useful when reusing one instance in a loop)."""
        self._start = time.perf_counter()
        self.elapsed = 0.0


class LatencyHistogram:
    """Thread-safe duration tracker with percentile summaries.

    Samples are kept in a bounded sliding window (the most recent
    ``window`` observations) so a long-running service reports *current*
    tail latency rather than an all-of-history average, while the running
    ``count`` / ``total`` cover everything ever recorded.  Memory is
    ``O(window)`` regardless of traffic volume.

    Histograms from different processes aggregate: a worker ships
    :meth:`state` in its telemetry snapshot, and the front end folds the
    states together with :meth:`merge` (or :meth:`merged`) to read one
    *cluster-wide* p99 instead of W incomparable per-worker percentiles.

    Examples
    --------
    >>> histogram = LatencyHistogram()
    >>> for ms in (1, 2, 3, 4, 100):
    ...     histogram.record(ms / 1000.0)
    >>> histogram.summary()["count"]
    5
    >>> histogram.percentile(50) <= histogram.percentile(99)
    True
    """

    def __init__(self, window: int = 8192) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self._samples: deque[float] = deque(maxlen=int(window))
        self._lock = threading.Lock()
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        #: memoised :meth:`summary` result, dropped on every mutation —
        #: telemetry polls (stats probes, /metrics scrapes) between records
        #: re-read a dict instead of re-running ``np.percentile``.
        self._summary_cache: dict | None = None

    def record(self, seconds: float) -> None:
        """Add one observed duration (in seconds)."""
        value = float(seconds)
        with self._lock:
            self._samples.append(value)
            self._count += 1
            self._total += value
            if value > self._max:
                self._max = value
            self._summary_cache = None

    # ------------------------------------------------------------------ #
    # cross-process aggregation
    # ------------------------------------------------------------------ #
    def state(self) -> dict:
        """Serialisable snapshot (counters + window samples) for merging.

        The payload is plain JSON-able python (floats and lists), so it can
        ride a worker's telemetry snapshot across a process boundary and be
        folded into a cluster-wide histogram with :meth:`merge`.
        """
        with self._lock:
            return {"count": self._count, "total": self._total,
                    "max": self._max, "window": self._samples.maxlen,
                    "samples": list(self._samples)}

    @classmethod
    def from_state(cls, state: dict) -> "LatencyHistogram":
        """Rebuild a histogram from a :meth:`state` payload."""
        histogram = cls(window=int(state.get("window") or 8192))
        histogram._count = int(state["count"])
        histogram._total = float(state["total"])
        histogram._max = float(state["max"])
        histogram._samples.extend(float(v) for v in state["samples"])
        return histogram

    def merge(self, other: "LatencyHistogram | dict") -> "LatencyHistogram":
        """Fold another histogram (or its :meth:`state`) into this one.

        Lifetime counters add; the sample windows concatenate, the window
        growing as needed so merging W full worker windows never silently
        drops the samples a cluster-wide p99 is computed from.  Returns
        ``self`` so merges chain.
        """
        state = other.state() if isinstance(other, LatencyHistogram) else other
        with self._lock:
            needed = len(self._samples) + len(state["samples"])
            if self._samples.maxlen is not None and needed > self._samples.maxlen:
                self._samples = deque(self._samples, maxlen=needed)
            self._samples.extend(float(v) for v in state["samples"])
            self._count += int(state["count"])
            self._total += float(state["total"])
            self._max = max(self._max, float(state["max"]))
            self._summary_cache = None
        return self

    @classmethod
    def merged(cls, states) -> "LatencyHistogram":
        """One histogram folding an iterable of histograms/state payloads."""
        merged = cls()
        for state in states:
            merged.merge(state)
        return merged

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) over the sample window; 0.0 empty."""
        with self._lock:
            if not self._samples:
                return 0.0
            samples = np.fromiter(self._samples, dtype=float)
        return float(np.percentile(samples, q))

    @property
    def count(self) -> int:
        """Observations recorded over the histogram's lifetime."""
        with self._lock:
            return self._count

    def summary(self) -> dict:
        """One-stop snapshot: count, mean, p50/p90/p99, max (seconds).

        ``p50``/``p90``/``p99`` cover the sliding window (current behaviour);
        ``count`` / ``mean`` / ``max`` cover the full lifetime.  The result
        is memoised until the next :meth:`record`/:meth:`merge`, so polling
        telemetry between requests costs a dict copy, not a percentile sort.
        """
        with self._lock:
            if self._summary_cache is not None:
                return dict(self._summary_cache)
            count = self._count
            total = self._total
            maximum = self._max
            samples = (np.fromiter(self._samples, dtype=float)
                       if self._samples else None)
        if samples is None:
            summary = {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                       "p99": 0.0, "max": 0.0}
        else:
            p50, p90, p99 = (float(v) for v
                             in np.percentile(samples, (50, 90, 99)))
            summary = {"count": count, "mean": total / count, "p50": p50,
                       "p90": p90, "p99": p99, "max": maximum}
        with self._lock:
            # only memoise if no record() slipped in while computing.
            if self._summary_cache is None and self._count == count:
                self._summary_cache = summary
        return dict(summary)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.summary()
        return (f"LatencyHistogram(count={stats['count']}, "
                f"p50={stats['p50']:.6f}, p99={stats['p99']:.6f})")
