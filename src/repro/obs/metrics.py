"""Process-local metrics registry with mergeable snapshots.

Every counter in the serving stack lives here and nowhere else: the
``stats()`` dicts of the cache, admission controller, engine, front end and
workers keep their keys (they are API) but *read* them from a
:class:`MetricsRegistry` of typed primitives, so ``stats()``, ``/metrics``
and the benchmarks report one number.  The primitives:

* :class:`Counter` — monotonically increasing totals (requests, sheds,
  deaths, cache hits);
* :class:`Gauge` — instantaneous values (queue depth, live workers);
* :class:`Histogram` — duration distributions, backed by
  :class:`~repro.utils.timing.LatencyHistogram` so percentiles merge across
  processes.

Each metric supports **labels** (``counter.inc(outcome="ok")``), giving one
metric family many series.  The payoff over bare dicts is the **snapshot
format**: :meth:`MetricsRegistry.snapshot` emits a picklable/JSON-able dict
that workers ship to the front end over the existing stats-probe path, and
:func:`merge_snapshots` folds any number of those into one cluster view —
counters add, gauges add (ship them pre-labelled per worker via
:func:`relabel_snapshot` when summing is wrong), histograms merge their
sample windows so the cluster p99 is computed from *all* samples rather
than averaged per-worker percentiles.

:func:`render_prometheus` serialises a snapshot into the Prometheus text
exposition format (``text/plain; version=0.0.4``) for ``GET /metrics`` on
:class:`~repro.serving.frontend.ServingHTTPServer`; histograms render as
summaries (``quantile="0.5|0.9|0.99"`` plus ``_count``/``_sum``).
"""

from __future__ import annotations

import re
import threading

from ..utils import LatencyHistogram

__all__ = ["MetricsRegistry", "Counter", "Gauge", "Histogram",
           "merge_snapshots", "relabel_snapshot", "render_prometheus"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _label_key(labels: dict) -> tuple:
    """Canonical, hashable form of one series' label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared plumbing: one named family holding labelled series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: dict[tuple, object] = {}

    def _validate_labels(self, labels: dict) -> None:
        for key in labels:
            if not _LABEL_RE.match(str(key)):
                raise ValueError(f"invalid label name {key!r}")

    def series(self) -> dict:
        """``{label_key: value}`` snapshot of every live series."""
        with self._lock:
            return dict(self._series)

    def snapshot(self) -> dict:
        return {"type": self.kind, "help": self.help,
                "series": {key: self._export(value)
                           for key, value in self.series().items()}}

    @staticmethod
    def _export(value):
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, series={len(self._series)})"


class Counter(_Metric):
    """Monotonically increasing total, optionally labelled.

    Examples
    --------
    >>> requests = registry.counter("requests_total", "requests seen")
    >>> requests.inc(outcome="ok")
    >>> requests.value(outcome="ok")
    1.0
    """

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._validate_labels(labels)
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(amount)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def total(self) -> float:
        """Sum over every labelled series of this family."""
        with self._lock:
            return float(sum(self._series.values()))


class Gauge(_Metric):
    """Instantaneous value that can move both ways."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._validate_labels(labels)
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        self._validate_labels(labels)
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(amount)

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))


class Histogram(_Metric):
    """Duration distribution; one :class:`LatencyHistogram` per series.

    ``observe`` records seconds; a series' snapshot is the underlying
    histogram's :meth:`~repro.utils.timing.LatencyHistogram.state`, which is
    exactly the payload :func:`merge_snapshots` folds across workers.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", *, window: int = 2048):
        super().__init__(name, help)
        self.window = int(window)

    def observe(self, seconds: float, **labels) -> None:
        self.labelled(**labels).record(seconds)

    def labelled(self, **labels) -> LatencyHistogram:
        """The underlying per-series histogram (created on first use)."""
        self._validate_labels(labels)
        key = _label_key(labels)
        with self._lock:
            histogram = self._series.get(key)
            if histogram is None:
                histogram = LatencyHistogram(window=self.window)
                self._series[key] = histogram
            return histogram

    def summary(self, **labels) -> dict:
        return self.labelled(**labels).summary()

    @staticmethod
    def _export(value):
        return value.state()


class MetricsRegistry:
    """Named collection of metric families with one mergeable snapshot.

    Parameters
    ----------
    namespace:
        Prefix prepended (``<namespace>_``) to every metric name, keeping
        worker- and cluster-level registries collision-free in one scrape.

    Re-requesting a name returns the existing family (so modules can declare
    their metrics idempotently); re-requesting it as a *different* type is a
    bug and raises.
    """

    def __init__(self, *, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # ------------------------------------------------------------------ #
    def _register(self, cls, name: str, help: str, **kwargs):
        full = f"{self.namespace}_{name}" if self.namespace else name
        with self._lock:
            metric = self._metrics.get(full)
            if metric is not None:
                if not isinstance(metric, cls):
                    raise TypeError(
                        f"metric {full!r} already registered as {metric.kind}")
                return metric
            metric = cls(full, help, **kwargs)
            self._metrics[full] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(self, name: str, help: str = "", *,
                  window: int = 2048) -> Histogram:
        return self._register(Histogram, name, help, window=window)

    def get(self, name: str) -> _Metric | None:
        full = f"{self.namespace}_{name}" if self.namespace else name
        with self._lock:
            return self._metrics.get(full)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Picklable ``{metric_name: {type, help, series}}`` snapshot.

        Series keys are label tuples (``(("worker", "worker-0"),)``);
        histogram series carry their full mergeable state.  This is the
        wire format workers ship over the stats-probe path.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        return {metric.name: metric.snapshot() for metric in metrics}

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MetricsRegistry(namespace={self.namespace!r}, "
                f"metrics={len(self)})")


# ---------------------------------------------------------------------- #
# snapshot algebra
# ---------------------------------------------------------------------- #
def relabel_snapshot(snapshot: dict, **labels) -> dict:
    """Copy of ``snapshot`` with ``labels`` added to every series.

    The front end stamps each worker snapshot with ``worker=<id>`` before
    merging, so per-worker series stay distinguishable (and gauges never
    collide) in the cluster view.
    """
    extra = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
    relabelled = {}
    for name, family in snapshot.items():
        series = {}
        for key, value in family["series"].items():
            merged_labels = dict(key)
            merged_labels.update(extra)
            series[tuple(sorted(merged_labels.items()))] = value
        relabelled[name] = {"type": family["type"], "help": family["help"],
                            "series": series}
    return relabelled


def merge_snapshots(snapshots) -> dict:
    """Fold an iterable of registry snapshots into one.

    Counters and gauges with identical (name, labels) add; histogram states
    merge through :meth:`LatencyHistogram.merge`, so percentiles of the
    merged snapshot are computed over the union of the sample windows.
    """
    merged: dict[str, dict] = {}
    for snapshot in snapshots:
        for name, family in snapshot.items():
            target = merged.setdefault(
                name, {"type": family["type"], "help": family["help"],
                       "series": {}})
            if target["type"] != family["type"]:
                raise TypeError(f"metric {name!r} merged across types "
                                f"({target['type']} vs {family['type']})")
            for key, value in family["series"].items():
                existing = target["series"].get(key)
                if existing is None:
                    target["series"][key] = (dict(value) if family["type"] == "histogram"
                                             else value)
                elif family["type"] == "histogram":
                    target["series"][key] = (LatencyHistogram.from_state(existing)
                                             .merge(value).state())
                else:
                    target["series"][key] = existing + value
    return merged


def _format_labels(key: tuple) -> str:
    if not key:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in key)
    return "{" + body + "}"


def _escape(value) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(snapshot: dict) -> str:
    """Prometheus text exposition (``text/plain; version=0.0.4``) of a snapshot.

    Counters/gauges render natively; histograms render as summaries with
    ``quantile`` labels (0.5/0.9/0.99) plus ``_count`` and ``_sum`` series,
    all computed from the merged sample windows.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family["type"]
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape(family['help'])}")
        lines.append(f"# TYPE {name} {'summary' if kind == 'histogram' else kind}")
        for key in sorted(family["series"]):
            value = family["series"][key]
            if kind == "histogram":
                summary = LatencyHistogram.from_state(value).summary()
                for quantile, field in (("0.5", "p50"), ("0.9", "p90"),
                                        ("0.99", "p99")):
                    labels = _format_labels(key + (("quantile", quantile),))
                    lines.append(f"{name}{labels} "
                                 f"{_format_value(summary[field])}")
                labels = _format_labels(key)
                lines.append(f"{name}_count{labels} {int(value['count'])}")
                lines.append(f"{name}_sum{labels} "
                             f"{_format_value(value['total'])}")
            else:
                lines.append(f"{name}{_format_labels(key)} "
                             f"{_format_value(value)}")
    return "\n".join(lines) + "\n"
