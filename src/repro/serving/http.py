"""Minimal stdlib HTTP/JSON surface over a :class:`~repro.serving.frontend.ClusterEngine`."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..exceptions import (
    AdmissionError,
    ReproError,
    SolveTimeoutError,
    WorkerUnavailableError,
)

__all__ = ["ServingHTTPServer"]

#: a failed solve's exception type -> (HTTP status, retriable); the first
#: row the exception is an instance of wins, so subclasses come first.
_ERROR_STATUS = (
    # includes CircuitOpenError: the service, not the client, is the
    # problem — retriable, the supervisor is healing.
    (WorkerUnavailableError, 503, True),
    (AdmissionError, 429, True),
    (SolveTimeoutError, 504, True),
    (ReproError, 400, False),
    # a request argument submit() rejects (a negative deadline, ...)
    (ValueError, 400, False),
    (Exception, 500, False),  # no 500-by-traceback
)


def _jsonable(value):
    """Recursively convert numpy containers/scalars to JSON-safe values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class ServingHTTPServer:
    """Minimal stdlib HTTP/JSON surface over a :class:`ClusterEngine`.

    Endpoints::

        POST /solve    {"matrix": [[...]], "rhs": [...],
                        "epsilon_l"?, "backend"?, "kappa"?,
                        "tenant"?, "deadline"?}
                       → 200 {"x": [...], "scaled_residual": ...,
                              "degraded": false, ...}
                       → 429 admission rejection (Retry-After set when known)
                       → 503 no worker available / breaker open (retriable;
                              Retry-After carries the half-open countdown)
                       → 504 deadline expired
                       → 400 malformed body or argument (a non-numeric or
                              negative deadline, ...), or a solve-level
                              failure (singular matrix, ...)
        GET  /stats    → 200 cluster stats snapshot
        GET  /healthz  → 200 {"ok": true, "workers_alive": W,
                              "worker_deaths": D, "restarts": R,
                              "uptime_s": ..., "metrics_snapshot_age_s":
                              {...}, "event_log": {"lag_s": ...}}
        GET  /metrics  → 200 Prometheus text format 0.0.4 (cluster-merged)
        GET  /trace    → 200 tracer stats (ring occupancy, slow log)
        GET  /trace/ID → 200 finished span tree for one request / 404

    Rejections are **bodies, not exceptions**: every response carries
    ``{"error", "message", "retriable"}`` so clients can retry on
    ``retriable: true`` without parsing prose.  Bind to port 0 to let the
    OS pick (see :attr:`address`); the server runs on daemon threads and
    stops with :meth:`close`.
    """

    def __init__(self, engine, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.engine = engine
        handler = _make_handler(engine)
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-serving-http", daemon=True)
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves here)."""
        return self._server.server_address[:2]

    def close(self) -> None:
        """Stop accepting requests and join the accept loop."""
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=2.0)

    def __enter__(self) -> "ServingHTTPServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _make_handler(engine):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):  # silence per-request stderr noise
            pass

        def _reply(self, status: int, body, headers: dict | None = None, *,
                   content_type: str = "application/json") -> None:
            """Send ``body``: a dict as JSON, a string as is."""
            data = (body if isinstance(body, str)
                    else json.dumps(_jsonable(body))).encode()
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)

        def _reply_error(self, status: int, exc: BaseException,
                         retriable: bool) -> None:
            retry_after = getattr(exc, "retry_after", None)
            self._reply(status, {"error": type(exc).__name__,
                                 "message": str(exc), "retriable": retriable},
                        None if retry_after is None
                        else {"Retry-After": f"{retry_after:.3f}"})

        def do_GET(self):
            if self.path == "/healthz":
                self._reply(200, engine.healthz())
            elif self.path == "/stats":
                self._reply(200, engine.stats())
            elif self.path == "/metrics":
                # the version suffix is the Prometheus text-exposition
                # contract; scrapers key parsing off it.
                self._reply(200, engine.prometheus_metrics(),
                            content_type="text/plain; version=0.0.4")
            elif self.path == "/trace" or self.path == "/trace/":
                self._reply(200, engine.observability.tracer.stats())
            elif self.path.startswith("/trace/"):
                trace_id = self.path[len("/trace/"):]
                record = engine.trace(trace_id)
                if record is None:
                    self._reply(404, {"error": "TraceNotFound",
                                      "message": trace_id,
                                      "retriable": False})
                else:
                    self._reply(200, record)
            else:
                self._reply(404, {"error": "NotFound", "message": self.path,
                                  "retriable": False})

        def do_POST(self):
            if self.path != "/solve":
                self._reply(404, {"error": "NotFound", "message": self.path,
                                  "retriable": False})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                request = json.loads(self.rfile.read(length) or b"{}")
                matrix = np.array(request["matrix"], dtype=float)
                rhs = np.array(request["rhs"], dtype=float)
                kwargs = {key: float(request[key]) for key
                          in ("epsilon_l", "kappa", "deadline")
                          if request.get(key) is not None}
                kwargs.update({key: request[key] for key in ("backend", "tenant")
                               if request.get(key) is not None})
            except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
                self._reply_error(400, exc, False)
                return
            try:
                future = engine.submit(matrix, rhs, **kwargs)
                record = future.result()
            except Exception as exc:  # noqa: BLE001 - mapped by _ERROR_STATUS
                status, retriable = next(
                    (status, retriable) for exc_type, status, retriable
                    in _ERROR_STATUS if isinstance(exc, exc_type))
                self._reply_error(status, exc, retriable)
                return
            self._reply(200, {
                "x": record.x,
                "scaled_residual": record.scaled_residual,
                "scale": record.scale,
                "block_encoding_calls": record.block_encoding_calls,
                "polynomial_degree": record.polynomial_degree,
                "wall_time": record.wall_time,
                "worker": future.worker_id,
                "degraded": record.degraded,
                "trace_id": getattr(future, "trace_id", None),
            })

    return Handler
