"""Telemetry HTTP server: live scrape endpoints over a telemetry session.

Everything else in :mod:`repro.obs` is offline — metrics and spans land in
JSONL files and are read post-hoc.  This module is the *live* plane: a
stdlib-only :class:`http.server.ThreadingHTTPServer` that exposes one
running :class:`~repro.obs.Telemetry` session to scrapers:

============  ========================================================
``/metrics``  Prometheus text exposition (``MetricsRegistry.to_prometheus``)
``/health``   liveness: 200 + uptime while the server thread runs
``/ready``    readiness: every check passes → 200, else 503 (JSON detail)
``/alerts``   recent :class:`~repro.obs.alerts.AlertEngine` firings (JSON)
``/trace``    tail of recently completed spans (bounded ring buffer)
``/profile``  collapsed stacks when the sampling profiler is armed
============  ========================================================

Readiness is pluggable: a check is a named zero-arg callable returning
``True``/``False`` or ``(ok, detail)``.  The built-in check derived from
the session's alert engine reports not-ready while a critical alert fired
within the last ``alert_cooldown_seconds`` — the 503 recovers on its own
once the breach stops re-firing.

Concurrency: handler threads only ever *read* session state through the
same per-metric / engine locks the trainer writes under, so scrapes are
safe against concurrent mutation.  The handler-thread count is bounded by
a semaphore (acquired before a connection thread spawns, released when it
finishes), so a scrape storm cannot grow threads without bound.

Cost when idle: attaching a server adds **zero** per-instrumentation-site
overhead — hot paths still pay only their ``ContextVar.get`` guard.  The
span ring buffer behind ``/trace`` follows the PR 9 discipline: off by
default, reference-counted on server start/stop, one module-global check
per span finish while enabled.

Thread creation here is deliberate and lint-sanctioned (RN011) alongside
:mod:`repro.obs.profiler`.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .metrics import validate_exposition
from .tracing import disable_span_ring, enable_span_ring, span_ring_snapshot

__all__ = [
    "TelemetryServer",
    "ReadinessCheck",
    "alert_readiness_check",
    "DEFAULT_ALERT_COOLDOWN_SECONDS",
    "DEFAULT_MAX_HANDLER_THREADS",
    "DEFAULT_TRACE_CAPACITY",
]

#: How long ``/ready`` stays 503 after a critical alert fires.  Matches
#: the spirit of rule cooldowns: a breach that stops re-firing becomes
#: ready again without operator action.
DEFAULT_ALERT_COOLDOWN_SECONDS = 30.0

#: Upper bound on concurrent request-handler threads.  Scrapers are few
#: and requests are cheap; the bound exists so a misbehaving client
#: cannot grow threads without limit.
DEFAULT_MAX_HANDLER_THREADS = 8

#: Completed spans retained for ``GET /trace``.
DEFAULT_TRACE_CAPACITY = 256

#: A readiness check result: bare bool, or (ok, human-readable detail).
CheckResult = Union[bool, Tuple[bool, str]]


class ReadinessCheck:
    """One named readiness probe: ``fn()`` → ``ok`` or ``(ok, detail)``."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], CheckResult]):
        self.name = name
        self.fn = fn

    def run(self) -> Tuple[bool, str]:
        """Evaluate the probe; exceptions read as not-ready."""
        try:
            result = self.fn()
        except Exception as exc:  # a crashing probe must not 200
            return False, f"{type(exc).__name__}: {exc}"
        if isinstance(result, tuple):
            ok, detail = result
            return bool(ok), str(detail)
        return bool(result), "ok" if result else "failed"


def alert_readiness_check(
    engine, cooldown_seconds: float = DEFAULT_ALERT_COOLDOWN_SECONDS
) -> ReadinessCheck:
    """Not-ready while a critical alert fired within ``cooldown_seconds``.

    Uses :meth:`AlertEngine.last_alert_age`, so readiness recovers
    automatically once the engine's own cooldown stops the rule from
    re-firing.
    """

    def probe() -> Tuple[bool, str]:
        age = engine.last_alert_age(severity="critical")
        if age is None:
            return True, "no critical alerts"
        if age < cooldown_seconds:
            return False, f"critical alert {age:.1f}s ago (< {cooldown_seconds:g}s)"
        return True, f"last critical alert {age:.1f}s ago"

    return ReadinessCheck("alerts", probe)


class _BoundedThreadingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer with a hard cap on live handler threads.

    The semaphore is acquired *before* a connection thread spawns and
    released when the handler finishes, so at most ``max_threads``
    requests are in flight; excess connections queue in the listen
    backlog instead of growing threads.
    """

    daemon_threads = True

    def __init__(self, address, handler, max_threads: int):
        self._handler_slots = threading.BoundedSemaphore(max_threads)
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        self._handler_slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._handler_slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._handler_slots.release()


class _Handler(BaseHTTPRequestHandler):
    """Routes the six telemetry endpoints; everything else is 404."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-obs"

    # The handler class is instantiated per request by the HTTP server;
    # the TelemetryServer injects itself via a subclass attribute.
    telemetry_server: "TelemetryServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        route = getattr(self, f"_get_{path.lstrip('/')}", None)
        if path == "/" or route is None:
            self._send(404, "application/json", json.dumps({"error": "not found", "path": path}))
            return
        route()

    # -- endpoints ------------------------------------------------------
    def _get_metrics(self) -> None:
        body = self.telemetry_server.session.metrics.to_prometheus()
        self._send(200, "text/plain; version=0.0.4; charset=utf-8", body)

    def _get_health(self) -> None:
        server = self.telemetry_server
        payload = {
            "status": "ok",
            "uptime_seconds": server.uptime_seconds(),
            "endpoints": sorted(server.ENDPOINTS),
        }
        self._send(200, "application/json", json.dumps(payload))

    def _get_ready(self) -> None:
        ready, checks = self.telemetry_server.readiness()
        payload = {"ready": ready, "checks": checks}
        self._send(200 if ready else 503, "application/json", json.dumps(payload))

    def _get_alerts(self) -> None:
        self._send(
            200, "application/json",
            json.dumps({"alerts": self.telemetry_server.recent_alerts()}),
        )

    def _get_trace(self) -> None:
        spans = [
            span.to_dict()
            for span in span_ring_snapshot(self.telemetry_server.trace_capacity)
        ]
        self._send(200, "application/json", json.dumps({"spans": spans}))

    def _get_profile(self) -> None:
        profiler = self.telemetry_server.session.profiler
        if profiler is None:
            self._send(
                404, "application/json",
                json.dumps({"error": "no profiler armed on this session"}),
            )
            return
        summary = profiler.summary()
        lines = [
            f"{entry['stack']} {entry['count']}"
            for entry in summary.get("stacks", [])
        ]
        self._send(200, "text/plain; charset=utf-8", "\n".join(lines) + "\n")

    # -- plumbing -------------------------------------------------------
    def _send(self, status: int, content_type: str, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:
        """Silence per-request stderr logging (scrapes are periodic)."""


class TelemetryServer:
    """Serve one telemetry session's live state over HTTP.

    Usually attached declaratively::

        with obs.telemetry(serve_port=9099) as tel:
            ...  # curl http://127.0.0.1:9099/metrics meanwhile

    or driven by hand::

        server = TelemetryServer(session, port=0)   # port=0 → ephemeral
        server.start()
        ...
        server.stop()

    ``readiness_checks`` extends the built-in alert-recency probe; pass
    ``ReadinessCheck("model", lambda: registry.is_warm())`` style probes
    for model-registry warmth, worker-pool liveness, and the like.
    """

    ENDPOINTS = ("/metrics", "/health", "/ready", "/alerts", "/trace", "/profile")

    def __init__(
        self,
        session,
        port: int = 0,
        host: str = "127.0.0.1",
        readiness_checks: Optional[Sequence[ReadinessCheck]] = None,
        alert_cooldown_seconds: float = DEFAULT_ALERT_COOLDOWN_SECONDS,
        max_handler_threads: int = DEFAULT_MAX_HANDLER_THREADS,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        max_alerts: int = 50,
    ):
        self.session = session
        self.host = host
        self.trace_capacity = int(trace_capacity)
        self.max_alerts = int(max_alerts)
        self._requested_port = int(port)
        self._max_handler_threads = int(max_handler_threads)
        self._server: Optional[_BoundedThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self.checks: List[ReadinessCheck] = []
        if session.alerts is not None:
            self.checks.append(
                alert_readiness_check(session.alerts, alert_cooldown_seconds)
            )
        if readiness_checks:
            self.checks.extend(readiness_checks)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "TelemetryServer":
        """Bind, spin up the serve thread, and enable the span ring."""
        if self._server is not None:
            raise RuntimeError("telemetry server already started")
        handler = type("_BoundHandler", (_Handler,), {"telemetry_server": self})
        self._server = _BoundedThreadingHTTPServer(
            (self.host, self._requested_port), handler, self._max_handler_threads
        )
        enable_span_ring(self.trace_capacity)
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-obs-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down the listener and release the span ring (idempotent)."""
        server, thread = self._server, self._thread
        if server is None:
            return
        self._server = None
        self._thread = None
        server.shutdown()
        if thread is not None:
            thread.join(timeout=5.0)
        server.server_close()
        disable_span_ring()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request-side helpers ------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def uptime_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.time() - self._started_at

    def readiness(self) -> Tuple[bool, List[Dict[str, object]]]:
        """Run every check; overall readiness is their conjunction."""
        results: List[Dict[str, object]] = []
        ready = True
        for check in self.checks:
            ok, detail = check.run()
            ready = ready and ok
            results.append({"name": check.name, "ok": ok, "detail": detail})
        return ready, results

    def recent_alerts(self) -> List[Dict[str, object]]:
        """The most recent alert firings, oldest first, JSON-ready."""
        engine = self.session.alerts
        if engine is None:
            return []
        recent = list(engine.alerts)[-self.max_alerts:]
        return [
            dict(alert.to_fields(), created=alert.created) for alert in recent
        ]


def _fetch(url: str, timeout: float) -> str:
    """Minimal stdlib GET (urllib pulls in more than we need here)."""
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.obs.server --validate <file|url|->``.

    Format-checks a Prometheus exposition document (a saved scrape, a
    live ``/metrics`` URL, or stdin) and exits 1 on any violation — the
    CI ``obs-serve`` job runs every scraped artifact through this.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.server", description=main.__doc__
    )
    parser.add_argument(
        "--validate", required=True, metavar="SOURCE",
        help="exposition text to check: a file path, an http(s) URL, or - for stdin",
    )
    parser.add_argument(
        "--timeout", type=float, default=5.0, help="fetch timeout for URLs"
    )
    args = parser.parse_args(argv)

    source = args.validate
    if source == "-":
        text = sys.stdin.read()
    elif source.startswith(("http://", "https://")):
        text = _fetch(source, args.timeout)
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()

    errors = validate_exposition(text)
    for error in errors:
        print(f"INVALID: {error}")
    if errors:
        return 1
    samples = sum(
        1 for line in text.splitlines() if line and not line.startswith("#")
    )
    print(f"OK: valid exposition ({samples} samples)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
