"""Zero-dependency HTTP front end: the ``repro serve`` daemon.

Stdlib only (:class:`http.server.ThreadingHTTPServer` + ``json``), so
the service runs anywhere the repo does.  Endpoints (protocol details
in ``docs/SERVICE.md``):

* ``POST /scenario`` — body is a :class:`~repro.serve.spec.ScenarioSpec`
  JSON payload.  Synchronous by default (the response carries the
  result plus cache/batching telemetry); ``?mode=async`` stages the
  spec in the service and answers ``202 Accepted`` at once with a poll
  path, with no thread left waiting for the answer: the service caches
  it when the integration completes.  A body declared
  larger than :data:`MAX_BODY_BYTES` is answered ``413`` unread (and
  never invited with ``100 Continue``), and the connection closes.
  Any other body is read before the answer, an error or a ``404``
  included, so it is never parsed as the next request; a
  ``Content-Length`` that is not a number or is negative is answered
  ``400`` and closes the connection.  Once the service is closing, a
  POST is answered ``503`` and the connection closes.
* ``GET /scenario/<hash>`` — poll a submitted scenario: ``200`` with
  the result once cached, ``202`` while in flight, ``404`` otherwise.
* ``GET /presets`` — the valid ``network`` preset names with their
  degree-distribution summaries.
* ``GET /healthz`` — load-balancer health: overall status (``ok`` /
  ``warn`` / ``critical``, from the numerical-health watchdogs;
  critical answers **503**), uptime, version, spec-registry size,
  cache statistics + disk-tier status, live alarm states, and the
  sliding-window SLO snapshot.
* ``GET /metrics`` — Prometheus exposition-format dump of the obs
  :class:`~repro.obs.metrics.MetricsRegistry` (cache counters, request
  latency histograms, solver metrics, refreshed ``serve.slo.*``
  gauges).

Each request handler thread pushes queries through the shared
:class:`~repro.serve.service.ScenarioService`, so concurrent client
requests coalesce and stack exactly like library callers.

Every response leaves in one write (status line, headers and body), so
a keep-alive client never waits out its delayed ACK for a body held
back by Nagle.  Scenario answers splice the result's JSON bytes,
encoded once when the integration completed, into a small envelope:
a cache hit encodes nothing but the envelope.

Trace correlation: a client may send ``X-Trace-Id`` (1–64 chars of
``[A-Za-z0-9_.-]``; anything else is a 400) on ``POST /scenario``;
absent, one is generated.  The id is echoed in the response header and
payload and stamped on every manifest event the request produces —
the ``serve.request`` span, the micro-batch span (which records every
member id), solver events, and health events — so ``repro obs report
--trace <id>`` reconstructs the request's path afterwards.

Graceful shutdown: SIGTERM/SIGINT stop the accept loop, drain in-flight
batches (:meth:`ScenarioService.close`), and return control to the CLI,
whose ``observing()`` context closes the JSONL manifest through the
normal :class:`~repro.obs.manifest.JsonlSink` path — the process exits
0 with a complete, validatable manifest.
"""

from __future__ import annotations

import json
import re
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.exceptions import ParameterError, ReproError, ServiceClosedError
from repro.obs import log as obslog
from repro.obs.trace import get_observer, new_trace_id, tracing
from repro.serve.service import ScenarioService
from repro.serve.spec import MODEL_FAMILIES, ScenarioSpec

__all__ = ["MAX_BODY_BYTES", "ScenarioHTTPServer", "run_server"]

#: Hex-digit length of a full spec hash (SHA-256).
_HASH_LEN = 64

#: Accepted ``X-Trace-Id`` values: short, header-safe, log-greppable.
_TRACE_ID_RE = re.compile(r"[A-Za-z0-9_.\-]{1,64}")

#: Largest ``POST /scenario`` body read; a larger one is answered 413.
MAX_BODY_BYTES = 1 << 20


class ScenarioHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`ScenarioService`."""

    daemon_threads = True  # handler threads never block shutdown

    def __init__(self, address: tuple[str, int],
                 service: ScenarioService) -> None:
        super().__init__(address, _ScenarioRequestHandler)
        self.service = service
        self.started = time.monotonic()


class _ScenarioRequestHandler(BaseHTTPRequestHandler):
    """Routes requests into the scenario service (one thread each)."""

    server: ScenarioHTTPServer
    protocol_version = "HTTP/1.1"

    # -- routing -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if not self._accept_trace_header(generate=False):
            return
        parts = urlsplit(self.path)
        route = parts.path.rstrip("/") or "/"
        if route == "/healthz":
            self._respond_healthz()
        elif route == "/metrics":
            # Refresh the serve.slo.* gauges so the scrape reports the
            # current window, not the window of the previous scrape.
            self.server.service.slo_snapshot()
            self._respond_text(200, _render_metrics())
        elif route == "/presets":
            from repro.datasets.presets import preset_summaries

            self._respond_json(200, {"presets": preset_summaries()})
        elif route.startswith("/scenario/"):
            self._poll_scenario(route.removeprefix("/scenario/"))
        else:
            self._respond_json(404, {"error": f"unknown path {route!r}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        # Read the body before any answer: left unread, it would be
        # parsed as the next request on this keep-alive connection.
        body, unread = self._read_body()
        if unread is not None:
            self.close_connection = True
        parts = urlsplit(self.path)
        route = parts.path.rstrip("/")
        if route != "/scenario":
            self._respond_json(404, {"error": f"unknown path {route!r}"})
            return
        if not self._accept_trace_header(generate=True):
            return
        if unread is not None:
            status, error = unread
            self._respond_json(status, {"error": error})
            return
        try:
            spec = self._parse_spec(body)
        except ParameterError as error:
            self._respond_json(400, {"error": str(error)})
            return
        query = parse_qs(parts.query)
        if query.get("mode", [""])[0] == "async":
            self._submit_async(spec)
        else:
            self._run_sync(spec)

    # -- handlers ----------------------------------------------------------
    def _accept_trace_header(self, *, generate: bool) -> bool:
        """Validate ``X-Trace-Id``; 400 + ``False`` on a bad value.

        ``generate=True`` (scenario submissions) mints an id when the
        client sent none, so every request is traceable; read-only
        endpoints only echo a client-supplied id.
        """
        header = self.headers.get("X-Trace-Id")
        if header is not None and not _TRACE_ID_RE.fullmatch(header):
            self._trace_id = None
            self._respond_json(400, {
                "error": "invalid X-Trace-Id: need 1-64 characters of "
                         "[A-Za-z0-9_.-]"})
            return False
        self._trace_id = header or (new_trace_id() if generate else None)
        return True

    def _respond_healthz(self) -> None:
        """Load-balancer health summary; 503 only when critical.

        ``warn`` still answers 200 — a degraded-but-serving node should
        stay in rotation while operators look at ``alarms``; only
        ``critical`` (non-finite results, storming solvers) pulls it.
        """
        service = self.server.service
        observer = get_observer()
        health = (observer.health.status() if observer is not None
                  else {"status": "ok", "alarms": {}})
        status = str(health["status"])
        payload = {
            "status": status,
            "uptime_seconds": round(time.monotonic() - self.server.started,
                                    3),
            "version": __version__,
            "spec_families": len(MODEL_FAMILIES),
            "cache": service.cache.stats(),
            "cache_disk": service.cache.disk_status(),
            "alarms": health["alarms"],
            "slo": service.slo_snapshot(),
        }
        self._respond_json(503 if status == "critical" else 200, payload)

    def handle_expect_100(self) -> bool:
        """Invite only a body that :meth:`_read_body` will read."""
        length = self.headers.get("Content-Length", "")
        if length.isdecimal() and int(length) > MAX_BODY_BYTES:
            return True  # no 100 Continue: do_POST answers 413 at once
        return super().handle_expect_100()

    def _read_body(self) -> tuple[bytes, tuple[int, str] | None]:
        """The request body, or the status and error it stays unread for.

        A ``Content-Length`` that is not a number, is negative or
        exceeds :data:`MAX_BODY_BYTES` leaves the body unread; the
        connection must then close.
        """
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            return b"", (400, "invalid Content-Length header")
        if length > MAX_BODY_BYTES:
            return b"", (413, f"request body of {length} bytes exceeds the "
                              f"limit of {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length), None

    @staticmethod
    def _parse_spec(body: bytes) -> ScenarioSpec:
        if not body:
            raise ParameterError("request body must be a scenario JSON "
                                 "object")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"invalid scenario JSON: {exc}") from None
        return ScenarioSpec.from_payload(payload)

    def _run_sync(self, spec: ScenarioSpec) -> None:
        try:
            with tracing(self._trace_id or ""):
                response = self.server.service.query(spec)
        except ServiceClosedError as error:
            self._respond_closed(error)
            return
        except ParameterError as error:
            self._respond_json(400, {"error": str(error)})
            return
        except ReproError as error:
            # Numerical failures (e.g. an integration blow-up) are the
            # request's fault domain, not the connection's: answer with
            # a JSON error so the client and its trace survive.
            self._respond_json(500, {"error": str(error),
                                     "trace_id": self._trace_id})
            return
        self._respond_result(200, {
            "spec_hash": response.spec_hash,
            "trace_id": self._trace_id,
            "cache": response.cache,
            "stacked": response.stacked,
            "seconds": response.seconds,
        }, response.body)

    def _submit_async(self, spec: ScenarioSpec) -> None:
        """Stage the spec and answer 202 with its poll path at once."""
        try:
            with tracing(self._trace_id or ""):
                self.server.service.submit(spec)
        except ServiceClosedError as error:
            self._respond_closed(error)
            return
        spec_hash = spec.spec_hash()
        self._respond_json(202, {
            "spec_hash": spec_hash,
            "trace_id": self._trace_id,
            "status": "accepted",
            "poll": f"/scenario/{spec_hash}",
        })

    def _respond_closed(self, error: ServiceClosedError) -> None:
        """503 once the service is draining, as during the SIGTERM drain
        for a request on a kept-alive connection; the connection closes,
        so the client reconnects to whatever serves next."""
        self.close_connection = True
        self._respond_json(503, {"error": str(error),
                                 "trace_id": self._trace_id})

    def _poll_scenario(self, spec_hash: str) -> None:
        if len(spec_hash) != _HASH_LEN or not all(
                c in "0123456789abcdef" for c in spec_hash):
            self._respond_json(400, {
                "error": f"{spec_hash!r} is not a spec hash "
                         f"({_HASH_LEN} lowercase hex digits)"})
            return
        service = self.server.service
        # In flight first: a miss is cached before its in-flight entry
        # goes, so a spec found no longer in flight is in the cache.
        in_flight = service.pending(spec_hash)
        body = service.cache.get(spec_hash, encoded=True)
        if body is not None:
            self._respond_result(200, {"spec_hash": spec_hash,
                                       "cache": "hit"}, body)
        elif in_flight:
            self._respond_json(202, {"spec_hash": spec_hash,
                                     "status": "pending"})
        else:
            self._respond_json(404, {
                "spec_hash": spec_hash,
                "error": "unknown scenario (never submitted, evicted, or "
                         "failed — resubmit via POST /scenario)"})

    # -- response / logging plumbing ---------------------------------------
    def _respond_json(self, status: int, payload: dict[str, object]) -> None:
        self._respond_bytes(status, json.dumps(payload).encode("utf-8"),
                            "application/json")

    def _respond_result(self, status: int, fields: dict[str, object],
                        result: bytes) -> None:
        """Answer ``fields`` plus a ``"result"`` member, spliced in as
        the JSON bytes the result was encoded to once, on completion."""
        head = json.dumps(fields).encode("utf-8")
        self._respond_bytes(status, head[:-1] + b', "result": ' + result
                            + b"}", "application/json")

    def _respond_text(self, status: int, text: str) -> None:
        self._respond_bytes(status, text.encode("utf-8"),
                            "text/plain; charset=utf-8")

    def _respond_bytes(self, status: int, body: bytes,
                       content_type: str) -> None:
        """Send status line, headers and body in one write.

        ``end_headers()`` would send the headers on their own; the body
        written after them is then a second small segment, which Nagle
        holds on a keep-alive connection until the client's delayed ACK
        arrives, about 40 ms later.
        """
        self.log_request(status)
        lines = [f"{self.protocol_version} {status} "
                 f"{self.responses[status][0]}",
                 f"Server: {self.version_string()}",
                 f"Date: {self.date_time_string()}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}"]
        trace_id = getattr(self, "_trace_id", None)
        if trace_id:
            lines.append(f"X-Trace-Id: {trace_id}")
        if self.close_connection:
            lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        self.wfile.write(head.encode("latin-1") + body)

    def log_message(self, format: str, *args: object) -> None:
        """Route access logs into the manifest instead of stderr."""
        observer = get_observer()
        if observer is not None:
            observer.emit("log", level="debug", event="serve.http",
                          fields={"client": self.address_string(),
                                  "line": format % args})


def _render_metrics() -> str:
    """The /metrics body: the obs registry, or a hint when absent."""
    observer = get_observer()
    if observer is None:
        return "# no observer installed (run repro serve under observing())\n"
    return observer.metrics.render_text()


def run_server(host: str = "127.0.0.1", port: int = 8722, *,
               service: ScenarioService | None = None,
               window_seconds: float = 0.01, max_batch: int = 64,
               cache_entries: int = 1024, cache_dir: str | None = None,
               status_interval: float | None = None,
               install_signal_handlers: bool = True,
               ready: threading.Event | None = None,
               stop: threading.Event | None = None) -> int:
    """Serve until SIGTERM/SIGINT (or ``stop``), then drain and return 0.

    ``port=0`` binds an ephemeral port; the announcement line (printed
    to stdout, flushed) carries the resolved port so scripts and the CI
    smoke step can parse it.  ``status_interval`` (seconds, CLI
    ``--status-interval``) enables a periodic one-line ``serve.status``
    log record — health status plus the SLO window — visible on stderr
    at ``--log-level info`` and always recorded in the manifest.
    ``ready``/``stop`` exist for in-process tests: ``ready`` is set
    once the socket listens, ``stop`` requests shutdown without a
    signal.  Signal handlers are installed last, so they take
    precedence over the :class:`~repro.obs.manifest.JsonlSink` SIGTERM
    hook — the sink still flushes, via the graceful return path.
    """
    own_service = service is None
    if own_service:
        service = ScenarioService(window_seconds=window_seconds,
                                  max_batch=max_batch,
                                  cache_entries=cache_entries,
                                  cache_dir=cache_dir)
    stop = stop if stop is not None else threading.Event()
    server = ScenarioHTTPServer((host, port), service)
    actual_port = server.server_address[1]
    if install_signal_handlers:
        def _request_stop(signum: int, frame: object) -> None:
            stop.set()

        try:
            signal.signal(signal.SIGTERM, _request_stop)
            signal.signal(signal.SIGINT, _request_stop)
        except ValueError:
            pass  # not the main thread (in-process tests drive `stop`)
    # serve_forever runs in a helper thread: calling server.shutdown()
    # from the thread running serve_forever() deadlocks, and this keeps
    # the main thread free to wait on the stop event set by the signal
    # handler.
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve-accept", daemon=True)
    thread.start()
    print(f"serving on http://{host}:{actual_port}", flush=True)
    observer = get_observer()
    if observer is not None:
        observer.emit("log", level="info", event="serve.start",
                      fields={"host": host, "port": actual_port})
    if ready is not None:
        ready.set()
    if status_interval is not None and status_interval > 0:
        def _status_loop() -> None:
            while not stop.wait(status_interval):
                snapshot = service.slo_snapshot()
                ob = get_observer()
                status = (ob.health.overall_severity()
                          if ob is not None else "ok")
                obslog.info(
                    "serve.status", status=status,
                    requests=snapshot["requests"],
                    errors=snapshot["errors"],
                    p95=round(float(snapshot["latency_p95"]), 4),
                    hit_rate=round(float(snapshot["cache_hit_rate"]), 3),
                    queue=snapshot["queue_depth"])

        threading.Thread(target=_status_loop, name="repro-serve-status",
                         daemon=True).start()
    try:
        stop.wait()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
        if own_service:
            service.close()  # drain in-flight batches before returning
        if observer is not None:
            observer.emit("log", level="info", event="serve.stop",
                          fields={"host": host, "port": actual_port})
    return 0
