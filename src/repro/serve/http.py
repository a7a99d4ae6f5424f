"""Zero-dependency HTTP front end: the ``repro serve`` daemon.

One thread runs a :mod:`selectors` loop over non-blocking sockets.  It
parses HTTP/1.1 keep-alive requests, answers every cache hit and every
GET route inline, and stages each miss in the shared
:class:`~repro.serve.service.ScenarioService`, so concurrent misses
coalesce and stack exactly like library callers'.  A miss's future
wakes the loop through a socketpair when it completes, and the loop
writes the answer, so no call on the loop waits for a solve or a
socket.  Endpoints (protocol details in ``docs/SERVICE.md``):

* ``POST /scenario`` — body is a :class:`~repro.serve.spec.ScenarioSpec`
  JSON payload.  Synchronous by default (the response carries the
  result plus cache/batching telemetry); ``?mode=async`` stages the
  spec in the service and answers ``202 Accepted`` at once with a poll
  path: the service caches the answer when the integration completes.
  A body declared
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

No connection can stall the others: the loop takes at most one request
per connection per turn, answers a connection's requests in order, and
stops reading from a connection while it holds a request in flight or
answer bytes the client has not taken.  A request head over 64 KiB or
with more than 100 header lines is answered ``431`` and closes its
connection.  At most :data:`MAX_CONNECTIONS` connections are served;
one beyond that is answered ``429`` with ``Retry-After`` once its
request head arrives, and closed.

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

Graceful shutdown: SIGTERM/SIGINT close the service, whose in-flight
batches drain (:meth:`ScenarioService.close`) while the loop writes
their answers, then stop the loop, and return control to the CLI,
whose ``observing()`` context closes the JSONL manifest through the
normal :class:`~repro.obs.manifest.JsonlSink` path — the process exits
0 with a complete, validatable manifest.
"""

from __future__ import annotations

import json
import re
import selectors
import signal
import socket
import threading
import time
import traceback
from collections import deque
from functools import partial
from http import HTTPStatus
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.exceptions import ParameterError, ReproError, ServiceClosedError
from repro.obs import log as obslog
from repro.obs.trace import get_observer, new_trace_id, tracing
from repro.serve.batcher import PendingResult
from repro.serve.service import ScenarioService
from repro.serve.spec import MODEL_FAMILIES, ScenarioSpec

__all__ = ["MAX_BODY_BYTES", "MAX_CONNECTIONS", "ScenarioHTTPServer",
           "run_server"]

#: Hex-digit length of a full spec hash (SHA-256).
_HASH_LEN = 64

#: Accepted ``X-Trace-Id`` values: short, header-safe, log-greppable.
_TRACE_ID_RE = re.compile(r"[A-Za-z0-9_.\-]{1,64}")

#: Largest ``POST /scenario`` body read; a larger one is answered 413.
MAX_BODY_BYTES = 1 << 20

#: Most connections served at once; one more is answered 429.
MAX_CONNECTIONS = 512

#: ``http.server``'s limits on a request head: its length in bytes and
#: its number of header lines.
_MAX_HEAD_BYTES = 1 << 16
_MAX_HEADERS = 100

_RECV_BYTES = 1 << 16

#: Seconds before a listener paused by a failed ``accept()`` (say, out
#: of file descriptors) tries again when no connection has closed.
_ACCEPT_RETRY_SECONDS = 0.1

#: Longest the loop keeps writing answers after :meth:`shutdown`.
_DRAIN_SECONDS = 10.0

_SERVER = f"repro/{__version__}"
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
           "Oct", "Nov", "Dec")


class _Refused(Exception):
    """A request head answered with ``status`` before its connection
    closes: the loop cannot tell where the next request would start."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Connection:
    """One client socket and the loop's state for it."""

    __slots__ = ("sock", "client", "inbuf", "scanned", "request", "busy",
                 "unsent", "close_after", "lingering", "events", "over_cap",
                 "closed")

    def __init__(self, sock: socket.socket, client: str,
                 over_cap: bool) -> None:
        self.sock = sock
        self.client = client
        self.inbuf = bytearray()
        self.scanned = 0            # bytes of inbuf searched for a head end
        self.request: _Request | None = None   # head read, body awaited
        self.busy = False           # a miss in flight
        self.unsent: memoryview | None = None  # answer bytes not yet taken
        self.close_after = False
        self.lingering = False      # answered, half-closed, draining
        self.events = 0             # selector interest
        self.over_cap = over_cap
        self.closed = False


class _Request:
    """One request on a connection: its head, its body and what its
    answer needs."""

    __slots__ = ("conn", "requestline", "method", "target", "headers",
                 "close", "expect_continue", "length", "unread", "body",
                 "trace_id", "staged")

    def __init__(self, conn: _Connection) -> None:
        self.conn = conn
        self.requestline = ""
        self.method = ""
        self.target = ""
        self.headers: dict[str, str] = {}
        self.close = True           # until a head says otherwise
        self.expect_continue = False
        self.length = 0
        #: Status and error a body stays unread for (the connection
        #: then closes), or ``None``.
        self.unread: tuple[int, str] | None = None
        self.body = b""
        self.trace_id: str | None = None
        #: ``(key, status, future, started)`` of a miss in flight.
        self.staged: tuple[str, str, PendingResult, float] | None = None

    def parse_head(self, head: bytes | bytearray) -> None:
        """Read the request line and headers (``head`` ends before the
        blank line).  Raises :class:`_Refused` for a head no request can
        be read from; a ``Content-Length`` the body is not read for sets
        :attr:`unread` instead."""
        lines = head.decode("latin-1").split("\r\n")
        self.requestline = lines[0]
        words = lines[0].split()
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            raise _Refused(400, f"bad request line {lines[0]!r}")
        self.method, self.target, version = words
        try:
            major, minor = (int(part) for part in version[5:].split("."))
        except ValueError:
            raise _Refused(400, f"bad HTTP version {version!r}") from None
        if major != 1:
            raise _Refused(505, f"HTTP version {version} is not supported")
        if len(lines) - 1 > _MAX_HEADERS:
            raise _Refused(431, f"more than {_MAX_HEADERS} header lines")
        for line in lines[1:]:
            name, colon, value = line.partition(":")
            if not colon or not name.strip():
                raise _Refused(400, f"bad header line {line!r}")
            self.headers.setdefault(name.strip().lower(), value.strip())
        connection = self.headers.get("connection", "").lower()
        self.close = connection == "close" or (minor == 0
                                               and connection != "keep-alive")
        self.expect_continue = (
            minor >= 1
            and self.headers.get("expect", "").lower() == "100-continue")
        try:
            length = int(self.headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self.unread = (400, "invalid Content-Length header")
            self.close = True
        elif length > MAX_BODY_BYTES:
            self.unread = (413, f"request body of {length} bytes exceeds "
                                f"the limit of {MAX_BODY_BYTES} bytes")
            self.close = True
        else:
            self.length = length


def _parse_spec(body: bytes) -> ScenarioSpec:
    if not body:
        raise ParameterError("request body must be a scenario JSON object")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"invalid scenario JSON: {exc}") from None
    return ScenarioSpec.from_payload(payload)


def _http_date(now: int) -> str:
    """An RFC 9110 ``Date`` value, in English whatever the locale."""
    t = time.gmtime(now)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
            f"{t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


class ScenarioHTTPServer:
    """HTTP/1.1 for one :class:`ScenarioService`, on one loop thread.

    The constructor binds and listens, so :attr:`server_address` holds
    the resolved port at once.  :meth:`serve_forever` runs the loop
    until :meth:`shutdown`, then closes every socket it holds.
    """

    def __init__(self, address: tuple[str, int],
                 service: ScenarioService) -> None:
        self.service = service
        self.started = time.monotonic()
        self._selector = selectors.DefaultSelector()
        self._listener = socket.create_server(address)
        self._wake_in, self._wake_out = socket.socketpair()
        for sock in (self._listener, self._wake_in, self._wake_out):
            sock.setblocking(False)
        self.server_address: tuple[str, int] = \
            self._listener.getsockname()[:2]
        self._selector.register(self._wake_in, selectors.EVENT_READ)
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._accepting = True
        self._resume_at = 0.0
        self._conns: set[_Connection] = set()
        self._ready: set[_Connection] = set()   # may hold a request to take
        self._done: deque[_Request] = deque()   # misses whose future is done
        self._stopping = False
        self._drain_deadline = 0.0
        self._date_second = -1
        self._date = ""

    # -- the loop ----------------------------------------------------------
    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` and the drain that follows."""
        try:
            while not (self._stopping and self._drained()):
                self._turn()
        finally:
            for conn in list(self._conns):
                self._close(conn)
            self._selector.close()
            for sock in (self._listener, self._wake_in, self._wake_out):
                sock.close()

    def shutdown(self) -> None:
        """Ask the loop to stop (from any thread): it stops accepting,
        closes idle connections, writes the answers still owed for up
        to :data:`_DRAIN_SECONDS`, and returns from
        :meth:`serve_forever`."""
        self._stopping = True
        self._wake()

    def _turn(self) -> None:
        if self._ready or self._done:
            timeout: float | None = 0.0
        elif self._stopping:
            timeout = 0.1
        elif not self._accepting:
            timeout = max(0.0, self._resume_at - time.monotonic())
        else:
            timeout = None
        for key, mask in self._selector.select(timeout):
            if key.fileobj is self._listener:
                self._accept()
            elif key.fileobj is self._wake_in:
                try:
                    self._wake_in.recv(4096)
                except BlockingIOError:
                    pass
            elif mask & selectors.EVENT_WRITE:
                self._flush(key.data)
            else:
                self._read(key.data)
        while self._done:
            request = self._done.popleft()
            request.conn.busy = False
            self._guarded(self._answer, request, *request.staged)
        ready, self._ready = self._ready, set()
        for conn in ready:
            if not conn.closed:
                self._next_request(conn)
        if (not self._accepting and not self._stopping
                and time.monotonic() >= self._resume_at):
            self._listen()

    def _drained(self) -> bool:
        """Once stopping: stop accepting, close idle connections, and
        tell whether every answer still owed has been written."""
        if self._drain_deadline == 0.0:
            self._drain_deadline = time.monotonic() + _DRAIN_SECONDS
            if self._accepting:
                self._selector.unregister(self._listener)
                self._accepting = False
            for conn in list(self._conns):
                if not conn.busy and conn.unsent is None:
                    self._close(conn)
        return not self._conns or time.monotonic() > self._drain_deadline

    def _wake(self) -> None:
        try:
            self._wake_out.send(b"\0")
        except OSError:
            pass  # the wake-up pipe is full (the loop wakes anyway) or closed

    # -- connections -------------------------------------------------------
    def _accept(self) -> None:
        while True:
            try:
                sock, address = self._listener.accept()
            except BlockingIOError:
                return
            except ConnectionAbortedError:
                continue
            except OSError as error:
                # Out of descriptors, say: the listener stays readable,
                # so stop watching it until a connection closes.
                obslog.warning("serve.accept_failed", error=str(error),
                               min_interval=10.0)
                self._selector.unregister(self._listener)
                self._accepting = False
                self._resume_at = time.monotonic() + _ACCEPT_RETRY_SECONDS
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, address[0],
                               len(self._conns) >= MAX_CONNECTIONS)
            self._conns.add(conn)
            self._watch(conn, selectors.EVENT_READ)

    def _listen(self) -> None:
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._accepting = True

    def _watch(self, conn: _Connection, events: int) -> None:
        """Set the events the selector reports for ``conn`` (0: none)."""
        if events == conn.events:
            return
        if not events:
            self._selector.unregister(conn.sock)
        elif not conn.events:
            self._selector.register(conn.sock, events, conn)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _close(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._watch(conn, 0)
        conn.sock.close()
        self._conns.discard(conn)
        if not self._accepting and not self._stopping:
            self._listen()  # a descriptor is free again

    def _read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._close(conn)
        elif not conn.lingering:
            conn.inbuf += data
            self._ready.add(conn)

    def _send(self, conn: _Connection, data: bytes) -> None:
        if conn.closed:
            return
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(conn)
            return
        if sent < len(data):
            conn.unsent = memoryview(data)[sent:]
            self._watch(conn, selectors.EVENT_WRITE)
        else:
            self._sent(conn)

    def _flush(self, conn: _Connection) -> None:
        assert conn.unsent is not None
        try:
            sent = conn.sock.send(conn.unsent)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        conn.unsent = conn.unsent[sent:] if sent < len(conn.unsent) else None
        if conn.unsent is None:
            self._sent(conn)

    def _sent(self, conn: _Connection) -> None:
        """Every byte owed to ``conn`` has left: take its next request."""
        if self._stopping:
            self._close(conn)
        elif conn.close_after:
            # Half-close, then discard what the client still sends until
            # it closes: closing with unread bytes would reset the
            # connection, which can destroy the answer in flight.
            try:
                conn.sock.shutdown(socket.SHUT_WR)
            except OSError:
                self._close(conn)
                return
            conn.lingering = True
            conn.inbuf.clear()
            self._watch(conn, selectors.EVENT_READ)
        elif conn.inbuf or conn.request is not None:
            self._watch(conn, 0)
            self._ready.add(conn)
        else:
            self._watch(conn, selectors.EVENT_READ)

    # -- requests ----------------------------------------------------------
    def _next_request(self, conn: _Connection) -> None:
        """Take and handle one complete request from ``conn``'s buffer,
        or watch for the bytes it still lacks."""
        request = conn.request
        inbuf = conn.inbuf
        if request is None:
            request = _Request(conn)
            end = inbuf.find(b"\r\n\r\n", max(0, conn.scanned - 3))
            if end > _MAX_HEAD_BYTES or (end < 0
                                         and len(inbuf) > _MAX_HEAD_BYTES):
                self._respond_json(request, 431, {
                    "error": f"request head exceeds {_MAX_HEAD_BYTES} "
                             f"bytes"})
                return
            if end < 0:
                conn.scanned = len(inbuf)
                self._watch(conn, selectors.EVENT_READ)
                return
            try:
                request.parse_head(inbuf[:end])
            except _Refused as refused:
                self._respond_json(request, refused.status,
                                   {"error": str(refused)})
                return
            del inbuf[:end + 4]
            conn.scanned = 0
            if conn.over_cap:
                request.close = True
                self._respond_json(request, 429, {
                    "error": f"too many open connections (limit "
                             f"{MAX_CONNECTIONS}); retry"})
                return
            conn.request = request
            if (request.expect_continue and request.unread is None
                    and len(inbuf) < request.length):
                self._send(conn, b"HTTP/1.1 100 Continue\r\n\r\n")
                return
        if request.unread is None:
            if len(inbuf) < request.length:
                self._watch(conn, selectors.EVENT_READ)
                return
            request.body = bytes(inbuf[:request.length])
            del inbuf[:request.length]
        conn.request = None
        self._guarded(self._dispatch, request)

    def _guarded(self, handler: Callable[..., None], request: _Request,
                 *args: object) -> None:
        """Run a handler; a fault in one request costs its connection,
        never the loop."""
        try:
            handler(request, *args)
        except Exception:
            obslog.error("serve.request_failed", client=request.conn.client,
                         request=request.requestline,
                         error=traceback.format_exc())
            self._close(request.conn)

    def _dispatch(self, request: _Request) -> None:
        if request.method == "POST":
            self._post(request)
        elif request.method == "GET":
            self._get(request)
        else:
            self._respond_json(request, 501, {
                "error": f"unsupported method {request.method!r}"})

    def _get(self, request: _Request) -> None:
        if not self._accept_trace_header(request, generate=False):
            return
        route = urlsplit(request.target).path.rstrip("/") or "/"
        if route == "/healthz":
            self._respond_healthz(request)
        elif route == "/metrics":
            # Refresh the serve.slo.* gauges so the scrape reports the
            # current window, not the window of the previous scrape.
            self.service.slo_snapshot()
            self._respond_bytes(request, 200,
                                _render_metrics().encode("utf-8"),
                                "text/plain; charset=utf-8")
        elif route == "/presets":
            from repro.datasets.presets import preset_summaries

            self._respond_json(request, 200,
                               {"presets": preset_summaries()})
        elif route.startswith("/scenario/"):
            self._poll_scenario(request, route.removeprefix("/scenario/"))
        else:
            self._respond_json(request, 404,
                               {"error": f"unknown path {route!r}"})

    def _post(self, request: _Request) -> None:
        parts = urlsplit(request.target)
        route = parts.path.rstrip("/")
        if route != "/scenario":
            self._respond_json(request, 404,
                               {"error": f"unknown path {route!r}"})
            return
        if not self._accept_trace_header(request, generate=True):
            return
        if request.unread is not None:
            status, error = request.unread
            self._respond_json(request, status, {"error": error})
            return
        try:
            spec = _parse_spec(request.body)
        except ParameterError as error:
            self._respond_json(request, 400, {"error": str(error)})
            return
        if parse_qs(parts.query).get("mode", [""])[0] == "async":
            self._submit_async(request, spec)
        else:
            self._query(request, spec)

    def _accept_trace_header(self, request: _Request, *,
                             generate: bool) -> bool:
        """Validate ``X-Trace-Id``; 400 + ``False`` on a bad value.

        ``generate=True`` (scenario submissions) mints an id when the
        client sent none, so every request is traceable; read-only
        endpoints only echo a client-supplied id.
        """
        header = request.headers.get("x-trace-id")
        if header is not None and not _TRACE_ID_RE.fullmatch(header):
            self._respond_json(request, 400, {
                "error": "invalid X-Trace-Id: need 1-64 characters of "
                         "[A-Za-z0-9_.-]"})
            return False
        request.trace_id = header or (new_trace_id() if generate else None)
        return True

    def _query(self, request: _Request, spec: ScenarioSpec) -> None:
        """Answer a hit now; leave a miss to its future's callback."""
        started = time.perf_counter()
        try:
            with tracing(request.trace_id or ""):
                [(key, status, payload)] = self.service.stage([spec])
        except ReproError as error:
            self._respond_error(request, error)
            return
        if status == "hit":
            self._answer(request, key, status, payload, started)
            return
        request.staged = (key, status, payload, started)
        request.conn.busy = True
        self._watch(request.conn, 0)
        payload.add_done_callback(partial(self._on_done, request))

    def _on_done(self, request: _Request, future: PendingResult) -> None:
        """Runs on the thread that completed the miss: hand it to the
        loop."""
        self._done.append(request)
        self._wake()

    def _answer(self, request: _Request, key: str, status: str,
                payload: bytes | PendingResult, started: float) -> None:
        try:
            with tracing(request.trace_id or ""):
                response = self.service.answer(key, status, payload, started)
        except ReproError as error:
            self._respond_error(request, error)
            return
        self._respond_result(request, 200, {
            "spec_hash": response.spec_hash,
            "trace_id": request.trace_id,
            "cache": response.cache,
            "stacked": response.stacked,
            "seconds": response.seconds,
        }, response.body)

    def _respond_error(self, request: _Request, error: ReproError) -> None:
        if isinstance(error, ServiceClosedError):
            # The service is draining, as during the SIGTERM drain for
            # a request on a kept-alive connection: close, so the client
            # reconnects to whatever serves next.
            request.close = True
            self._respond_json(request, 503, {
                "error": str(error), "trace_id": request.trace_id})
        elif isinstance(error, ParameterError):
            self._respond_json(request, 400, {"error": str(error)})
        else:
            # Numerical failures (e.g. an integration blow-up) are the
            # request's fault domain, not the connection's: answer with
            # a JSON error so the client and its trace survive.
            self._respond_json(request, 500, {
                "error": str(error), "trace_id": request.trace_id})

    def _submit_async(self, request: _Request, spec: ScenarioSpec) -> None:
        """Stage the spec and answer 202 with its poll path at once."""
        try:
            with tracing(request.trace_id or ""):
                self.service.submit(spec)
        except ReproError as error:
            self._respond_error(request, error)
            return
        spec_hash = spec.spec_hash()
        self._respond_json(request, 202, {
            "spec_hash": spec_hash,
            "trace_id": request.trace_id,
            "status": "accepted",
            "poll": f"/scenario/{spec_hash}",
        })

    def _respond_healthz(self, request: _Request) -> None:
        """Load-balancer health summary; 503 only when critical.

        ``warn`` still answers 200 — a degraded-but-serving node should
        stay in rotation while operators look at ``alarms``; only
        ``critical`` (non-finite results, storming solvers) pulls it.
        """
        service = self.service
        observer = get_observer()
        health = (observer.health.status() if observer is not None
                  else {"status": "ok", "alarms": {}})
        status = str(health["status"])
        payload = {
            "status": status,
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "version": __version__,
            "spec_families": len(MODEL_FAMILIES),
            "cache": service.cache.stats(),
            "cache_disk": service.cache.disk_status(),
            "alarms": health["alarms"],
            "slo": service.slo_snapshot(),
        }
        self._respond_json(request, 503 if status == "critical" else 200,
                           payload)

    def _poll_scenario(self, request: _Request, spec_hash: str) -> None:
        if len(spec_hash) != _HASH_LEN or not all(
                c in "0123456789abcdef" for c in spec_hash):
            self._respond_json(request, 400, {
                "error": f"{spec_hash!r} is not a spec hash "
                         f"({_HASH_LEN} lowercase hex digits)"})
            return
        service = self.service
        # In flight first: a miss is cached before its in-flight entry
        # goes, so a spec found no longer in flight is in the cache.
        in_flight = service.pending(spec_hash)
        body = service.cache.get(spec_hash, encoded=True)
        if body is not None:
            self._respond_result(request, 200, {"spec_hash": spec_hash,
                                                "cache": "hit"}, body)
        elif in_flight:
            self._respond_json(request, 202, {"spec_hash": spec_hash,
                                              "status": "pending"})
        else:
            self._respond_json(request, 404, {
                "spec_hash": spec_hash,
                "error": "unknown scenario (never submitted, evicted, or "
                         "failed — resubmit via POST /scenario)"})

    # -- response / logging plumbing ---------------------------------------
    def _respond_json(self, request: _Request, status: int,
                      payload: dict[str, object]) -> None:
        self._respond_bytes(request, status,
                            json.dumps(payload).encode("utf-8"),
                            "application/json")

    def _respond_result(self, request: _Request, status: int,
                        fields: dict[str, object], result: bytes) -> None:
        """Answer ``fields`` plus a ``"result"`` member, spliced in as
        the JSON bytes the result was encoded to once, on completion."""
        head = json.dumps(fields).encode("utf-8")
        self._respond_bytes(request, status, head[:-1] + b', "result": '
                            + result + b"}", "application/json")

    def _respond_bytes(self, request: _Request, status: int, body: bytes,
                       content_type: str) -> None:
        """Send status line, headers and body in one write.

        Headers sent on their own would leave the body as a second
        small segment, which Nagle holds on a keep-alive connection
        until the client's delayed ACK arrives, about 40 ms later.
        """
        conn = request.conn
        observer = get_observer()
        if observer is not None:
            # The access log goes into the manifest, not to stderr.
            observer.emit("log", level="debug", event="serve.http",
                          fields={"client": conn.client,
                                  "line": f'"{request.requestline}" '
                                          f'{status} -'})
        now = int(time.time())
        if now != self._date_second:
            self._date_second, self._date = now, _http_date(now)
        lines = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
                 f"Server: {_SERVER}",
                 f"Date: {self._date}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}"]
        if request.trace_id:
            lines.append(f"X-Trace-Id: {request.trace_id}")
        if status == 429:
            lines.append("Retry-After: 1")
        if request.close:
            lines.append("Connection: close")
            conn.close_after = True
        head = "\r\n".join(lines) + "\r\n\r\n"
        self._send(conn, head.encode("latin-1") + body)


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
    # The loop runs on its own thread, which keeps the main thread free
    # to wait on the stop event set by the signal handler.
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve-loop", daemon=True)
    thread.start()
    observer = get_observer()
    try:
        if install_signal_handlers:
            def _request_stop(signum: int, frame: object) -> None:
                stop.set()

            try:
                signal.signal(signal.SIGTERM, _request_stop)
                signal.signal(signal.SIGINT, _request_stop)
            except ValueError:
                pass  # not the main thread (in-process tests drive `stop`)
        print(f"serving on http://{host}:{actual_port}", flush=True)
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
        stop.wait()
    finally:
        try:
            # Close the service first: its in-flight batches drain while
            # the loop still writes their answers (and answers 503 to
            # new POSTs).
            if own_service:
                service.close()
        finally:
            server.shutdown()
            thread.join()
        if observer is not None:
            observer.emit("log", level="info", event="serve.stop",
                          fields={"host": host, "port": actual_port})
    return 0
