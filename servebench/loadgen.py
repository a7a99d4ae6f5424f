"""Load generator: persistent keep-alive HTTP connections, one thread each.

Two phases, both over at most ``nproc`` connections opened once per
phase, the way real clients connect:

* **open loop** — request ``i`` is due at ``schedule[i]`` regardless of
  how the daemon is doing.  Its latency is timed from when it was due,
  so a stall also charges the requests queued behind it.  The
  generator records how long each request waited for a free
  connection and how late it went out beyond that.
* **closed loop** — every connection sends its next request as soon as
  the previous answer arrives, until the phase's deadline; requests
  already sent are waited for.  Completed requests per second is an
  upper bound on the highest sustainable rate.

The stdlib client is used unmodified: the generator neither sets socket
options nor coalesces writes, so any stall in the daemon's responses
shows up in the figures.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

#: Seconds a single request may take before it counts as failed.  After
#: any failure a phase sends nothing more, so a hung daemon cannot hold
#: a run for long.
REQUEST_TIMEOUT = 60.0


@dataclass
class Record:
    """One timed request, on the ``time.monotonic`` clock."""

    index: int
    payload: bytes
    due: float
    picked: float = 0.0  # when a connection became free for it
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.error

    @property
    def latency(self) -> float:
        """From due time to answer: includes queueing at the generator."""
        return self.done - self.due

    @property
    def round_trip(self) -> float:
        return self.done - self.sent

    @property
    def conn_wait(self) -> float:
        return max(0.0, self.picked - self.due)

    @property
    def late(self) -> float:
        """Send time past the due time, connection wait included."""
        return max(0.0, self.sent - self.due)


@dataclass
class Phase:
    """The records of one phase plus the generator's own cost."""

    name: str
    records: list[Record] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    cpu_seconds: float = 0.0

    @property
    def wall_seconds(self) -> float:
        return self.ended - self.started


def encode(payload: dict[str, object]) -> bytes:
    return json.dumps(payload).encode("utf-8")


class _Connection:
    """A keep-alive connection that reconnects after a failure."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def post(self, record: Record) -> None:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
        record.sent = time.monotonic()
        try:
            self.conn.request("POST", "/scenario", body=record.payload,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            record.body = response.read()
            record.status = response.status
        except (OSError, http.client.HTTPException) as error:
            record.error = f"{type(error).__name__}: {error}"
            self.close()
        record.done = time.monotonic()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _run_threads(port: int, connections: int,
                 send: Callable[[_Connection], Record | None]) -> None:
    """Run ``send`` on every connection until it returns ``None``."""
    conns = [_Connection(port) for _ in range(connections)]
    failed = threading.Event()

    def worker(conn: _Connection) -> None:
        while not failed.is_set():
            record = send(conn)
            if record is None:
                return
            if not record.ok:
                failed.set()

    threads = [threading.Thread(target=worker, args=(conn,), daemon=True)
               for conn in conns]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for conn in conns:
            conn.close()


def open_loop(port: int, connections: int, schedule: list[float],
              request: Callable[[int], dict[str, object]]) -> Phase:
    """Send ``request(i)`` at ``schedule[i]`` (seconds from phase start)."""
    phase = Phase("open")
    lock = threading.Lock()
    next_index = [0]
    records: list[Record | None] = [None] * len(schedule)

    def send(conn: _Connection) -> Record | None:
        with lock:
            i = next_index[0]
            if i >= len(schedule):
                return None
            next_index[0] = i + 1
        picked = time.monotonic()
        record = Record(i, encode(request(i)), phase.started + schedule[i],
                        picked=picked)
        delay = record.due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        conn.post(record)
        records[i] = record
        return record

    cpu = time.process_time()
    phase.started = time.monotonic()
    _run_threads(port, connections, send)
    phase.ended = time.monotonic()
    phase.cpu_seconds = time.process_time() - cpu
    phase.records = [record for record in records if record is not None]
    return phase


def closed_loop(port: int, connections: int, seconds: float, first: int,
                length: int,
                request: Callable[[int], dict[str, object]]) -> Phase:
    """Back-to-back requests ``first``, ``first + 1``, ... for ``seconds``.

    Each request is due when its connection becomes free, so latency
    here is the round trip.  The phase ends when the last request sent
    before the deadline has been answered.
    """
    phase = Phase("closed")
    lock = threading.Lock()
    next_index = [first]
    records: list[Record] = []

    def send(conn: _Connection) -> Record | None:
        with lock:
            i = next_index[0]
            if i >= length or time.monotonic() >= deadline:
                return None
            next_index[0] = i + 1
        now = time.monotonic()
        record = Record(i, encode(request(i)), now, picked=now)
        conn.post(record)
        with lock:
            records.append(record)
        return record

    cpu = time.process_time()
    phase.started = time.monotonic()
    deadline = phase.started + seconds
    _run_threads(port, connections, send)
    phase.ended = time.monotonic()
    phase.cpu_seconds = time.process_time() - cpu
    phase.records = sorted(records, key=lambda record: record.index)
    return phase


def fetch(port: int, path: str, timeout: float = 30.0) -> tuple[int, bytes]:
    """One GET on a fresh connection (metrics scrapes, probes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def post_once(port: int, payload: dict[str, object],
              timeout: float = REQUEST_TIMEOUT) -> tuple[int, bytes]:
    """One POST /scenario on a fresh connection (set-up probes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", "/scenario", body=encode(payload),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()
