"""``ScenarioService``: cache → in-flight dedupe → micro-batcher.

The service is the single pipeline every entry point (the HTTP front
end, the CLI, :func:`repro.analysis.sweep.scenario_sweep`) pushes
queries through.  A query is staged (:meth:`ScenarioService.stage`),
then answered (:meth:`ScenarioService.answer`) once its result is
there: :meth:`~ScenarioService.query_many` waits for it in between,
while the daemon's loop thread answers from the miss's done-callback,
so no thread waits.  Staging, per spec, under one lock:

1. **cache** — a completed result under the spec hash answers
   immediately (``cache="hit"``);
2. **in-flight dedupe** — a pending integration for the same hash is
   joined rather than duplicated (``cache="coalesced"``, counted as a
   hit: the request costs no integration).  This is the only
   coalescing point: a spec is registered here before the next one is
   looked up, so duplicates inside one ``query_many`` coalesce too, and
   the batcher never sees the same hash twice at once;
3. **miss** — the query is submitted to the
   :class:`~repro.serve.batcher.MicroBatcher` and registered as the
   hash's owner.  The batcher stacks trajectory misses that arrive
   together and runs control plans in a lane of their own.

Every miss is finished in one place, ``_complete``, which stores the
result's bytes and then drops the in-flight entry.  It runs when the
miss completes, whether or not anyone still waits, and again when
:meth:`~ScenarioService.answer` answers the owner, so the owner's answer
is a cache hit for the next query.  A waiter that gives up does not
stop the integration.

Every response carries the result's JSON bytes, encoded once when the
integration completed; its ``result`` dict is decoded from them only
when a library caller reads it.

So N identical concurrent queries cost exactly one integration: one
owner (miss), N−1 coalesced waiters (hits) — the property the
end-to-end service test pins down.

Observability: each answered query emits a ``serve.request`` span
event (spec short-hash, cache status, stacked flag), feeds the
``serve.request.seconds`` histogram and records an SLO sample (a
failed or timed-out one records an error sample); each miss's wait in
the batcher feeds ``serve.batch.wait.seconds``; cache counters live in
:class:`~repro.serve.cache.ResultCache`.  A submission counts only as
a cache hit or miss, since it answers nothing.  With no observer
installed the pipeline is pure computation — a lone request runs the
identical scalar path as calling the model directly.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent import futures
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

from repro.exceptions import ServiceClosedError
from repro.obs.slo import SLOTracker
from repro.obs.trace import get_observer
from repro.serve.batcher import MicroBatcher, PendingResult
from repro.serve.cache import ResultCache
from repro.serve.hashing import short_hash
from repro.serve.spec import ScenarioSpec

__all__ = ["ScenarioResponse", "ScenarioService"]


@dataclass(frozen=True)
class ScenarioResponse:
    """One answered query.

    Attributes
    ----------
    spec_hash:
        Content address of the question.
    body:
        The result's JSON bytes (see ``docs/SERVICE.md``), encoded once
        when the integration completed; the HTTP front end sends them
        as they are.
    cache:
        ``"hit"`` (completed cache), ``"coalesced"`` (joined an
        in-flight integration) or ``"miss"`` (owned a fresh one).
    stacked:
        Whether the result came from a stacked batch integration.
    seconds:
        Wall time this query spent in the service.
    """

    spec_hash: str
    body: bytes
    cache: str
    stacked: bool
    seconds: float

    @cached_property
    def result(self) -> dict[str, object]:
        """The JSON-ready result payload, decoded from :attr:`body` on
        first use (floats round-trip exactly)."""
        return json.loads(self.body)


class ScenarioService:
    """The query pipeline; see module docstring.

    Parameters
    ----------
    cache:
        Pre-built :class:`ResultCache`, or ``None`` to build one from
        ``cache_entries`` / ``cache_dir``.
    window_seconds, max_batch:
        Micro-batching knobs, passed to :class:`MicroBatcher`:
        ``window_seconds`` is the longest a miss waits for company,
        and a window closes sooner once arrivals pause for a tenth of
        it.
    """

    def __init__(self, cache: ResultCache | None = None, *,
                 window_seconds: float = 0.01, max_batch: int = 64,
                 cache_entries: int = 1024,
                 cache_dir: str | None = None) -> None:
        self.cache = cache if cache is not None else ResultCache(
            cache_entries, cache_dir)
        self.batcher = MicroBatcher(window_seconds, max_batch)
        self.slo = SLOTracker()
        self._inflight: dict[str, PendingResult] = {}
        self._lock = threading.Lock()
        self._closed = False
        observer = get_observer()
        if observer is not None:
            # Pre-register the serve metrics so /metrics shows zeros
            # before the first query rather than nothing.  The initial
            # SLO publish registers the serve.slo.* gauge family the
            # same way, keeping the metric key set stable from the
            # first scrape.
            for name in ("serve.cache.hits", "serve.cache.misses",
                         "serve.cache.evictions", "serve.requests",
                         "serve.errors"):
                observer.metrics.counter(name)
            for name in ("serve.request.seconds",
                         "serve.batch.wait.seconds"):
                observer.metrics.histogram(name)
            self.slo.publish(observer.metrics)

    # -- queries -----------------------------------------------------------
    def query(self, spec: ScenarioSpec,
              timeout: float | None = None) -> ScenarioResponse:
        """Answer one spec (cache / coalesce / integrate)."""
        return self.query_many([spec], timeout=timeout)[0]

    def query_many(self, specs: Sequence[ScenarioSpec],
                   timeout: float | None = None) -> list[ScenarioResponse]:
        """Answer several specs, submitting all before waiting on any.

        Submitting the whole list up front lands every cache-missing
        spec in the same batching window, so a compatible what-if sweep
        integrates as one stacked system.  ``timeout`` bounds each
        wait: a wait that runs out raises :class:`TimeoutError`, while
        the integration goes on and its result is cached.
        """
        started = time.perf_counter()
        responses: list[ScenarioResponse] = []
        first_error: BaseException | None = None
        for key, status, payload in self.stage(specs):
            if status != "hit":
                futures.wait((payload,), timeout)
            try:
                responses.append(self.answer(key, status, payload, started))
            except BaseException as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return responses

    def submit(self, spec: ScenarioSpec) -> None:
        """Stage a spec without waiting: a miss is integrated and cached
        whether or not anyone asks again.  It counts as a cache hit or
        miss, but as no request, since it answers nothing."""
        self.stage([spec])

    def stage(self, specs: Sequence[ScenarioSpec]
              ) -> list[tuple[str, str, object]]:
        """``(key, "hit", body)``, ``(key, "coalesced", future)`` or
        ``(key, "miss", future)`` for each spec, in order; pass each to
        :meth:`answer` once its future is done (or its wait ran out)."""
        staged: list[tuple[str, str, object]] = []
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            for spec in specs:
                key = spec.spec_hash()
                cached = self.cache.get(key, encoded=True)
                if cached is not None:
                    self.cache.record_hit()
                    staged.append((key, "hit", cached))
                    continue
                pending = self._inflight.get(key)
                if pending is not None:
                    self.cache.record_hit()
                    staged.append((key, "coalesced", pending))
                    continue
                self.cache.record_miss()
                pending = self.batcher.submit_nowait(spec)
                self._inflight[key] = pending
                staged.append((key, "miss", pending))
        # Outside the lock: a future that is already done runs its
        # callback at once, in this thread, and _complete takes the lock.
        for key, status, pending in staged:
            if status == "miss":
                pending.add_done_callback(partial(self._complete, key))
        return staged

    def answer(self, key: str, status: str, payload: object,
               started: float) -> ScenarioResponse:
        """Answer one spec :meth:`stage` returned, or raise its error.

        ``payload`` is a hit's bytes or a future; a future not yet done
        means its wait ran out, which raises :class:`TimeoutError`.  A
        completed miss is stored before it is answered, so the next
        query hits.  Either way the answer is recorded against the SLO
        and the request metrics, timed from ``started``.
        """
        if status == "hit":
            body, stacked, error = payload, False, None
        elif not payload.done():
            error = TimeoutError(
                f"scenario {short_hash(key)} not answered within "
                f"{time.perf_counter() - started:.3g}s")
        else:
            if status == "miss":
                self._complete(key, payload)
            error = payload.exception()
            if error is None:
                body, stacked = payload.result(), payload.stacked
        seconds = time.perf_counter() - started
        observer = get_observer()
        if error is not None:
            self.slo.record(seconds, error=True)
            if observer is not None:
                observer.metrics.inc("serve.errors")
            raise error
        self.slo.record(seconds, cache_hit=status == "hit",
                        coalesced=status == "coalesced", stacked=stacked)
        if observer is not None:
            observer.emit("span", name="serve.request", seconds=seconds,
                          spec=short_hash(key), cache=status,
                          stacked=stacked)
            observer.metrics.inc("serve.requests")
            observer.metrics.observe("serve.request.seconds", seconds)
        return ScenarioResponse(key, body, status, stacked, seconds)

    def _complete(self, key: str, pending: PendingResult) -> None:
        """Store a completed miss's bytes (not a failure's), then drop
        its in-flight entry if it still holds this future; idempotent."""
        if pending.exception() is None:
            self.cache.put(key, pending.result())
        with self._lock:
            if self._inflight.get(key) is pending:
                del self._inflight[key]

    def pending(self, key: str) -> bool:
        """Whether an integration for a spec hash is in flight."""
        with self._lock:
            return key in self._inflight

    # -- health/SLO --------------------------------------------------------
    def slo_snapshot(self) -> dict[str, float | int]:
        """Current sliding-window SLO summary (see :class:`SLOTracker`).

        With an observer installed the snapshot is also written to its
        ``serve.slo.*`` gauges, so a ``/metrics`` scrape refreshes what
        it reports.
        """
        observer = get_observer()
        depth = self.batcher.depth()
        if observer is not None:
            return self.slo.publish(observer.metrics, queue_depth=depth)
        return self.slo.snapshot(queue_depth=depth)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Refuse new queries, drain in-flight batches, record final SLOs.

        The last sliding-window snapshot is emitted into the manifest
        as an ``slo`` event (schema ``repro-obs/3``) so a finished
        serve run's manifest carries the service's closing state.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.batcher.close()
        observer = get_observer()
        if observer is not None:
            snapshot = self.slo.publish(observer.metrics,
                                        queue_depth=self.batcher.depth())
            observer.emit("slo", **snapshot)

    def __enter__(self) -> "ScenarioService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
