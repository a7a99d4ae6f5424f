"""``ScenarioService``: cache → in-flight dedupe → micro-batcher.

The service is the single pipeline every entry point (HTTP handler, CLI,
:func:`repro.analysis.sweep.scenario_sweep`) pushes queries through.
Per query, under one lock:

1. **cache** — a completed result under the spec hash answers
   immediately (``cache="hit"``);
2. **in-flight dedupe** — a pending integration for the same hash is
   joined rather than duplicated (``cache="coalesced"``, counted as a
   hit: the request costs no integration);
3. **miss** — the query is submitted to the
   :class:`~repro.serve.batcher.MicroBatcher` and registered as the
   hash's owner; on completion the owner stores the result's encoding
   and clears the in-flight entry.

Every response carries the result's JSON bytes, encoded once when the
integration completed; its ``result`` dict is decoded from them only
when a library caller reads it.

So N identical concurrent queries cost exactly one integration: one
owner (miss), N−1 coalesced waiters (hits) — the property the
end-to-end service test pins down.

Observability: each query emits a ``serve.request`` span event (spec
short-hash, cache status, stacked flag) and feeds the
``serve.request.seconds`` histogram; cache counters live in
:class:`~repro.serve.cache.ResultCache`.  With no observer installed
the pipeline is pure computation — a lone request runs the identical
scalar path as calling the model directly.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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
        Micro-batching knobs, passed to :class:`MicroBatcher`.
    """

    def __init__(self, cache: ResultCache | None = None, *,
                 window_seconds: float = 0.01, max_batch: int = 64,
                 cache_entries: int = 1024,
                 cache_dir: str | None = None,
                 slo_window_seconds: float = 60.0) -> None:
        self.cache = cache if cache is not None else ResultCache(
            cache_entries, cache_dir)
        self.batcher = MicroBatcher(window_seconds, max_batch)
        self.slo = SLOTracker(slo_window_seconds)
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
            observer.metrics.histogram("serve.request.seconds")
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
        integrates as one stacked system.
        """
        started = time.perf_counter()
        staged: list[tuple[str, str, object]] = []
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
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
        responses: list[ScenarioResponse] = []
        first_error: BaseException | None = None
        for key, status, payload in staged:
            if status == "hit":
                responses.append(self._respond(key, payload, "hit", False,
                                               started))
                continue
            pending = payload
            try:
                pending.wait(timeout)
            except BaseException as error:
                if status == "miss":
                    with self._lock:
                        self._inflight.pop(key, None)
                self.slo.record(time.perf_counter() - started, error=True)
                observer = get_observer()
                if observer is not None:
                    observer.metrics.inc("serve.errors")
                if first_error is None:
                    first_error = error
                continue
            if status == "miss":
                self.cache.put(key, pending.body)
                with self._lock:
                    self._inflight.pop(key, None)
            responses.append(self._respond(key, pending.body, status,
                                           pending.stacked, started))
        if first_error is not None:
            raise first_error
        return responses

    def pending(self, key: str) -> PendingResult | None:
        """The in-flight pending for a spec hash, if any (poll support)."""
        with self._lock:
            return self._inflight.get(key)

    def _respond(self, key: str, body: bytes, status: str,
                 stacked: bool, started: float) -> ScenarioResponse:
        seconds = time.perf_counter() - started
        self.slo.record(seconds, cache_hit=status == "hit",
                        coalesced=status == "coalesced", stacked=stacked)
        observer = get_observer()
        if observer is not None:
            observer.emit("span", name="serve.request", seconds=seconds,
                          spec=short_hash(key), cache=status,
                          stacked=stacked)
            observer.metrics.inc("serve.requests")
            observer.metrics.observe("serve.request.seconds", seconds)
        return ScenarioResponse(key, body, status, stacked, seconds)

    # -- health/SLO --------------------------------------------------------
    def slo_snapshot(self, *, publish: bool = True) -> dict[str, float | int]:
        """Current sliding-window SLO summary (see :class:`SLOTracker`).

        With ``publish`` (the default) the snapshot is also written to
        the observer's ``serve.slo.*`` gauges, so a ``/metrics`` scrape
        refreshes what it reports.
        """
        observer = get_observer()
        depth = self.batcher.depth()
        if publish and observer is not None:
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
