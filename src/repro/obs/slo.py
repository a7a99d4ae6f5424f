"""Sliding-window serve SLOs: latency quantiles, error rate, ratios.

The scenario daemon (:mod:`repro.serve.service`) answers many small
requests; its cumulative metrics (total hits, total requests) say
little about how the service feels *right now*.  An :class:`SLOTracker`
keeps a bounded ring buffer of recent request samples and summarizes
the last ``window_seconds`` of them on demand:

* latency p50/p95/p99 (exact over the window, not reservoir-estimated
  — the window is small by construction),
* error rate,
* cache hit-rate and micro-batch coalesce/stack ratios,
* the current batcher queue depth (sampled at snapshot time).

The window is bounded twice: by ``window_seconds`` and by the ring's
capacity (2048 samples).  A 60 s window holds every sample only below
~34 req/s; at the rates the daemon answers cache hits with (0.7–2.1k
req/s measured, median 1.5k) the ring covers the last 1–3 s instead.
It is not grown to match: 60 s at 1.8k req/s measured 15.6 MB (144 B
per sample), several times the daemon's whole memory budget under the
serving benchmark.

Snapshots are cheap (sort of at most ``maxlen`` floats) and taken only
when someone asks — ``GET /metrics``, ``GET /healthz``, the
``--status-interval`` logger, or service shutdown (which stamps the
final snapshot into the manifest as an ``slo`` event, schema
``repro-obs/3``).  Recording a sample is O(1) and lock-free apart from
the deque's own thread-safe append.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable

from repro.exceptions import ParameterError
from repro.obs.metrics import sorted_quantile

__all__ = ["SLOTracker"]

#: Ring-buffer capacity: a 60 s window saturates above ~34 req/s, after
#: which quantiles describe "the most recent 2048 requests" — about the
#: last 1–3 s at cache-hit rates (see module docstring).
_DEFAULT_CAPACITY = 2048


class SLOTracker:
    """Bounded ring buffer of request samples + windowed summaries.

    Parameters
    ----------
    window_seconds:
        How far back :meth:`snapshot` looks.  Samples older than the
        window stay in the ring (they roll off by capacity) but are
        excluded from summaries.
    clock:
        Monotonic time source, injectable for tests.
    capacity:
        Ring size; oldest samples are dropped beyond it.
    """

    def __init__(self, window_seconds: float = 60.0, *,
                 clock: Callable[[], float] | None = None,
                 capacity: int = _DEFAULT_CAPACITY) -> None:
        if window_seconds <= 0:
            raise ParameterError(
                f"window_seconds must be positive, got {window_seconds}")
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self.window_seconds = float(window_seconds)
        self._clock = clock
        self._samples: deque[
            tuple[float, float, bool, bool, bool, bool]] = deque(
                maxlen=int(capacity))
        self._lock = threading.Lock()

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        import time
        return time.monotonic()

    # -- recording -----------------------------------------------------------
    def record(self, seconds: float, *, cache_hit: bool = False,
               coalesced: bool = False, stacked: bool = False,
               error: bool = False) -> None:
        """Record one finished request (its wall time and how it ran)."""
        self._samples.append((self._now(), float(seconds), bool(cache_hit),
                              bool(coalesced), bool(stacked), bool(error)))

    # -- summarizing ---------------------------------------------------------
    def snapshot(self, *, queue_depth: int = 0) -> dict[str, float | int]:
        """Summarize the last ``window_seconds`` of samples.

        Always returns the full key set (zeros when the window is
        empty) so the gauge families on ``/metrics`` are stable and
        ``repro obs compare`` sees no shape drift between runs.
        """
        cutoff = self._now() - self.window_seconds
        with self._lock:
            window = [s for s in self._samples if s[0] >= cutoff]
        latencies = sorted(s[1] for s in window)
        requests = len(window)
        hits = sum(1 for s in window if s[2])
        coalesced = sum(1 for s in window if s[3])
        stacked = sum(1 for s in window if s[4])
        errors = sum(1 for s in window if s[5])
        misses = requests - hits - coalesced
        return {
            "window_seconds": self.window_seconds,
            "requests": requests,
            "errors": errors,
            "error_rate": errors / requests if requests else 0.0,
            "latency_p50": sorted_quantile(latencies, 0.50),
            "latency_p95": sorted_quantile(latencies, 0.95),
            "latency_p99": sorted_quantile(latencies, 0.99),
            "cache_hit_rate": hits / requests if requests else 0.0,
            "coalesce_ratio": coalesced / requests if requests else 0.0,
            "stack_ratio": stacked / misses if misses > 0 else 0.0,
            "queue_depth": int(queue_depth),
        }

    def publish(self, metrics, *,
                queue_depth: int = 0) -> dict[str, float | int]:
        """Set ``serve.slo.*`` gauges from a fresh snapshot; return it.

        Gauges are last-write-wins, so republishing on every
        ``/metrics`` scrape keeps them current without any background
        thread.  The caller pre-registers the gauge names once (the
        service does, at construction) so the metric key set is stable
        from the first scrape.
        """
        snap = self.snapshot(queue_depth=queue_depth)
        for key, value in snap.items():
            metrics.gauge(f"serve.slo.{key}").set(float(value))
        return snap
