"""Zero-dependency metrics primitives: counters, gauges, histograms.

A :class:`MetricsRegistry` is a named collection of three instrument
kinds, modeled on the Prometheus client data model but with no external
dependency and no background machinery:

* :class:`Counter` — monotonically increasing totals (``solver.nfev``,
  ``sweep.tasks``);
* :class:`Gauge` — last-write-wins level readings (``sweep.workers``);
* :class:`Histogram` — streaming summaries (count / sum / min / max /
  mean, plus reservoir-estimated quantiles) of an observed quantity,
  e.g. per-task wall seconds.  The histogram keeps O(1) aggregate state
  and a bounded sample reservoir, so it is safe on hot paths.

All instruments are thread-safe (one lock per registry): the thread
executor runs instrumented solver code concurrently in worker threads
that share the process-global registry.  Snapshots are plain JSON-ready
dictionaries; :func:`repro.bench.timing.write_bench_json` stamps one
into every ``BENCH_*.json`` payload, and the manifest writer embeds one
in the ``manifest_end`` event (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import threading

from repro.exceptions import ParameterError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


def _metric_name(name: str) -> str:
    """Exposition-format metric name (dots become underscores)."""
    return name.replace(".", "_").replace("-", "_")


class Counter:
    """Monotonically increasing total; negative increments are rejected."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ParameterError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """Last-write-wins level reading (may move in either direction)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Bounded reservoir size backing :meth:`Histogram.quantile`.
_RESERVOIR_SIZE = 256


def sorted_quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolation ``q``-quantile of an already-sorted list;
    0.0 when it is empty."""
    if len(ordered) < 2:
        return ordered[0] if ordered else 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    frac = position - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


#: Knuth LCG constants for the deterministic reservoir index stream.
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class Histogram:
    """Streaming summary of an observed quantity (bounded state).

    Keeps O(1) aggregate state (count/sum/min/max) plus a bounded
    reservoir of at most :data:`_RESERVOIR_SIZE` samples for
    :meth:`quantile` estimates.  The reservoir uses its own tiny LCG
    (seeded per instance, deterministic) so observing values never
    touches any global random state — instrumentation cannot perturb
    seeded simulations.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_reservoir",
                 "_lcg")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._reservoir: list[float] = []
        self._lcg = 1

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < _RESERVOIR_SIZE:
            self._reservoir.append(value)
        else:
            # Algorithm R with a deterministic index stream: replace a
            # random slot with probability reservoir/count.
            self._lcg = (_LCG_A * self._lcg + _LCG_C) & _LCG_MASK
            slot = (self._lcg >> 16) % self.count
            if slot < _RESERVOIR_SIZE:
                self._reservoir[slot] = value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) of the observed values.

        Exact while at most :data:`_RESERVOIR_SIZE` values have been
        observed; a reservoir estimate beyond that.  An empty histogram
        reports 0.0 for every quantile, matching the zeros convention of
        :meth:`summary`; a single-sample histogram reports that sample
        for every ``q``.
        """
        if not 0.0 <= q <= 1.0:
            raise ParameterError(
                f"quantile must be in [0, 1], got {q}")
        return sorted_quantile(sorted(self._reservoir), q)

    def reset(self) -> None:
        """Return to the freshly-constructed state (name kept)."""
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._reservoir.clear()
        self._lcg = 1

    def summary(self) -> dict[str, float]:
        """JSON-ready summary; empty histograms report zeros."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {"count": self.count, "sum": self.total, "min": self.min,
                "max": self.max, "mean": self.total / self.count}


class MetricsRegistry:
    """Named counters/gauges/histograms behind one lock.

    Instruments are created on first use (``registry.counter("x").inc()``)
    and a name maps to exactly one instrument kind — reusing a counter
    name for a gauge raises :class:`~repro.exceptions.ParameterError`.
    An optional ``help`` string (kept from the first registration that
    provides one) becomes the ``# HELP`` line of the exposition format.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._help: dict[str, str] = {}

    def _get(self, table: dict, name: str, factory, kind: str,
             help: str | None = None):
        with self._lock:
            if help is not None and name not in self._help:
                self._help[name] = str(help)
            instrument = table.get(name)
            if instrument is None:
                for other_kind, other in (("counter", self._counters),
                                          ("gauge", self._gauges),
                                          ("histogram", self._histograms)):
                    if other is not table and name in other:
                        raise ParameterError(
                            f"metric {name!r} already registered as a "
                            f"{other_kind}, cannot reuse it as a {kind}")
                instrument = table[name] = factory(name)
            return instrument

    def counter(self, name: str, help: str | None = None) -> Counter:
        return self._get(self._counters, name, Counter, "counter", help)

    def gauge(self, name: str, help: str | None = None) -> Gauge:
        return self._get(self._gauges, name, Gauge, "gauge", help)

    def histogram(self, name: str, help: str | None = None) -> Histogram:
        return self._get(self._histograms, name, Histogram, "histogram",
                         help)

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Shorthand: ``registry.counter(name).inc(amount)``."""
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Shorthand: ``registry.histogram(name).observe(value)``."""
        self.histogram(name).observe(value)

    def reset(self) -> None:
        """Zero every instrument, keeping names (and kinds) registered.

        Counters and gauges return to 0.0, histograms to the empty
        state, so a long-lived registry can be reused across runs
        without tearing down the instrument tables.
        """
        with self._lock:
            for counter in self._counters.values():
                counter.value = 0.0
            for gauge in self._gauges.values():
                gauge.value = 0.0
            for histogram in self._histograms.values():
                histogram.reset()

    def render_text(self) -> str:
        """Prometheus exposition-format text of every instrument.

        Metric names swap dots for underscores (``serve.cache.hits`` →
        ``serve_cache_hits``) and every family gets ``# HELP`` /
        ``# TYPE`` header lines so standard collectors can scrape the
        output.  Counters render as ``counter`` families, gauges as
        ``gauge``, histograms as ``summary`` families — p50/p95/p99
        ``{quantile="…"}`` sample lines plus ``_sum`` and ``_count``
        — with the min/max/mean extras exposed as companion ``gauge``
        families (``<name>_min`` etc., not part of the summary type).
        This is the body of the server's ``GET /metrics`` endpoint —
        text-tool friendly (``curl | grep serve_cache``), stable
        ordering (sorted names).
        """
        with self._lock:
            lines: list[str] = []

            def header(base: str, name: str, kind: str) -> None:
                text = self._help.get(name, f"repro metric {name}")
                lines.append(f"# HELP {base} {text}")
                lines.append(f"# TYPE {base} {kind}")

            for name in sorted(self._counters):
                base = _metric_name(name)
                header(base, name, "counter")
                lines.append(f"{base} {self._counters[name].value:g}")
            for name in sorted(self._gauges):
                base = _metric_name(name)
                header(base, name, "gauge")
                lines.append(f"{base} {self._gauges[name].value:g}")
            for name in sorted(self._histograms):
                histogram = self._histograms[name]
                base = _metric_name(name)
                summary = histogram.summary()
                header(base, name, "summary")
                for q in (0.5, 0.95, 0.99):
                    lines.append(f'{base}{{quantile="{q:g}"}} '
                                 f"{histogram.quantile(q):g}")
                lines.append(f"{base}_sum {summary['sum']:g}")
                lines.append(f"{base}_count {summary['count']:g}")
                for stat in ("min", "max", "mean"):
                    header(f"{base}_{stat}", name, "gauge")
                    lines.append(f"{base}_{stat} {summary[stat]:g}")
            return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, dict[str, object]]:
        """JSON-ready snapshot of every instrument.

        Layout (the ``metrics`` block of bench payloads and the
        ``manifest_end`` event)::

            {"counters": {name: total, ...},
             "gauges": {name: value, ...},
             "histograms": {name: {count, sum, min, max, mean}, ...}}
        """
        with self._lock:
            return {
                "counters": {n: c.value for n, c in self._counters.items()},
                "gauges": {n: g.value for n, g in self._gauges.items()},
                "histograms": {n: h.summary()
                               for n, h in self._histograms.items()},
            }
