"""Unit tests for the observability layer (:mod:`repro.obs`).

Covers the metrics primitives, event sinks, the observer lifecycle
(install/uninstall, spans, PID guard), the manifest validators, the
structured logger, and the progress aggregator — all in isolation from
the numerical code (integration coverage lives in
``tests/test_obs_integration.py``).
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.exceptions import ParameterError
from repro.obs.events import (
    EVENT_TYPES,
    OBS_SCHEMA,
    validate_event,
    validate_manifest,
)
from repro.obs.log import (
    get_level,
    log,
    reset_once,
    set_level,
    warning,
)
from repro.obs.manifest import JsonlSink, MemorySink, NullSink
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.progress import ProgressAggregator, summary_text
from repro.obs.reader import load_manifest
from repro.obs.trace import (
    Observer,
    get_observer,
    install,
    observing,
    span,
    uninstall,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with no observer and default log state."""
    uninstall()
    set_level("warning")
    reset_once()
    yield
    uninstall()
    set_level("warning")
    reset_once()


# -- metrics ---------------------------------------------------------------

class TestMetrics:
    def test_counter_accumulates(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ParameterError):
            Counter("x").inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("x")
        gauge.set(4)
        gauge.set(2)
        assert gauge.value == 2.0

    def test_histogram_summary(self):
        hist = Histogram("x")
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0,
                           "mean": 2.0}

    def test_empty_histogram_summary_is_zeros(self):
        assert Histogram("x").summary()["count"] == 0

    def test_registry_create_on_first_use(self):
        registry = MetricsRegistry()
        registry.inc("a", 2)
        registry.inc("a")
        registry.gauge("g").set(7)
        registry.observe("h", 0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 3.0}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_registry_rejects_kind_reuse(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ParameterError):
            registry.gauge("x")
        with pytest.raises(ParameterError):
            registry.histogram("x")

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.observe("h", 1.0)
        json.dumps(registry.snapshot())  # must not raise

    def test_empty_histogram_quantiles_are_zero(self):
        hist = Histogram("x")
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(1.0) == 0.0

    def test_single_sample_histogram_quantiles(self):
        hist = Histogram("x")
        hist.observe(3.5)
        for q in (0.0, 0.25, 0.5, 1.0):
            assert hist.quantile(q) == 3.5

    def test_quantile_exact_below_reservoir_bound(self):
        hist = Histogram("x")
        for value in (4.0, 1.0, 3.0, 2.0, 5.0):
            hist.observe(value)
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(0.5) == 3.0
        assert hist.quantile(1.0) == 5.0
        assert hist.quantile(0.25) == 2.0  # linear interpolation grid

    def test_quantile_out_of_range_rejected(self):
        hist = Histogram("x")
        hist.observe(1.0)
        with pytest.raises(ParameterError):
            hist.quantile(-0.1)
        with pytest.raises(ParameterError):
            hist.quantile(1.1)

    def test_quantile_reservoir_estimate_beyond_bound(self):
        # Feed far more samples than the reservoir holds: estimates
        # must stay inside the observed range and be deterministic
        # across identical runs (the LCG is per-instance, seeded).
        def fill():
            hist = Histogram("x")
            for i in range(5000):
                hist.observe(float(i % 100))
            return hist
        a, b = fill(), fill()
        assert a.count == 5000
        for q in (0.1, 0.5, 0.9):
            assert 0.0 <= a.quantile(q) <= 99.0
            assert a.quantile(q) == b.quantile(q)
        assert a.quantile(0.5) == pytest.approx(49.5, abs=15.0)

    def test_histogram_reset_returns_to_empty(self):
        hist = Histogram("x")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        hist.reset()
        assert hist.summary() == {"count": 0, "sum": 0.0, "min": 0.0,
                                  "max": 0.0, "mean": 0.0}
        assert hist.quantile(0.5) == 0.0
        # Observations after reset behave like a fresh histogram.
        hist.observe(7.0)
        assert hist.summary()["mean"] == 7.0
        assert hist.quantile(0.5) == 7.0

    def test_registry_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.inc("c", 5)
        registry.gauge("g").set(3)
        registry.observe("h", 2.0)
        registry.reset()
        snap = registry.snapshot()
        # Names stay registered (and kind-locked), values are zeroed.
        assert snap["counters"] == {"c": 0.0}
        assert snap["gauges"] == {"g": 0.0}
        assert snap["histograms"]["h"]["count"] == 0
        with pytest.raises(ParameterError):
            registry.gauge("c")  # kind lock survives reset
        registry.inc("c")
        assert registry.snapshot()["counters"]["c"] == 1.0


# -- sinks -----------------------------------------------------------------

#: The framing event a manifest opens with, as the observer writes it.
MANIFEST_START = {"type": "manifest_start", "t": 0.0, "schema": OBS_SCHEMA,
                  "created_utc": "", "run": {}}


class TestSinks:
    def test_memory_sink_collects_and_filters(self):
        sink = MemorySink()
        sink.write({"type": "span", "t": 0.0})
        sink.write({"type": "log", "t": 0.1})
        assert len(sink.events) == 2
        assert [e["type"] for e in sink.of_type("span")] == ["span"]

    def test_null_sink_discards(self):
        NullSink().write({"type": "span", "t": 0.0})  # must not raise

    def test_jsonl_sink_writes_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write(MANIFEST_START)
        sink.write({"type": "span", "t": 0.0, "name": "x", "seconds": 1.0})
        sink.close()
        events = load_manifest(path).events
        assert events[1]["name"] == "x"

    def test_jsonl_sink_serializes_numpy(self, tmp_path):
        np = pytest.importorskip("numpy")
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write(MANIFEST_START)
        sink.write({"type": "span", "t": 0.0, "name": "x", "seconds": 0.0,
                    "value": np.float64(2.5), "arr": np.arange(3)})
        sink.close()
        event = load_manifest(path).events[1]
        assert event["value"] == 2.5
        assert event["arr"] == [0, 1, 2]


# -- observer --------------------------------------------------------------

class TestObserver:
    def test_hook_install_uninstall(self):
        assert get_observer() is None
        observer = Observer()
        install(observer)
        assert get_observer() is observer
        uninstall()
        assert get_observer() is None

    def test_emit_stamps_type_and_time(self):
        sink = MemorySink()
        observer = Observer(sink)
        observer.emit("span", name="x", seconds=0.5)
        event = sink.events[0]
        assert event["type"] == "span"
        assert event["t"] >= 0.0
        assert event["name"] == "x"

    def test_span_emits_event(self):
        sink = MemorySink()
        observer = Observer(sink)
        with observer.span("work", points=3):
            pass
        event = sink.of_type("span")[0]
        assert event["name"] == "work"
        assert event["seconds"] >= 0.0
        assert event["attrs"] == {"points": 3}
        assert "error" not in event

    def test_span_emits_on_raise_with_error(self):
        sink = MemorySink()
        observer = Observer(sink)
        with pytest.raises(ValueError):
            with observer.span("work"):
                raise ValueError("boom")
        assert sink.of_type("span")[0]["error"] == "ValueError"

    def test_module_span_noop_without_observer(self):
        with span("work"):  # must not raise
            pass

    def test_pid_guard_drops_foreign_emits(self):
        sink = MemorySink()
        observer = Observer(sink)
        observer.pid = os.getpid() + 1  # simulate a forked child
        observer.emit("span", name="x", seconds=0.0)
        assert sink.events == []

    def test_observing_frames_manifest(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with observing(path, run={"command": "test"}):
            get_observer().emit("span", name="x", seconds=0.0)
        events = validate_manifest(path)
        assert events[0]["type"] == "manifest_start"
        assert events[0]["schema"] == OBS_SCHEMA
        assert events[0]["run"] == {"command": "test"}
        assert events[-1]["type"] == "manifest_end"
        assert events[-1]["metrics"]["counters"] == {}
        assert get_observer() is None

    def test_observing_memory_sink_by_default(self):
        with observing() as observer:
            assert isinstance(observer.sink, MemorySink)
            assert get_observer() is observer
        assert get_observer() is None

    def test_closed_observer_drops_emits(self):
        sink = MemorySink()
        with observing(sink=sink) as observer:
            pass
        observer.emit("span", name="late", seconds=0.0)
        assert sink.events[-1]["type"] == "manifest_end"


# -- event schema ----------------------------------------------------------

class TestEventSchema:
    def test_known_types_validate(self):
        validate_event({"type": "span", "t": 0.0, "name": "x",
                        "seconds": 0.1})

    def test_unknown_type_rejected(self):
        with pytest.raises(ParameterError, match="unknown event type"):
            validate_event({"type": "mystery", "t": 0.0})

    def test_missing_field_rejected(self):
        with pytest.raises(ParameterError, match="missing required"):
            validate_event({"type": "span", "t": 0.0})

    def test_missing_t_rejected(self):
        with pytest.raises(ParameterError, match="'t'"):
            validate_event({"type": "span", "name": "x", "seconds": 0.1})

    def test_schema_is_closed_and_documented(self):
        assert "solver" in EVENT_TYPES
        assert "fbsm_iteration" in EVENT_TYPES
        assert "task" in EVENT_TYPES

    def test_validate_manifest_rejects_truncation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with observing(path):
            pass
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParameterError, match="manifest_end"):
            validate_manifest(path)

    def test_validate_manifest_rejects_unknown_event(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with observing(path):
            pass
        with path.open("a") as handle:
            handle.write(json.dumps({"type": "mystery", "t": 1.0}) + "\n")
        with pytest.raises(ParameterError, match="unknown event type"):
            validate_manifest(path)

    def test_validate_manifest_missing_file(self, tmp_path):
        with pytest.raises(ParameterError, match="not found"):
            validate_manifest(tmp_path / "absent.jsonl")


# -- logging ---------------------------------------------------------------

class TestLogging:
    def test_threshold_filters_stderr(self):
        stream = io.StringIO()
        log("info", "quiet.event", stream=stream)
        assert stream.getvalue() == ""
        log("warning", "loud.event", code=7, stream=stream)
        assert "[warning] loud.event code=7" in stream.getvalue()

    def test_set_level_changes_threshold(self):
        set_level("debug")
        assert get_level() == "debug"
        stream = io.StringIO()
        log("debug", "now.visible", stream=stream)
        assert "now.visible" in stream.getvalue()

    def test_unknown_level_rejected(self):
        with pytest.raises(ParameterError):
            set_level("loud")
        with pytest.raises(ParameterError):
            log("loud", "x")

    def test_once_deduplicates(self):
        stream = io.StringIO()
        assert warning("dup.event", once="k", stream=stream)
        assert not warning("dup.event", once="k", stream=stream)
        assert stream.getvalue().count("dup.event") == 1

    def test_log_reaches_manifest_below_threshold(self):
        with observing() as observer:
            log("info", "trace.me", detail=1, stream=io.StringIO())
            events = observer.sink.of_type("log")
        assert events[0]["event"] == "trace.me"
        assert events[0]["fields"] == {"detail": 1}

    def test_every_n_passes_first_then_every_nth(self):
        stream = io.StringIO()
        emitted = [warning("flood.event", every_n=3, stream=stream)
                   for _ in range(7)]
        # Occurrences 1, 4, 7 pass: first always, then every 3rd miss.
        assert emitted == [True, False, False, True, False, False, True]
        assert stream.getvalue().count("flood.event") == 3

    def test_suppressed_count_stamped_on_reemission(self):
        stream = io.StringIO()
        with observing() as observer:
            for _ in range(5):
                warning("flood.event", every_n=4, stream=stream)
            events = observer.sink.of_type("log")
        # Emits at occurrence 1 and at occurrence 5 (4 misses later),
        # the second stamped with how many records it stands for.
        assert len(events) == 2
        assert "suppressed" not in events[0]["fields"]
        assert events[1]["fields"]["suppressed"] == 4
        assert "suppressed=4" in stream.getvalue()

    def test_min_interval_rate_limits_by_time(self):
        stream = io.StringIO()
        assert warning("tick.event", min_interval=3600.0, stream=stream)
        assert not warning("tick.event", min_interval=3600.0,
                           stream=stream)
        assert not warning("tick.event", min_interval=3600.0,
                           stream=stream)
        assert stream.getvalue().count("tick.event") == 1
        # A zero interval always passes (elapsed >= 0).
        assert warning("tick.event", min_interval=0.0, stream=stream)

    def test_rate_limit_keys_are_per_event_and_level(self):
        stream = io.StringIO()
        assert warning("a.event", every_n=10, stream=stream)
        assert warning("b.event", every_n=10, stream=stream)
        assert not warning("a.event", every_n=10, stream=stream)

    def test_rate_limit_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            log("warning", "x", every_n=0)
        with pytest.raises(ParameterError):
            log("warning", "x", min_interval=-1.0)

    def test_reset_once_clears_rate_state(self):
        stream = io.StringIO()
        assert warning("r.event", every_n=5, stream=stream)
        assert not warning("r.event", every_n=5, stream=stream)
        reset_once()
        assert warning("r.event", every_n=5, stream=stream)


# -- progress --------------------------------------------------------------

class TestProgress:
    def test_summary_shape(self):
        agg = ProgressAggregator("sweep", total=4, workers=2)
        for index, seconds in enumerate((0.1, 0.4, 0.2, 0.3)):
            agg.task_done(index, seconds, ok=index != 2,
                          point={"eps1": index})
        agg.chunk_done("w0", 0.5)
        agg.chunk_done("w1", 0.5)
        summary = agg.finish()
        assert summary["name"] == "sweep"
        assert summary["tasks"] == 4
        assert summary["errors"] == 1
        assert summary["workers"] == 2
        assert summary["busy_seconds"] == 1.0
        assert 0.0 <= summary["utilization"]
        assert summary["slowest"][0]["index"] == 1
        assert summary["slowest"][0]["point"] == {"eps1": 1}
        assert set(summary["busy_by_worker"]) == {"w0", "w1"}

    def test_slowest_capped_at_five(self):
        agg = ProgressAggregator("sweep", total=100, workers=1)
        for index in range(100):
            agg.task_done(index, index / 1000.0, ok=True)
        assert len(agg.finish()["slowest"]) == 5

    def test_live_rendering_writes_lines(self):
        stream = io.StringIO()
        agg = ProgressAggregator("sweep", total=2, workers=1, live=True,
                                 stream=stream)
        agg.task_done(0, 0.1, ok=True)
        agg.finish()
        assert "[sweep]" in stream.getvalue()

    def test_summary_text_renders(self):
        agg = ProgressAggregator("sweep", total=1, workers=1)
        agg.task_done(0, 0.1, ok=True)
        text = summary_text(agg.finish())
        assert "sweep: 1 tasks" in text
        assert "slowest" in text
