"""Tests for the ``repro serve`` HTTP daemon (:mod:`repro.serve.http`).

Endpoint behavior runs against an in-process server (``run_server`` in
a helper thread driven by ``ready``/``stop`` events); the graceful-
shutdown contract — SIGTERM drains batches, flushes the JSONL manifest
and exits 0 — is pinned with a real ``python -m repro ... serve``
subprocess, mirroring the durability tests in test_obs_resources.py.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.obs.events import validate_manifest
from repro.obs.manifest import MemorySink
from repro.obs.reader import load_manifest
from repro.obs.trace import observing
from repro.serve.http import run_server
from repro.serve.service import ScenarioService

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def small_payload(**overrides) -> dict:
    payload = {
        "network": {"kind": "power_law", "k_min": 1, "k_max": 20,
                    "exponent": 2.0},
        "eps1": 0.2, "eps2": 0.05, "t_final": 10.0, "n_samples": 11,
    }
    payload.update(overrides)
    return payload


@contextlib.contextmanager
def live_server(**service_kwargs):
    """Run ``run_server`` on an ephemeral port; yield the bound port."""
    ready = threading.Event()
    stop = threading.Event()
    banner = io.StringIO()
    outcome: dict[str, int] = {}

    def serve() -> None:
        outcome["rc"] = run_server(
            "127.0.0.1", 0, install_signal_handlers=False,
            ready=ready, stop=stop, **service_kwargs)

    thread = threading.Thread(target=serve, daemon=True)
    # The announcement line is printed before `ready` is set, so the
    # redirect window around start+wait captures the resolved port.
    with contextlib.redirect_stdout(banner):
        thread.start()
        assert ready.wait(timeout=10.0)
    port = int(banner.getvalue().strip().rsplit(":", 1)[1])
    try:
        yield port
    finally:
        stop.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcome["rc"] == 0


def request(port: int, method: str, path: str, body: dict | None = None):
    """One HTTP round trip; returns (status, decoded body)."""
    status, decoded, _headers = request_full(port, method, path, body)
    return status, decoded


def request_full(port: int, method: str, path: str,
                 body: dict | None = None,
                 headers: dict[str, str] | None = None):
    """One round trip keeping response headers: (status, body, headers)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        decoded = (json.loads(raw) if "json" in content_type
                   else raw.decode("utf-8"))
        return response.status, decoded, dict(response.getheaders())
    finally:
        conn.close()


class TestEndpoints:
    def test_post_sync_miss_then_hit(self):
        sink = MemorySink()
        with observing(None, sink=sink, run={"case": "http"}):
            with live_server(window_seconds=0.005) as port:
                status, first = request(port, "POST", "/scenario",
                                        small_payload())
                assert status == 200
                assert first["cache"] == "miss"
                assert first["result"]["kind"] == "trajectory"
                assert first["result"]["r0"] > 0
                assert len(first["spec_hash"]) == 64
                status, second = request(port, "POST", "/scenario",
                                         small_payload())
                assert status == 200
                assert second["cache"] == "hit"
                assert second["result"] == first["result"]
        spans = [e for e in sink.events
                 if e["type"] == "span" and e["name"] == "serve.request"]
        assert [s["cache"] for s in spans] == ["miss", "hit"]

    def test_post_async_then_poll_to_completion(self):
        with live_server(window_seconds=0.005) as port:
            status, accepted = request(
                port, "POST", "/scenario?mode=async",
                small_payload(eps1=0.31))
            assert status == 202
            assert accepted["status"] == "accepted"
            assert accepted["poll"] == f"/scenario/{accepted['spec_hash']}"
            deadline = time.monotonic() + 30.0
            while True:
                status, polled = request(port, "GET", accepted["poll"])
                if status == 200:
                    break
                assert status == 202  # pending — not yet 404able
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert polled["result"]["kind"] == "trajectory"
            assert polled["spec_hash"] == accepted["spec_hash"]

    def test_healthz_reports_cache_stats(self):
        with live_server() as port:
            status, body = request(port, "GET", "/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert set(body["cache"]) >= {"entries", "hits", "misses",
                                          "evictions"}

    def test_metrics_exposes_cache_counters(self):
        with observing(None, sink=MemorySink(), run={"case": "metrics"}):
            with live_server() as port:
                request(port, "POST", "/scenario", small_payload())
                request(port, "POST", "/scenario", small_payload())
                status, text = request(port, "GET", "/metrics")
        assert status == 200
        lines = dict(line.rsplit(" ", 1) for line in text.splitlines()
                     if " " in line and not line.startswith("#"))
        assert float(lines["serve_cache_hits"]) == 1
        assert float(lines["serve_cache_misses"]) == 1
        assert float(lines["serve_requests"]) == 2
        assert float(lines["serve_request_seconds_count"]) == 2

    def test_metrics_without_observer_explains(self):
        with live_server() as port:
            status, text = request(port, "GET", "/metrics")
        assert status == 200
        assert text.startswith("# no observer installed")

    def test_presets_listing(self):
        with live_server() as port:
            status, body = request(port, "GET", "/presets")
        assert status == 200
        names = [entry["name"] for entry in body["presets"]]
        assert "digg2009" in names
        assert all("summary" in entry for entry in body["presets"])

    def test_bad_spec_is_400(self):
        with live_server() as port:
            status, body = request(port, "POST", "/scenario",
                                   {"bogus": 1})
            assert status == 400
            assert "unknown scenario field" in body["error"]
            status, body = request(port, "POST", "/scenario",
                                   small_payload(eps1=-1.0))
            assert status == 400

    def test_malformed_hash_is_400(self):
        with live_server() as port:
            status, body = request(port, "GET", "/scenario/nothex")
            assert status == 400
            assert "spec hash" in body["error"]

    def test_unknown_hash_is_404(self):
        with live_server() as port:
            status, body = request(port, "GET", "/scenario/" + "0" * 64)
            assert status == 404
            assert "resubmit" in body["error"]

    def test_unknown_path_is_404(self):
        with live_server() as port:
            for method in ("GET", "POST"):
                status, _body = request(port, method, "/nope")
                assert status == 404

    def test_shared_service_outlives_server(self):
        """A caller-owned service is not closed by run_server, so its
        cache warms across server restarts."""
        with ScenarioService(window_seconds=0.005) as service:
            with live_server(service=service) as port:
                status, first = request(port, "POST", "/scenario",
                                        small_payload(eps1=0.27))
                assert first["cache"] == "miss"
            with live_server(service=service) as port:
                status, again = request(port, "POST", "/scenario",
                                        small_payload(eps1=0.27))
                assert again["cache"] == "hit"


class TestKeepAlive:
    @pytest.mark.parametrize("n_samples, min_body", [(61, 4_000),
                                                     (401, 25_000)])
    def test_sequential_hits_on_one_connection_do_not_stall(
            self, n_samples, min_body):
        """A response sent as two writes (headers, then body) waits
        out the client's ~40 ms delayed ACK on a keep-alive
        connection; one write answers a cache hit in about a
        millisecond."""
        body = json.dumps(small_payload(n_samples=n_samples))
        with live_server(window_seconds=0.005) as port:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request("POST", "/scenario", body=body)
                miss = json.loads(conn.getresponse().read())
                trips = []
                for _ in range(25):
                    started = time.perf_counter()
                    conn.request("POST", "/scenario", body=body)
                    raw = conn.getresponse().read()
                    trips.append(time.perf_counter() - started)
                conn.request("GET", f"/scenario/{miss['spec_hash']}")
                polled = json.loads(conn.getresponse().read())
            finally:
                conn.close()
        hit = json.loads(raw)
        assert len(raw) >= min_body
        assert miss["cache"] == "miss" and hit["cache"] == "hit"
        assert statistics.median(trips) < 0.010, trips
        assert hit["spec_hash"] == polled["spec_hash"] == miss["spec_hash"]
        assert hit["result"] == polled["result"] == miss["result"]
        assert set(hit) == {"spec_hash", "trace_id", "cache", "stacked",
                            "seconds", "result"}


class TestHealthzEnrichment:
    def test_healthz_runtime_identity_fields(self):
        """Regression: /healthz must keep the operator-facing fields."""
        from repro import __version__

        with live_server() as port:
            status, body = request(port, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0.0
        assert body["version"] == __version__
        assert body["spec_families"] >= 1
        assert body["alarms"] == {}
        assert body["cache_disk"] == {"tier": "disabled", "blobs": 0,
                                      "read_errors": 0}
        assert set(body["slo"]) >= {"window_seconds", "requests",
                                    "errors", "error_rate", "latency_p50",
                                    "latency_p95", "latency_p99",
                                    "cache_hit_rate", "queue_depth"}

    def test_healthz_disk_tier_status(self, tmp_path):
        with live_server(cache_dir=str(tmp_path / "blobs")) as port:
            request(port, "POST", "/scenario", small_payload())
            status, body = request(port, "GET", "/healthz")
        assert status == 200
        assert body["cache_disk"]["tier"] == "ok"
        assert body["cache_disk"]["blobs"] == 1
        assert body["cache_disk"]["read_errors"] == 0


class TestTraceIds:
    def test_client_trace_id_echoed_and_propagated(self, tmp_path,
                                                   capsys):
        """One X-Trace-Id threads header -> payload -> span -> solver
        -> batch events, and `repro obs report --trace` finds them."""
        manifest = tmp_path / "serve.jsonl"
        trace_id = "e2e-trace.test_01"
        with observing(str(manifest), run={"case": "trace"}):
            with live_server(window_seconds=0.005) as port:
                status, body, headers = request_full(
                    port, "POST", "/scenario", small_payload(),
                    headers={"X-Trace-Id": trace_id})
        assert status == 200
        assert headers["X-Trace-Id"] == trace_id
        assert body["trace_id"] == trace_id

        loaded = load_manifest(manifest)
        traced = loaded.for_trace(trace_id)
        by_type = {}
        for event in traced:
            by_type.setdefault(event["type"], []).append(event)
        request_spans = [e for e in by_type.get("span", ())
                         if e["name"] == "serve.request"]
        batch_spans = [e for e in by_type.get("span", ())
                       if e["name"] == "serve.batch"]
        assert len(request_spans) == 1
        assert len(batch_spans) == 1
        assert len(by_type.get("solver", ())) == 1

        from repro.cli import main

        assert main(["obs", "report", str(manifest),
                     "--trace", trace_id]) == 0
        out = capsys.readouterr().out
        assert trace_id in out
        assert "serve.request" in out
        assert "solver" in out

    def test_trace_id_generated_when_absent(self):
        with observing(None, sink=MemorySink(), run={"case": "gen"}):
            with live_server(window_seconds=0.005) as port:
                status, body, headers = request_full(
                    port, "POST", "/scenario", small_payload())
        assert status == 200
        generated = headers["X-Trace-Id"]
        assert len(generated) == 16
        assert body["trace_id"] == generated

    def test_async_submission_carries_trace_id(self):
        sink = MemorySink()
        trace_id = "async-trace-7"
        with observing(None, sink=sink, run={"case": "async"}):
            with live_server(window_seconds=0.005) as port:
                status, accepted, headers = request_full(
                    port, "POST", "/scenario?mode=async",
                    small_payload(eps1=0.33),
                    headers={"X-Trace-Id": trace_id})
                assert status == 202
                assert accepted["trace_id"] == trace_id
                assert headers["X-Trace-Id"] == trace_id
                deadline = time.monotonic() + 30.0
                while request(port, "GET", accepted["poll"])[0] != 200:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
        # The worker thread re-established the contextvar: the span and
        # solver events carry the client's id despite the thread hop.
        traced = [e for e in sink.events
                  if e.get("trace_id") == trace_id
                  or trace_id in e.get("trace_ids", ())]
        assert {e["type"] for e in traced} >= {"span", "solver"}

    def test_invalid_trace_id_is_400(self):
        with live_server() as port:
            status, body, _headers = request_full(
                port, "POST", "/scenario", small_payload(),
                headers={"X-Trace-Id": "bad id with spaces"})
            assert status == 400
            assert "X-Trace-Id" in body["error"]
            status, _body, _headers = request_full(
                port, "GET", "/healthz",
                headers={"X-Trace-Id": "x" * 65})
            assert status == 400


class TestHealthThroughServe:
    def test_conservation_violation_flips_healthz(self):
        """A mass-leaking model family trips the conservation watchdog
        end-to-end: POST /scenario -> execute -> /healthz degrades."""
        from repro.serve.spec import (
            MODEL_FAMILIES,
            ModelFamily,
            get_family,
        )

        base = get_family("heterogeneous_sir")

        def leaky_run(spec):
            result = dict(base.run(spec))
            t = [float(v) for v in result["t"]]
            # Time-growing leak, relative size ~5e-4: inside the warn
            # band [1e-5, 1e-2), and NOT absorbed by the check's
            # anchoring at the actual initial mass.
            leak = [5e-4 * v / t[-1] for v in t]
            result["recovered"] = [
                float(r) - d for r, d in zip(result["recovered"], leak)]
            return result

        MODEL_FAMILIES["leaky_sir"] = ModelFamily(
            "leaky_sir", "test-only mass-leaking family",
            base.build_parameters, leaky_run)
        sink = MemorySink()
        try:
            with observing(None, sink=sink, run={"case": "leaky"}):
                with live_server(window_seconds=0.005) as port:
                    status, ok_body = request(port, "GET", "/healthz")
                    assert ok_body["status"] == "ok"
                    status, body = request(
                        port, "POST", "/scenario",
                        small_payload(model="leaky_sir"))
                    assert status == 200  # leak is subtle: result served
                    status, sick = request(port, "GET", "/healthz")
                    # warn keeps the node in rotation (200, not 503).
                    assert status == 200
                    assert sick["status"] == "warn"
                    alarm = sick["alarms"]["conservation"]
                    assert alarm["severity"] == "warn"
                    assert alarm["trips"] == 1
                    assert "drift" in alarm["detail"]
        finally:
            MODEL_FAMILIES.pop("leaky_sir", None)
        health_events = [e for e in sink.events if e["type"] == "health"]
        assert any(e["check"] == "conservation"
                   and e["severity"] == "warn" for e in health_events)

    def test_integration_blowup_degrades_then_heals(self):
        """An rk4 blow-up answers 500 JSON (not a dropped connection),
        flips /healthz to critical/503, and a later good request heals
        the live severity while ``worst`` stays latched."""
        blowup = small_payload(
            network={"kind": "power_law", "k_min": 1, "k_max": 30,
                     "exponent": 2.0},
            method="rk4", n_samples=6, t_final=200.0,
            calibration={"eps1": 0.2, "eps2": 0.05, "r0": 8.0})
        sink = MemorySink()
        with observing(None, sink=sink, run={"case": "blowup"}):
            with live_server(window_seconds=0.005) as port:
                status, body, headers = request_full(
                    port, "POST", "/scenario", blowup,
                    {"X-Trace-Id": "blowup-trace-1"})
                assert status == 500
                assert "non-finite" in body["error"]
                assert body["trace_id"] == "blowup-trace-1"
                assert headers.get("X-Trace-Id") == "blowup-trace-1"
                status, sick = request(port, "GET", "/healthz")
                assert status == 503
                assert sick["status"] == "critical"
                alarm = sick["alarms"]["integration"]
                assert alarm["severity"] == "critical"
                assert alarm["trips"] == 1
                assert "rk4 aborted" in alarm["detail"]
                assert sick["slo"]["errors"] >= 1
                status, _ = request(port, "POST", "/scenario",
                                    small_payload())
                assert status == 200
                status, healed = request(port, "GET", "/healthz")
                assert status == 200
                assert healed["status"] == "ok"
                assert healed["alarms"]["integration"]["worst"] == "critical"
        health_events = [e for e in sink.events if e["type"] == "health"]
        tripped = [e for e in health_events
                   if e["check"] == "integration"
                   and e["severity"] == "critical"]
        assert len(tripped) == 1
        assert tripped[0]["trace_id"] == "blowup-trace-1"

    def test_status_interval_logs_serve_status(self):
        sink = MemorySink()
        with observing(None, sink=sink, run={"case": "status"}):
            with live_server(window_seconds=0.005,
                             status_interval=0.05) as port:
                request(port, "POST", "/scenario", small_payload())
                time.sleep(0.2)
        status_logs = [e for e in sink.events
                       if e["type"] == "log"
                       and e["event"] == "serve.status"]
        assert status_logs
        fields = status_logs[-1]["fields"]
        assert fields["status"] == "ok"
        assert fields["requests"] >= 1
        assert set(fields) >= {"errors", "p95", "hit_rate", "queue"}


class TestCliWiring:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8722
        assert args.batch_window == pytest.approx(0.01)
        assert args.max_batch == 64
        assert args.cache_entries == 1024
        assert args.cache_dir is None
        assert args.status_interval is None

    def test_serve_parser_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--batch-window", "0.25",
             "--max-batch", "8", "--cache-entries", "16",
             "--cache-dir", "/tmp/blobs", "--status-interval", "30"])
        assert args.port == 0
        assert args.batch_window == pytest.approx(0.25)
        assert args.max_batch == 8
        assert args.cache_entries == 16
        assert args.cache_dir == "/tmp/blobs"
        assert args.status_interval == pytest.approx(30.0)

    def test_presets_parser(self):
        args = build_parser().parse_args(["presets", "list"])
        assert args.command == "presets"
        assert args.presets_command == "list"

    def test_presets_list_output(self, capsys):
        from repro.cli import main

        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        assert "digg2009" in out
        assert "heterogeneity_ratio" in out


class TestGracefulShutdown:
    def test_sigterm_drains_and_flushes_manifest(self, tmp_path):
        """`repro serve` killed with SIGTERM exits 0 with a complete,
        validatable manifest containing the served request spans."""
        manifest_path = tmp_path / "serve_manifest.jsonl"
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--trace-out",
             str(manifest_path), "serve", "--port", "0",
             "--batch-window", "0.005"],
            stdout=subprocess.PIPE, env=env, text=True)
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("serving on http://127.0.0.1:")
            port = int(line.rsplit(":", 1)[1])
            status, body = request(port, "POST", "/scenario",
                                   small_payload())
            assert status == 200
            assert body["result"]["kind"] == "trajectory"
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup path
                proc.kill()
                proc.wait()
            proc.stdout.close()
        # Graceful path: the handler trips the stop event, run_server
        # drains and returns 0 — unlike the raw-SIGTERM re-delivery in
        # test_obs_resources, this is a clean exit.
        assert returncode == 0

        validate_manifest(manifest_path)
        manifest = load_manifest(manifest_path)
        assert manifest.complete
        spans = [e for e in manifest.of_type("span")
                 if e["name"] == "serve.request"]
        assert len(spans) == 1
        assert spans[0]["cache"] == "miss"
        solver_events = manifest.of_type("solver")
        assert len(solver_events) == 1
        log_events = [e["event"] for e in manifest.of_type("log")]
        assert "serve.start" in log_events
        assert "serve.stop" in log_events
