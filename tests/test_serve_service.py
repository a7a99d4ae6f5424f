"""Tests for repro.serve.cache, repro.serve.batcher, repro.serve.service."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys
import threading
import time
from concurrent import futures
from pathlib import Path

import pytest

from repro.core.batched import stackable
from repro.core.model import HeterogeneousSIRModel
from repro.core.state import SIRState
from repro.exceptions import IntegrationError, ParameterError
from repro.obs.manifest import MemorySink
from repro.obs.trace import observing, tracing
from repro.serve.batcher import MicroBatcher, PendingResult
from repro.serve.cache import (
    NUMERICS_VERSION,
    ResultCache,
    encode_result,
    engine,
)
from repro.serve.service import ScenarioService
from repro.serve.spec import (
    MODEL_FAMILIES,
    ControlSpec,
    ScenarioSpec,
    execute_scenario,
    execute_scenario_batch,
    get_family,
    scenario_parameters,
)

#: Where the disk tier keeps this code's blobs on this host.
BLOB_SUBDIR = f"numerics-{NUMERICS_VERSION}-{engine()}"

#: An rk4 run calibrated to r0 = 8 that blows up (non-finite state).
BLOWUP = {"network": {"kind": "power_law", "k_min": 1, "k_max": 30,
                      "exponent": 2.0},
          "method": "rk4", "n_samples": 6, "t_final": 200.0,
          "eps1": 0.2, "eps2": 0.05,
          "calibration": {"eps1": 0.2, "eps2": 0.05, "r0": 8.0}}


def small_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        network={"kind": "power_law", "k_min": 1, "k_max": 20,
                 "exponent": 2.0},
        eps1=0.2, eps2=0.05, t_final=10.0, n_samples=11)
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


#: A control plan: it has no batch key, so it takes the solo lane.
CONTROL = small_spec(control=ControlSpec(5.0, 10.0, n_grid=5))


def slow_family(monkeypatch, seconds: float) -> list[str]:
    """Make every ``heterogeneous_sir`` integration ``seconds`` slower.

    Returns the list each integration appends its rows' spec hashes to.
    """
    family = get_family("heterogeneous_sir")
    runs: list[str] = []

    def run(spec):
        runs.append(spec.spec_hash())
        time.sleep(seconds)
        return family.run(spec)

    def run_batch(specs):
        runs.extend(spec.spec_hash() for spec in specs)
        time.sleep(seconds)
        return family.run_batch(specs)

    monkeypatch.setitem(MODEL_FAMILIES, family.name, dataclasses.replace(
        family, run=run, run_batch=run_batch))
    return runs


class TestResultCache:
    def test_put_get_roundtrip(self):
        cache = ResultCache(max_entries=4)
        cache.put("k1", {"x": 1.0})
        assert cache.get("k1") == {"x": 1.0}
        assert cache.get("missing") is None
        assert len(cache) == 1
        assert "k1" in cache

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")  # promote a; b becomes LRU
        cache.put("c", {"v": 3})
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.stats()["evictions"] == 1

    def test_disk_tier_survives_memory_loss(self, tmp_path):
        cache = ResultCache(max_entries=4, disk_dir=tmp_path / "blobs")
        cache.put("deadbeef", {"infected": [0.1, 0.2]})
        cache.clear()
        assert len(cache) == 0
        assert cache.get("deadbeef") == {"infected": [0.1, 0.2]}
        assert len(cache) == 1  # disk hit re-populated memory
        assert (tmp_path / "blobs" / BLOB_SUBDIR / "deadbeef.json").is_file()

    def test_disk_floats_roundtrip_exactly(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        values = [0.1, 1 / 3, 2.0 ** -52, 1e300]
        cache.put("k", {"v": values})
        cache.clear()
        assert cache.get("k")["v"] == values

    def test_one_encoding_is_stored_served_and_written(self, tmp_path):
        result = {"infected": [0.1, 1 / 3], "kind": "trajectory"}
        body = encode_result(result)
        cache = ResultCache(disk_dir=tmp_path)
        cache.put("k", body)
        assert cache.get("k", encoded=True) is body
        assert (tmp_path / BLOB_SUBDIR / "k.json").read_bytes() == body
        assert cache.get("k") == result  # library callers get a dict
        cache.clear()
        assert cache.get("k", encoded=True) == body  # disk hit

    def test_torn_disk_blob_is_a_miss(self, tmp_path):
        (tmp_path / BLOB_SUBDIR).mkdir()
        (tmp_path / BLOB_SUBDIR / "bad.json").write_text("{not json")
        cache = ResultCache(disk_dir=tmp_path)
        assert cache.get("bad") is None

    def test_disk_path_scheme_is_frozen(self, tmp_path):
        """Golden: a spec's blob lives at
        numerics-<version>-<engine>/<hash>.json.

        The version and the engine name the numerics, not the question,
        so ``spec_hash`` (and ``golden_spec_hashes.json``) stays put
        when either changes."""
        from repro.numerics.system1 import library

        key = small_spec().spec_hash()
        ResultCache(disk_dir=tmp_path).put(key, {"kind": "trajectory"})
        blobs = [path.relative_to(tmp_path).as_posix()
                 for path in tmp_path.rglob("*.json")]
        assert NUMERICS_VERSION == 4
        name = "kernel" if library() is not None else "numpy"
        assert blobs == [f"numerics-4-{name}/{key}.json"]

    def test_a_daemon_without_the_kernel_writes_under_numpy(
            self, tmp_path, monkeypatch):
        import repro.numerics.system1 as system1

        monkeypatch.setattr(system1, "library", lambda: None)
        ResultCache(disk_dir=tmp_path).put("k", {"kind": "trajectory"})
        assert (tmp_path / "numerics-4-numpy" / "k.json").is_file()

    @pytest.mark.parametrize("subdir", ["numerics-3", "other-engine",
                                        "numerics-3-engine"])
    def test_blob_from_another_engine_is_not_served(self, tmp_path, subdir):
        """A blob written by the other engine, under the engine-less
        version 3 directory that either engine used to write, or by this
        engine under version 3, is never read, and the disk status does
        not count it."""
        if subdir == "other-engine":
            other = {"kernel": "numpy", "numpy": "kernel"}[engine()]
            subdir = f"numerics-{NUMERICS_VERSION}-{other}"
        elif subdir == "numerics-3-engine":
            subdir = f"numerics-3-{engine()}"
        spec = small_spec()
        key = spec.spec_hash()
        (tmp_path / subdir).mkdir()
        (tmp_path / subdir / f"{key}.json").write_bytes(
            encode_result({"kind": "trajectory", "stale": True}))
        cache = ResultCache(disk_dir=tmp_path)
        assert cache.get(key) is None
        assert key not in cache
        assert cache.disk_status()["blobs"] == 0
        with ScenarioService(cache=cache, window_seconds=0.0) as service:
            response = service.query(spec, timeout=60.0)
        assert response.cache == "miss"
        assert "stale" not in response.result
        assert (tmp_path / BLOB_SUBDIR / f"{key}.json").is_file()

    def test_blob_from_older_numerics_is_not_served(self, tmp_path):
        """A blob at the unversioned path (numerics version 1) is never
        read, and the disk status does not count it."""
        spec = small_spec()
        key = spec.spec_hash()
        (tmp_path / f"{key}.json").write_bytes(
            encode_result({"kind": "trajectory", "stale": True}))
        cache = ResultCache(disk_dir=tmp_path)
        assert cache.get(key) is None
        assert key not in cache
        assert cache.disk_status()["blobs"] == 0
        with ScenarioService(cache=cache, window_seconds=0.0) as service:
            response = service.query(spec, timeout=60.0)
        assert response.cache == "miss"
        assert "stale" not in response.result
        assert cache.disk_status()["blobs"] == 1

    def test_blob_from_numerics_2_is_not_served(self, tmp_path):
        """A blob written by the NumPy (S, I) loops (numerics version 2)
        is never read, and the disk status does not count it."""
        spec = small_spec()
        key = spec.spec_hash()
        (tmp_path / "numerics-2").mkdir()
        (tmp_path / "numerics-2" / f"{key}.json").write_bytes(
            encode_result({"kind": "trajectory", "stale": True}))
        cache = ResultCache(disk_dir=tmp_path)
        assert cache.get(key) is None
        assert key not in cache
        assert cache.disk_status()["blobs"] == 0
        with ScenarioService(cache=cache, window_seconds=0.0) as service:
            response = service.query(spec, timeout=60.0)
        assert response.cache == "miss"
        assert "stale" not in response.result
        assert cache.disk_status()["blobs"] == 1

    def test_a_failed_disk_write_degrades_the_tier_not_the_miss(
            self, tmp_path):
        """A cache directory that cannot be created costs only the disk
        copy: the miss is answered from memory and the tier reads
        degraded."""
        blocker = tmp_path / "blobs"
        blocker.write_text("a file, not a directory")
        cache = ResultCache(disk_dir=blocker)
        spec = small_spec(eps1=0.29)
        with ScenarioService(cache=cache, window_seconds=0.0) as service:
            miss = service.query(spec, timeout=60.0)
            hit = service.query(spec, timeout=60.0)
            assert not service.pending(spec.spec_hash())
        assert (miss.cache, hit.cache) == ("miss", "hit")
        assert hit.body is miss.body
        assert cache.disk_status() == {"tier": "degraded", "blobs": 0,
                                       "read_errors": 0, "write_errors": 1}

    def test_two_writers_of_one_key_publish_whole_blobs(self, tmp_path,
                                                        monkeypatch):
        """Two caches sharing a directory (two daemons) write one key at
        once: one publishes while the other is halfway through its
        write, and the published blob is still whole."""
        body = encode_result({"infected": [1 / 3] * 2000})
        first = ResultCache(disk_dir=tmp_path)
        second = ResultCache(disk_dir=tmp_path)
        halfway, finish = threading.Event(), threading.Event()
        write_bytes = Path.write_bytes

        def interleaved_write(path, data):
            if threading.current_thread() is slow:
                with open(path, "wb") as out:
                    out.write(data[:len(data) // 2])
                    out.flush()
                    halfway.set()
                    assert finish.wait(10.0)
                    out.write(data[len(data) // 2:])
                return len(data)
            written = write_bytes(path, data)
            slow.start()  # the other writer begins once this one wrote
            assert halfway.wait(10.0)
            return written

        slow = threading.Thread(target=first.put, args=("k", body))
        monkeypatch.setattr(Path, "write_bytes", interleaved_write)
        blob = tmp_path / BLOB_SUBDIR / "k.json"
        try:
            second.put("k", body)
            published = blob.read_bytes()
        finally:
            finish.set()
            slow.join(10.0)
        assert not slow.is_alive()
        assert json.loads(published) == json.loads(body)
        assert blob.read_bytes() == body
        assert [path.name for path in blob.parent.iterdir()] == ["k.json"]
        assert first.disk_status()["tier"] == "ok"
        umask = os.umask(0)
        os.umask(umask)
        assert blob.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_hit_miss_counters(self):
        cache = ResultCache()
        cache.record_hit()
        cache.record_hit()
        cache.record_miss()
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_counters_mirrored_into_metrics(self):
        with observing(None) as observer:
            cache = ResultCache(max_entries=1)
            cache.record_hit()
            cache.record_miss()
            cache.put("a", {})
            cache.put("b", {})  # evicts a
            counters = observer.metrics.snapshot()["counters"]
        assert counters["serve.cache.hits"] == 1
        assert counters["serve.cache.misses"] == 1
        assert counters["serve.cache.evictions"] == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


class TestStackable:
    def test_same_structure_different_rates(self):
        a = scenario_parameters(small_spec())
        b = scenario_parameters(small_spec(alpha=0.05))
        assert stackable(a, b)

    def test_different_networks(self):
        a = scenario_parameters(small_spec())
        b = scenario_parameters(small_spec(network="digg2009"))
        assert not stackable(a, b)


class TestExecuteScenario:
    def test_bitwise_identical_to_direct_model_path(self):
        spec = small_spec()
        result = execute_scenario(spec)
        params = scenario_parameters(spec)
        trajectory = HeterogeneousSIRModel(params).simulate(
            SIRState.initial(params.n_groups, spec.initial_infected),
            t_final=spec.t_final, eps1=spec.eps1, eps2=spec.eps2,
            n_samples=spec.n_samples, method=spec.method)
        assert result["infected"] == [
            float(v) for v in trajectory.population_infected()]
        assert result["susceptible"] == [
            float(v) for v in trajectory.population_susceptible()]
        assert result["t"] == [float(v) for v in trajectory.times]

    def test_batch_equals_serial_bitwise(self):
        """The canonical what-if batch, distinct ε1 policies over one
        shared model: each stacked row is its own dopri45 solve, so its
        answer is the serial answer bit for bit."""
        specs = [small_spec(eps1=e1, eps2=e2)
                 for e1, e2 in [(0.1, 0.05), (0.2, 0.05), (0.3, 0.05)]]
        stacked = execute_scenario_batch(specs)
        serial = [execute_scenario(spec) for spec in specs]
        assert stacked == serial

    def test_batch_with_per_row_alpha_equals_serial(self):
        """Per-row α re-calibrates λ(k) per row; the stacked rows still
        equal the serial answers bit for bit."""
        specs = [small_spec(eps1=e1, alpha=a)
                 for e1, a in [(0.1, 0.01), (0.2, 0.01), (0.3, 0.02)]]
        stacked = execute_scenario_batch(specs)
        serial = [execute_scenario(spec) for spec in specs]
        assert stacked == serial

    def test_batch_rk4_bitwise_identical(self):
        specs = [small_spec(eps1=e1, method="rk4") for e1 in (0.1, 0.3)]
        stacked = execute_scenario_batch(specs)
        serial = [execute_scenario(spec) for spec in specs]
        assert stacked == serial

    def test_batch_of_one_uses_scalar_path(self):
        spec = small_spec()
        assert execute_scenario_batch([spec]) == [execute_scenario(spec)]

    def test_batch_rejects_mixed_keys(self):
        with pytest.raises(ParameterError, match="batch_key"):
            execute_scenario_batch([small_spec(),
                                    small_spec(t_final=20.0)])

    def test_control_scenario_runs(self):
        from repro.serve.spec import CalibrationSpec, ControlSpec

        spec = small_spec(
            t_final=5.0,
            calibration=CalibrationSpec(0.2, 0.05, 2.0),
            control=ControlSpec(5.0, 10.0, n_grid=41))
        result = execute_scenario(spec)
        assert result["kind"] == "control"
        assert result["converged"] in (True, False)
        assert len(result["eps1"]) == 41
        assert result["cost_total"] > 0

    def test_disabled_observer_identical_to_observed(self):
        spec = small_spec(eps1=0.17)
        bare = execute_scenario(spec)
        with observing(None):
            observed = execute_scenario(spec)
        assert bare == observed


class TestStackedRowIndependence:
    def test_digg_rows_equal_their_batch_of_one(self):
        """A served digg2009 row does not depend on its batch-mates: each
        row of a 4-row stack equals the same spec stacked alone."""
        specs = [ScenarioSpec.from_payload(
                     {"network": "digg2009", "t_final": 60.0,
                      "n_samples": 61, "eps1": eps1, "eps2": eps2})
                 for eps1, eps2 in [(0.2, 0.05), (0.1, 0.03), (0.3, 0.1),
                                    (0.05, 0.01)]]
        run_batch = get_family("heterogeneous_sir").run_batch
        stacked = run_batch(specs)
        for spec, result in zip(specs, stacked):
            assert run_batch([spec]) == [result]


class TestMicroBatcher:
    def test_stacks_distinct_compatible_specs(self):
        batches = []

        def run_batch(specs):
            batches.append(list(specs))
            return [{"v": spec.eps1} for spec in specs]

        batcher = MicroBatcher(window_seconds=0.2, run_batch=run_batch)
        specs = [small_spec(eps1=0.1 * i) for i in (1, 2, 3)]
        pendings = [batcher.submit_nowait(spec) for spec in specs]
        results = [json.loads(p.result(10.0)) for p in pendings]
        batcher.close()
        assert len(batches) == 1 and len(batches[0]) == 3
        assert [r["v"] for r in results] == [0.1, 0.2, 0.30000000000000004]
        assert all(p.stacked for p in pendings)

    def test_incompatible_specs_split_groups(self):
        seen = {"one": 0, "batch": 0}

        def run_one(spec):
            seen["one"] += 1
            return {"k": "one"}

        def run_batch(specs):
            seen["batch"] += 1
            return [{"k": "batch"}] * len(specs)

        batcher = MicroBatcher(window_seconds=0.2, run_one=run_one,
                               run_batch=run_batch)
        specs = [small_spec(eps1=0.1), small_spec(eps1=0.2),
                 small_spec(t_final=20.0)]  # third is its own group
        pendings = [batcher.submit_nowait(spec) for spec in specs]
        for p in pendings:
            p.result(10.0)
        batcher.close()
        assert seen == {"one": 1, "batch": 1}

    def test_error_propagates_to_all_waiters(self):
        def run_batch(specs):
            raise RuntimeError("integration exploded")

        batcher = MicroBatcher(window_seconds=0.2, run_batch=run_batch)
        pendings = [batcher.submit_nowait(small_spec(eps1=0.1 * i))
                    for i in (1, 2)]
        for p in pendings:
            with pytest.raises(RuntimeError, match="exploded"):
                p.result(10.0)
        batcher.close()

    def test_close_drains_queued_work(self):
        batcher = MicroBatcher(window_seconds=0.0)
        pending = batcher.submit_nowait(small_spec())
        batcher.close()
        assert json.loads(pending.result(0.0))["kind"] == "trajectory"
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit_nowait(small_spec())

    def test_wait_timeout(self):
        pending = PendingResult(small_spec())
        with pytest.raises(futures.TimeoutError):
            pending.result(0.01)

    def test_invalid_knobs(self):
        with pytest.raises(ValueError):
            MicroBatcher(window_seconds=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)

    def test_lone_submission_waits_only_the_gap(self):
        """A window closes once the queue is quiet for a tenth of
        ``window_seconds``: a lone miss does not wait out the cap."""
        batcher = MicroBatcher(window_seconds=0.5,
                               run_one=lambda spec: {"v": spec.eps1})
        started = time.monotonic()
        assert json.loads(batcher.submit_nowait(small_spec()).result(10.0)) \
            == {"v": 0.2}
        elapsed = time.monotonic() - started
        batcher.close()
        assert elapsed < 0.25, elapsed

    def test_arrivals_inside_the_gap_stack(self):
        """Submissions spaced under the gap (0.1 s here) land in one
        stacked dispatch, which leaves long before the 1 s cap."""
        batches = []

        def run_batch(specs):
            batches.append((time.monotonic(), [s.eps1 for s in specs]))
            return [{"v": spec.eps1} for spec in specs]

        batcher = MicroBatcher(window_seconds=1.0, run_batch=run_batch)
        started = time.monotonic()
        pendings = []
        for i in (1, 2, 3, 4):
            pendings.append(batcher.submit_nowait(small_spec(eps1=0.1 * i)))
            time.sleep(0.02)
        for pending in pendings:
            pending.result(10.0)
        batcher.close()
        assert len(batches) == 1 and len(batches[0][1]) == 4
        assert batches[0][0] - started < 0.6
        assert all(p.stacked for p in pendings)

    def test_steady_trickle_is_cut_at_the_cap(self):
        """Arrivals that never leave the queue quiet for the gap keep
        a window open only until ``window_seconds`` after it opened."""
        window = 0.4
        batches = []
        submitted = {}

        def run_batch(specs):
            batches.append((time.monotonic(), [s.eps1 for s in specs]))
            return [{"v": spec.eps1} for spec in specs]

        batcher = MicroBatcher(window_seconds=window, run_batch=run_batch,
                               run_one=lambda spec: {"v": spec.eps1})
        pendings = []
        for i in range(60):  # one every 0.02 s (gap 0.04 s) for 1.2 s
            eps1 = 0.001 * (i + 1)
            submitted[eps1] = time.monotonic()
            pendings.append(batcher.submit_nowait(small_spec(eps1=eps1)))
            time.sleep(0.02)
        for pending in pendings:
            pending.result(10.0)
        batcher.close()
        assert len(batches) >= 2
        held = [at - submitted[rows[0]] for at, rows in batches]
        assert max(held) <= window + 0.15, held
        assert max(held) >= window / 2, held

    def test_zero_window_dispatches_at_once(self):
        calls = []
        batcher = MicroBatcher(window_seconds=0.0,
                               run_one=lambda spec: calls.append(spec) or {},
                               run_batch=lambda specs: pytest.fail(
                                   "a zero window stacked"))
        started = time.monotonic()
        for i in (1, 2, 3):
            batcher.submit_nowait(small_spec(eps1=0.1 * i)).result(10.0)
        elapsed = time.monotonic() - started
        batcher.close()
        assert len(calls) == 3
        assert elapsed < 0.1, elapsed

    def test_unbatchable_specs_take_their_own_lane(self):
        """A control plan runs in the solo lane: a trajectory miss
        submitted while it runs is answered without waiting for it."""
        release = threading.Event()

        def run_one(spec):
            if spec.control is not None:
                assert release.wait(10.0)
                return {"kind": "control"}
            return {"kind": "trajectory"}

        batcher = MicroBatcher(window_seconds=0.01, run_one=run_one)
        plan = batcher.submit_nowait(CONTROL)
        assert plan.batch_key is None
        trajectory = batcher.submit_nowait(small_spec()).result(5.0)
        assert json.loads(trajectory) == {"kind": "trajectory"} \
            and not plan.done()
        release.set()
        assert json.loads(plan.result(5.0)) == {"kind": "control"}
        batcher.close()

    def test_each_wait_is_observed_in_both_lanes(self):
        with observing(None, sink=MemorySink()) as observer:
            batcher = MicroBatcher(window_seconds=0.05,
                                   run_one=lambda spec: {})
            batcher.submit_nowait(CONTROL).result(10.0)
            batcher.submit_nowait(small_spec()).result(10.0)
            batcher.close()
            waits = observer.metrics.snapshot()["histograms"][
                "serve.batch.wait.seconds"]
        assert waits["count"] == 2
        assert waits["max"] >= 0.004  # the trajectory's 5 ms quiet gap

    def test_depth_and_close_cover_both_lanes(self):
        gates = {"control": threading.Event(), "batch": threading.Event()}
        started = {"control": threading.Event(), "batch": threading.Event()}

        def run_one(spec):
            assert spec.control is not None
            started["control"].set()
            assert gates["control"].wait(10.0)
            return {"kind": "control"}

        def run_batch(specs):
            started["batch"].set()
            assert gates["batch"].wait(10.0)
            return [{"kind": "trajectory"}] * len(specs)

        batcher = MicroBatcher(window_seconds=0.2, run_one=run_one,
                               run_batch=run_batch)
        pendings = [batcher.submit_nowait(CONTROL),
                    batcher.submit_nowait(small_spec(eps1=0.1)),
                    batcher.submit_nowait(small_spec(eps1=0.2))]
        assert started["control"].wait(5.0) and started["batch"].wait(5.0)
        pendings.append(batcher.submit_nowait(
            small_spec(control=ControlSpec(3.0, 7.0, n_grid=5))))
        assert batcher.depth() == 4  # 1 + 2 dispatching, 1 queued
        for gate in gates.values():
            gate.set()
        batcher.close()
        assert all(pending.done() for pending in pendings)
        assert batcher.depth() == 0
        assert not any(thread.is_alive() for thread in (
            lane.thread for lane in batcher._lanes))
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit_nowait(CONTROL)


class TestScenarioService:
    def test_n_identical_concurrent_one_integration(self):
        """The headline dedupe guarantee: N requests, 1 solver run."""
        n = 8
        spec = small_spec(eps1=0.123)
        sink = MemorySink()
        with observing(None, sink=sink):
            service = ScenarioService(window_seconds=0.1)
            responses = [None] * n
            barrier = threading.Barrier(n)

            def worker(index):
                barrier.wait()
                responses[index] = service.query(spec, timeout=60.0)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service.close()
        assert len(sink.of_type("solver")) == 1
        stats = service.cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == n - 1
        statuses = sorted(r.cache for r in responses)
        assert statuses.count("miss") == 1
        assert set(statuses) <= {"miss", "coalesced", "hit"}
        results = {id(r.result) for r in responses}
        assert all(r.result == responses[0].result for r in responses)

    def test_each_result_encoded_once(self, monkeypatch):
        """Owner, coalesced waiters and later hits share one encoding;
        a coalesced waiter never answers without it."""
        import repro.serve.batcher as batcher_module
        import repro.serve.cache as cache_module

        encodings = []

        def counting_encode(result):
            encodings.append(result)
            return encode_result(result)

        monkeypatch.setattr(batcher_module, "encode_result", counting_encode)
        monkeypatch.setattr(cache_module, "encode_result", counting_encode)
        n = 4
        spec = small_spec(eps1=0.456)
        responses = [None] * n
        barrier = threading.Barrier(n)
        with ScenarioService(window_seconds=0.1) as service:
            def worker(index):
                barrier.wait()
                responses[index] = service.query(spec, timeout=60.0)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            hit = service.query(spec, timeout=60.0)
            polled = service.cache.get(spec.spec_hash(), encoded=True)
        assert len(encodings) == 1
        assert sorted(r.cache for r in responses).count("miss") == 1
        assert hit.cache == "hit"
        for response in (*responses, hit):
            assert response.body is polled
            assert response.result == json.loads(polled)

    def test_query_many_distinct_single_stacked_integration(self):
        specs = [small_spec(eps1=0.1 * i) for i in (1, 2, 3, 4)]
        sink = MemorySink()
        with observing(None, sink=sink):
            service = ScenarioService(window_seconds=0.2)
            responses = service.query_many(specs, timeout=60.0)
            service.close()
        solver_events = sink.of_type("solver")
        assert len(solver_events) == 1
        assert solver_events[0]["batch"] == 4
        assert all(r.cache == "miss" and r.stacked for r in responses)
        batch_spans = [e for e in sink.of_type("span")
                       if e["name"] == "serve.batch"]
        assert len(batch_spans) == 1
        assert batch_spans[0]["attrs"] == {"size": 4, "stacked": True}

    def test_repeat_query_hits_cache(self):
        service = ScenarioService(window_seconds=0.0)
        first = service.query(small_spec(eps1=0.31), timeout=60.0)
        second = service.query(small_spec(eps1=0.31), timeout=60.0)
        service.close()
        assert first.cache == "miss"
        assert second.cache == "hit"
        assert second.result == first.result

    def test_request_spans_and_metrics(self):
        sink = MemorySink()
        with observing(None, sink=sink) as observer:
            service = ScenarioService(window_seconds=0.0)
            service.query(small_spec(eps1=0.41), timeout=60.0)
            service.query(small_spec(eps1=0.41), timeout=60.0)
            service.close()
            snapshot = observer.metrics.snapshot()
        spans = [e for e in sink.of_type("span")
                 if e["name"] == "serve.request"]
        assert [s["cache"] for s in spans] == ["miss", "hit"]
        assert all(len(s["spec"]) == 12 for s in spans)
        assert snapshot["counters"]["serve.requests"] == 2
        assert snapshot["histograms"]["serve.request.seconds"]["count"] == 2

    def test_batcher_wait_is_registered_and_observed_per_miss(self):
        with observing(None, sink=MemorySink()) as observer:
            service = ScenarioService(window_seconds=0.0)
            assert "serve_batch_wait_seconds_count 0\n" in \
                observer.metrics.render_text()
            service.query_many([small_spec(eps1=0.43), small_spec(eps1=0.44),
                                small_spec(eps1=0.43)], timeout=60.0)
            service.query(small_spec(eps1=0.44), timeout=60.0)
            service.close()
            snapshot = observer.metrics.snapshot()
        waits = snapshot["histograms"]["serve.batch.wait.seconds"]
        assert snapshot["counters"]["serve.cache.misses"] == 2
        assert waits["count"] == 2  # coalesced and hit never reach it
        assert 0.0 <= waits["min"] <= waits["max"] < 10.0

    def test_error_cleans_inflight_and_propagates(self):
        service = ScenarioService(window_seconds=0.0)
        bad = small_spec(network={"kind": "preset", "name": "not_a_preset"})
        key = bad.spec_hash()
        with pytest.raises(ParameterError, match="unknown preset"):
            service.query(bad, timeout=60.0)
        assert not service.pending(key)  # no stuck in-flight entry
        # the service still works afterwards
        assert service.query(small_spec(), timeout=60.0).cache == "miss"
        service.close()

    def test_a_wait_that_times_out_leaves_the_solve_to_finish(
            self, monkeypatch):
        """A waiter that gives up neither orphans nor repeats the solve:
        the next identical query joins it, and a miss nobody waits for
        any more is still cached."""
        runs = slow_family(monkeypatch, 0.3)
        spec, lone = small_spec(eps1=0.52), small_spec(eps1=0.53)
        with ScenarioService(window_seconds=0.0) as service:
            with pytest.raises(TimeoutError):  # the built-in, on 3.10 too
                service.query(spec, timeout=0.05)
            assert service.pending(spec.spec_hash())
            again = service.query(spec, timeout=10.0)
            with pytest.raises(TimeoutError):
                service.query(lone, timeout=0.05)
        # close() drained the batcher, which finished the lone miss.
        assert again.cache in ("coalesced", "hit")
        assert again.body is service.cache.get(spec.spec_hash(),
                                               encoded=True)
        assert not service.pending(lone.spec_hash())
        assert sorted(runs) == sorted([spec.spec_hash(), lone.spec_hash()])
        assert service.cache.get(lone.spec_hash()) == execute_scenario(lone)

    def test_overlapping_queries_with_timeouts_integrate_each_spec_once(
            self, monkeypatch):
        """16 threads query 6 overlapping specs, a third of them with a
        timeout shorter than the solve, under a 10 µs switch interval."""
        runs = slow_family(monkeypatch, 0.05)
        pool = [small_spec(eps1=0.6 + 0.01 * i) for i in range(6)]
        answered, timed_out, failed = [], [], []
        barrier = threading.Barrier(16)

        def client(index):
            rng = random.Random(index)
            timeout = 0.01 if index % 3 == 0 else 30.0
            barrier.wait(10.0)
            for _ in range(12):
                try:
                    answered.append(service.query(rng.choice(pool),
                                                  timeout=timeout))
                except TimeoutError:
                    timed_out.append(index)
                except BaseException as error:
                    failed.append(error)

        service = ScenarioService(window_seconds=0.005)
        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not failed and timed_out
        assert len(answered) + len(timed_out) == 16 * 12
        assert sorted(runs) == sorted(spec.spec_hash() for spec in pool)
        assert not any(service.pending(spec.spec_hash()) for spec in pool)
        for response in answered:
            assert response.body is service.cache.get(response.spec_hash,
                                                      encoded=True)

    def test_closed_service_refuses_queries(self):
        service = ScenarioService(window_seconds=0.0)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.query(small_spec())

    def test_shared_cache_across_services(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        with ScenarioService(cache=cache, window_seconds=0.0) as first:
            miss = first.query(small_spec(eps1=0.27), timeout=60.0)
        cache.clear()  # memory gone; disk blob remains
        with ScenarioService(cache=cache, window_seconds=0.0) as second:
            hit = second.query(small_spec(eps1=0.27), timeout=60.0)
        assert miss.cache == "miss"
        assert hit.cache == "hit"
        assert hit.result == miss.result  # exact float round trip via JSON

    def test_stacked_blowup_trips_and_heals_integration_alarm(self):
        """A stacked batch whose integration raises trips the integration
        alarm, stamped with every member's trace id; a clean stacked
        integration heals it."""
        blowups = [ScenarioSpec.from_payload(dict(BLOWUP, eps2=eps2))
                   for eps2 in (0.05, 0.06)]
        errors: list[BaseException] = []

        def ask(spec, trace_id):
            with tracing(trace_id):
                try:
                    service.query(spec, timeout=60.0)
                except IntegrationError as error:
                    errors.append(error)

        sink = MemorySink()
        with observing(None, sink=sink, run={"case": "stacked-blowup"}) \
                as observer:
            with ScenarioService(window_seconds=0.3) as service:
                threads = [threading.Thread(target=ask,
                                            args=(spec, f"member-{j}"))
                           for j, spec in enumerate(blowups)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                assert len(errors) == 2
                assert "rk4-batched" in str(errors[0])
                sick = observer.health.status()
                assert sick["status"] == "critical"
                alarm = sick["alarms"]["integration"]
                assert alarm["severity"] == "critical"
                assert "rk4 aborted" in alarm["detail"]
                clean = service.query_many(
                    [small_spec(eps1=0.11), small_spec(eps1=0.12)],
                    timeout=60.0)
                assert all(response.stacked for response in clean)
                healed = observer.health.status()
                assert healed["alarms"]["integration"]["severity"] == "ok"
                assert healed["alarms"]["integration"]["worst"] == "critical"
        tripped = [e for e in sink.events
                   if e["type"] == "health" and e["check"] == "integration"
                   and e["severity"] == "critical"]
        assert len(tripped) == 1
        assert tripped[0]["context"]["rows"] == 2
        assert sorted(tripped[0]["trace_ids"]) == ["member-0", "member-1"]

    def test_disabled_observer_result_identical(self):
        spec = small_spec(eps1=0.37)
        with ScenarioService(window_seconds=0.0) as service:
            served = service.query(spec, timeout=60.0).result
        direct = execute_scenario(spec)
        assert served == direct
