"""Tests for repro.serve.cache, repro.serve.batcher, repro.serve.service."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core.batched import stackable
from repro.core.model import HeterogeneousSIRModel
from repro.core.state import SIRState
from repro.exceptions import ParameterError
from repro.obs.manifest import MemorySink
from repro.obs.trace import observing
from repro.serve.batcher import MicroBatcher, PendingResult
from repro.serve.cache import ResultCache, encode_result
from repro.serve.service import ScenarioService
from repro.serve.spec import (
    ScenarioSpec,
    execute_scenario,
    execute_scenario_batch,
    scenario_parameters,
)


def small_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        network={"kind": "power_law", "k_min": 1, "k_max": 20,
                 "exponent": 2.0},
        eps1=0.2, eps2=0.05, t_final=10.0, n_samples=11)
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


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
        assert (tmp_path / "blobs" / "deadbeef.json").is_file()

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
        assert (tmp_path / "k.json").read_bytes() == body
        assert cache.get("k") == result  # library callers get a dict
        cache.clear()
        assert cache.get("k", encoded=True) == body  # disk hit

    def test_torn_disk_blob_is_a_miss(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        cache = ResultCache(disk_dir=tmp_path)
        assert cache.get("bad") is None

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

    def test_batch_matches_serial_within_1e13(self):
        """The acceptance bound for the canonical what-if batch: distinct
        eps1 policies over one shared model.  (Rows that also vary eps2
        perturb the shared adaptive step sequence further — that wider
        case is covered at 1e-11 by the per-row-alpha test below.)"""
        specs = [small_spec(eps1=e1, eps2=e2)
                 for e1, e2 in [(0.1, 0.05), (0.2, 0.05), (0.3, 0.05)]]
        stacked = execute_scenario_batch(specs)
        serial = [execute_scenario(spec) for spec in specs]
        for got, ref in zip(stacked, serial):
            assert got["r0"] == ref["r0"]  # r0 is per-spec, not integrated
            for key in ("susceptible", "infected", "recovered"):
                diff = np.abs(np.asarray(got[key]) - np.asarray(ref[key]))
                assert float(diff.max()) <= 1e-13

    def test_batch_with_per_row_alpha_close_to_serial(self):
        """Per-row α re-calibrates λ(k) per row; the adaptive step
        sequence still matches the scalar path to solver precision."""
        specs = [small_spec(eps1=e1, alpha=a)
                 for e1, a in [(0.1, 0.01), (0.2, 0.01), (0.3, 0.02)]]
        stacked = execute_scenario_batch(specs)
        serial = [execute_scenario(spec) for spec in specs]
        for got, ref in zip(stacked, serial):
            for key in ("susceptible", "infected", "recovered"):
                diff = np.abs(np.asarray(got[key]) - np.asarray(ref[key]))
                assert float(diff.max()) <= 1e-11

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


class TestMicroBatcher:
    def test_coalesces_identical_specs(self):
        calls = []

        def run_one(spec):
            calls.append(spec)
            return {"v": spec.eps1}

        batcher = MicroBatcher(window_seconds=0.1, run_one=run_one)
        spec = small_spec()
        pendings = [batcher.submit_nowait(spec) for _ in range(5)]
        results = [p.wait(10.0) for p in pendings]
        batcher.close()
        assert len(calls) == 1
        assert results == [{"v": 0.2}] * 5
        assert all(not p.stacked for p in pendings)

    def test_stacks_distinct_compatible_specs(self):
        batches = []

        def run_batch(specs):
            batches.append(list(specs))
            return [{"v": spec.eps1} for spec in specs]

        batcher = MicroBatcher(window_seconds=0.2, run_batch=run_batch)
        specs = [small_spec(eps1=0.1 * i) for i in (1, 2, 3)]
        pendings = [batcher.submit_nowait(spec) for spec in specs]
        results = [p.wait(10.0) for p in pendings]
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
            p.wait(10.0)
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
                p.wait(10.0)
        batcher.close()

    def test_close_drains_queued_work(self):
        batcher = MicroBatcher(window_seconds=0.0)
        pending = batcher.submit_nowait(small_spec())
        batcher.close()
        assert pending.wait(0.0)["kind"] == "trajectory"
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit_nowait(small_spec())

    def test_wait_timeout(self):
        pending = PendingResult(small_spec())
        with pytest.raises(TimeoutError):
            pending.wait(0.01)

    def test_invalid_knobs(self):
        with pytest.raises(ValueError):
            MicroBatcher(window_seconds=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)


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

    def test_error_cleans_inflight_and_propagates(self):
        service = ScenarioService(window_seconds=0.0)
        bad = small_spec(network={"kind": "preset", "name": "not_a_preset"})
        key = bad.spec_hash()
        with pytest.raises(ParameterError, match="unknown preset"):
            service.query(bad, timeout=60.0)
        assert service.pending(key) is None  # no stuck in-flight entry
        # the service still works afterwards
        assert service.query(small_spec(), timeout=60.0).cache == "miss"
        service.close()

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

    def test_disabled_observer_result_identical(self):
        spec = small_spec(eps1=0.37)
        with ScenarioService(window_seconds=0.0) as service:
            served = service.query(spec, timeout=60.0).result
        direct = execute_scenario(spec)
        assert served == direct
