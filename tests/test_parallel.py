"""Tests for repro.parallel — executors, seeding, worker cache, wiring."""

from __future__ import annotations

import functools
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.sweep import SweepResult, grid_points, sweep_1d, sweep_grid
from repro.exceptions import ParameterError, SweepError
from repro.parallel import (
    BACKENDS,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_cpus,
    clear_worker_cache,
    model_invariants,
    parameters_fingerprint,
    resolve_executor,
    spawn_seeds,
    task_rng,
    worker_cache_info,
    worker_cached,
)
from repro.parallel.executor import _make_chunks


# -- module-level task callables (picklable for the process backend) -------

def square_task(x):
    return x * x


def failing_task(x):
    if x == 7:
        raise ValueError("unlucky point")
    return x


def marking_task(marker_dir, fail_at, x):
    """Leave a marker file for each task run; fail at ``fail_at``."""
    Path(marker_dir, str(x)).touch()
    if x == fail_at:
        raise ValueError("unlucky point")
    time.sleep(0.1)  # later tasks outlast the parent's cancellation
    return x


def tasks_run(marker_dir) -> set[int]:
    return {int(path.name) for path in Path(marker_dir).iterdir()}


def square_point(x):
    return {"y": x * x}


def stochastic_point(x, rng):
    return {"draw": float(rng.random())}


def grid_point(a, b):
    return {"sum": a + b}


class TestChunking:
    def test_chunks_cover_range_in_order(self):
        for n_tasks in (1, 2, 7, 16, 100):
            for n_chunks in (1, 3, 8, 200):
                chunks = _make_chunks(n_tasks, n_chunks)
                flat = [i for chunk in chunks for i in chunk]
                assert flat == list(range(n_tasks))
                assert len(chunks) <= max(1, min(n_chunks, n_tasks))

    def test_chunk_sizes_balanced(self):
        chunks = _make_chunks(10, 3)
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_explicit_chunk_size(self):
        result = SerialExecutor().map_tasks(square_task, list(range(10)),
                                            chunk_size=3)
        assert result == [x * x for x in range(10)]

    def test_invalid_chunk_size(self):
        with pytest.raises(ParameterError):
            SerialExecutor().map_tasks(square_task, [1], chunk_size=0)


class TestExecutors:
    @pytest.mark.parametrize("executor", [
        SerialExecutor(), ThreadExecutor(3), ProcessExecutor(2)])
    def test_results_in_task_order(self, executor):
        tasks = list(range(23))
        assert executor.map_tasks(square_task, tasks) == [x * x for x in tasks]

    def test_empty_task_list(self):
        assert ThreadExecutor(2).map_tasks(square_task, []) == []

    @pytest.mark.parametrize("executor", [
        SerialExecutor(), ThreadExecutor(2), ProcessExecutor(2)])
    def test_failure_becomes_sweep_error(self, executor):
        with pytest.raises(SweepError) as excinfo:
            executor.map_tasks(failing_task, [1, 3, 7, 9])
        error = excinfo.value
        assert error.point == 7
        assert error.task_index == 2
        assert error.error_type == "ValueError"
        assert "unlucky point" in str(error)

    @pytest.mark.parametrize("chunk_size", [1, 2, 4, 10])
    def test_serial_runs_no_task_after_the_failure(self, tmp_path,
                                                   chunk_size):
        task = functools.partial(marking_task, str(tmp_path), 3)
        with pytest.raises(SweepError) as excinfo:
            SerialExecutor().map_tasks(task, list(range(10)),
                                       chunk_size=chunk_size)
        assert excinfo.value.task_index == 3
        assert tasks_run(tmp_path) == {0, 1, 2, 3}

    @pytest.mark.parametrize("executor", [ThreadExecutor(2),
                                          ProcessExecutor(2)])
    def test_pool_chunk_stops_at_the_failure(self, tmp_path, executor):
        task = functools.partial(marking_task, str(tmp_path), 3)
        with pytest.raises(SweepError) as excinfo:
            executor.map_tasks(task, list(range(10)), chunk_size=10)
        assert excinfo.value.task_index == 3
        assert tasks_run(tmp_path) == {0, 1, 2, 3}

    @pytest.mark.parametrize("executor", [ThreadExecutor(1),
                                          ProcessExecutor(1)])
    def test_pool_cancels_chunks_not_started(self, tmp_path, executor):
        # One worker: after chunk 0 fails, at most the chunks already
        # handed to the worker (one for threads, up to three for a
        # process pool's call queue) may still run.
        task = functools.partial(marking_task, str(tmp_path), 0)
        with pytest.raises(SweepError) as excinfo:
            executor.map_tasks(task, list(range(12)), chunk_size=1)
        assert excinfo.value.task_index == 0
        assert len(tasks_run(tmp_path)) <= 4

    def test_worker_traceback_captured(self):
        with pytest.raises(SweepError) as excinfo:
            ProcessExecutor(1).map_tasks(failing_task, [7])
        assert "ValueError" in (excinfo.value.worker_traceback or "")

    def test_describe_controls_reported_point(self):
        with pytest.raises(SweepError) as excinfo:
            SerialExecutor().map_tasks(
                failing_task, [7],
                describe=lambda index, task: {"x": task, "index": index})
        assert excinfo.value.point == {"x": 7, "index": 0}

    def test_process_rejects_unpicklable_callable(self):
        with pytest.raises(SweepError) as excinfo:
            ProcessExecutor(1).map_tasks(lambda x: x, [1])
        assert "picklable" in str(excinfo.value)

    def test_invalid_worker_count(self):
        with pytest.raises(ParameterError):
            ThreadExecutor(0)


class TestResolveExecutor:
    def test_default_is_serial(self):
        assert isinstance(resolve_executor(), SerialExecutor)
        assert isinstance(resolve_executor(None, 1), SerialExecutor)

    def test_worker_count_alone_selects_process(self):
        executor = resolve_executor(None, 3)
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers == 3

    def test_bare_int_is_worker_count(self):
        assert isinstance(resolve_executor(4), ProcessExecutor)
        assert isinstance(resolve_executor(1), SerialExecutor)

    def test_names(self):
        assert set(BACKENDS) == {"serial", "thread", "process", "vectorized"}
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("THREAD", 2), ThreadExecutor)
        assert isinstance(resolve_executor("process", 2), ProcessExecutor)

    def test_default_workers_is_cpu_count(self):
        assert resolve_executor("thread").workers == available_cpus()

    def test_instance_passthrough(self):
        executor = ThreadExecutor(2)
        assert resolve_executor(executor) is executor
        assert resolve_executor(executor, 2) is executor

    def test_conflicting_workers_rejected(self):
        with pytest.raises(ParameterError):
            resolve_executor(ThreadExecutor(2), 3)
        with pytest.raises(ParameterError):
            resolve_executor(4, 2)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ParameterError):
            resolve_executor("gpu")
        with pytest.raises(ParameterError):
            resolve_executor(True)
        with pytest.raises(ParameterError):
            resolve_executor("thread", 0)


class TestSeeding:
    def test_spawn_is_deterministic(self):
        a = spawn_seeds(42, 5)
        b = spawn_seeds(42, 5)
        assert [s.entropy for s in a] == [s.entropy for s in b]
        assert all(x.spawn_key == y.spawn_key for x, y in zip(a, b))

    def test_streams_are_independent(self):
        seeds = spawn_seeds(0, 3)
        draws = [task_rng(seed).random() for seed in seeds]
        assert len(set(draws)) == 3

    def test_negative_count_rejected(self):
        with pytest.raises(ParameterError):
            spawn_seeds(0, -1)


class TestWorkerCache:
    def setup_method(self):
        clear_worker_cache()

    def test_builder_runs_once(self):
        calls = []

        def build():
            calls.append(1)
            return "value"

        assert worker_cached("k", build) == "value"
        assert worker_cached("k", build) == "value"
        assert calls == [1]
        info = worker_cache_info()
        assert info["builds"] == 1 and info["hits"] >= 1

    def test_reentrant_builder(self):
        # A builder may itself consult the cache (model builders warm
        # their invariant tables); this must not deadlock.
        def outer():
            return worker_cached("inner", lambda: 2) + 1

        assert worker_cached("outer", outer) == 3

    def test_clear(self):
        worker_cached("k", lambda: 1)
        clear_worker_cache()
        assert worker_cache_info() == {"entries": 0, "hits": 0, "builds": 0}

    def test_model_invariants_cached_by_content(self, tiny_params):
        clear_worker_cache()
        first = model_invariants(tiny_params)
        second = model_invariants(tiny_params)
        assert first is second
        assert first.phi_k == pytest.approx(
            tiny_params.omega_k * tiny_params.pmf)
        assert first.second_moment == pytest.approx(
            float(np.dot(tiny_params.pmf, tiny_params.degrees ** 2)))
        assert first.coupling_strength == pytest.approx(
            float(np.dot(tiny_params.lambda_k, tiny_params.phi_k)))

    def test_fingerprint_distinguishes_parameters(self, tiny_params,
                                                  subcritical_params):
        assert (parameters_fingerprint(tiny_params)
                != parameters_fingerprint(subcritical_params))
        assert (parameters_fingerprint(tiny_params)
                == parameters_fingerprint(tiny_params))


class TestSweepParallel:
    AXES = {"a": [1, 2, 3, 4], "b": [10, 20]}

    def test_grid_points_row_major_order(self):
        points = grid_points(self.AXES)
        assert points[:3] == [{"a": 1, "b": 10}, {"a": 1, "b": 20},
                              {"a": 2, "b": 10}]
        assert len(points) == 8

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_grid_matches_serial_bitwise(self, backend):
        serial = sweep_grid(self.AXES, grid_point)
        parallel = sweep_grid(self.AXES, grid_point,
                              executor=resolve_executor(backend, 2))
        assert serial.bitwise_equal(parallel)
        assert serial.rows == parallel.rows

    def test_sweep_1d_parallel(self):
        serial = sweep_1d("x", [1, 2, 3, 4, 5], square_point)
        threaded = sweep_1d("x", [1, 2, 3, 4, 5], square_point,
                            executor=ThreadExecutor(3))
        assert serial.bitwise_equal(threaded)

    def test_seeded_sweep_identical_across_backends(self):
        reference = sweep_1d("x", [1, 2, 3, 4], stochastic_point, seed=99)
        for executor in (ThreadExecutor(2), ThreadExecutor(4),
                         ProcessExecutor(2)):
            repeat = sweep_1d("x", [1, 2, 3, 4], stochastic_point, seed=99,
                              executor=executor)
            assert reference.bitwise_equal(repeat)

    def test_seeded_points_differ_from_each_other(self):
        result = sweep_1d("x", [1, 2, 3, 4], stochastic_point, seed=5)
        draws = result.column("draw")
        assert len(set(draws)) == 4

    def test_failing_point_reports_parameters(self):
        def bad(a, b):
            raise RuntimeError("no equilibrium")

        with pytest.raises(SweepError) as excinfo:
            sweep_grid({"a": [1], "b": [2]}, bad)
        assert excinfo.value.point == {"a": 1, "b": 2}
        assert excinfo.value.error_type == "RuntimeError"

    def test_bitwise_equal_detects_drift(self):
        base = SweepResult(("x",), ({"x": 1, "y": 0.1},))
        same = SweepResult(("x",), ({"x": 1, "y": 0.1},))
        absorbed = SweepResult(("x",), ({"x": 1, "y": 0.1 + 1e-18},))
        off_ulp = SweepResult(("x",), ({"x": 1, "y": np.nextafter(0.1, 1.0)},))
        assert base.bitwise_equal(same)
        assert base.bitwise_equal(absorbed)  # 0.1 + 1e-18 rounds to 0.1
        assert not base.bitwise_equal(off_ulp)  # one ulp apart is a diff

    def test_bitwise_equal_handles_nan(self):
        a = SweepResult(("x",), ({"x": 1, "y": float("nan")},))
        b = SweepResult(("x",), ({"x": 1, "y": float("nan")},))
        assert a.bitwise_equal(b)


class TestEnsembleParallel:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.epidemic.acceptance import LinearAcceptance
        from repro.epidemic.infectivity import SaturatingInfectivity
        from repro.networks.generators import erdos_renyi
        from repro.simulation import AgentBasedConfig

        rng = np.random.default_rng(7)
        graph = erdos_renyi(120, 0.06, rng=rng)
        config = AgentBasedConfig(
            LinearAcceptance(0.05), SaturatingInfectivity(0.5, 0.5),
            eps1=0.05, eps2=0.05, dt=0.25, t_final=8.0)
        return graph, np.array([0, 1, 2]), config

    def test_backends_agree(self, setup):
        from repro.simulation import run_ensemble

        graph, seeds, config = setup
        serial = run_ensemble(graph, seeds, config, n_runs=4, base_seed=3)
        process = run_ensemble(graph, seeds, config, n_runs=4, base_seed=3,
                               executor="process")
        assert len(serial) == len(process) == 4
        for run_a, run_b in zip(serial, process):
            np.testing.assert_array_equal(run_a.infected, run_b.infected)
            np.testing.assert_array_equal(run_a.recovered, run_b.recovered)

    def test_runs_differ_across_seeds(self, setup):
        from repro.simulation import run_ensemble

        graph, seeds, config = setup
        runs = run_ensemble(graph, seeds, config, n_runs=3, base_seed=3)
        assert not np.array_equal(runs[0].infected, runs[1].infected)

    def test_summary_matches_manual_average(self, setup):
        from repro.simulation import ensemble_average, ensemble_summary, run_ensemble

        graph, seeds, config = setup
        grid = np.linspace(0.0, 8.0, 9)
        summary = ensemble_summary(graph, seeds, config, grid,
                                   n_runs=3, base_seed=1)
        manual = ensemble_average(
            run_ensemble(graph, seeds, config, n_runs=3, base_seed=1), grid)
        np.testing.assert_array_equal(summary.mean_infected,
                                      manual.mean_infected)

    def test_invalid_inputs(self, setup):
        from repro.simulation import run_ensemble

        graph, seeds, config = setup
        with pytest.raises(ParameterError):
            run_ensemble(graph, seeds, config, n_runs=0)
        with pytest.raises(ParameterError):
            run_ensemble(graph, seeds, object(), n_runs=1)  # type: ignore[arg-type]


class TestRunAllParallel:
    def test_run_all_reports_failures_structurally(self, tmp_path,
                                                   monkeypatch):
        from repro.experiments import runner

        def boom(out_dir):
            raise RuntimeError("figure exploded")

        monkeypatch.setitem(runner.EXPERIMENTS, "fig2", boom)
        with pytest.raises(SweepError) as excinfo:
            runner.run_all(tmp_path)
        assert excinfo.value.point == {"experiment": "fig2"}
