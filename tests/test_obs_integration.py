"""Integration tests: observability wired through the numerical stack.

Three guarantees are exercised end to end:

1. **Telemetry is complete** — a real sweep / FBSM solve / experiment
   run under ``observing()`` produces a schema-valid manifest containing
   solver stats, per-task sweep telemetry, and the FBSM iteration trace.
2. **Telemetry is free when off** — with no observer installed, sweep
   rows and trajectories are bitwise identical to instrumented runs.
3. **Accounting is exact** — the dopri45 step/nfev invariant
   ``nfev == warmup_nfev + 6 * (accepted + rejected)`` holds for the
   scalar and (row-wise) batched integrators on a stiff-ish System (1)
   run.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.analysis.sweep import sweep_grid
from repro.bench.workloads import severity_axes, smoke_threshold_point
from repro.control.admissible import ControlBounds
from repro.control.objective import CostParameters
from repro.control.pontryagin import solve_optimal_control
from repro.core.model import HeterogeneousSIRModel
from repro.core.parameters import RumorModelParameters
from repro.core.state import SIRState
from repro.core.threshold import calibrate_acceptance_scale
from repro.networks.degree import power_law_distribution
from repro.networks.generators import erdos_renyi
from repro.numerics.ode import dopri45
from repro.numerics.ode_batched import dopri45_batched
from repro.obs.log import reset_once, set_level
from repro.obs.trace import get_observer, observing, uninstall
from repro.obs.events import validate_manifest
from repro.simulation.agent_based import AgentBasedConfig
from repro.simulation.ensemble import run_ensemble


@pytest.fixture(autouse=True)
def _clean_obs_state():
    uninstall()
    set_level("warning")
    reset_once()
    yield
    uninstall()
    set_level("warning")
    reset_once()


@pytest.fixture(scope="module")
def stiffish_model() -> tuple[HeterogeneousSIRModel, SIRState]:
    """A supercritical System (1) whose fast initial transient makes the
    adaptive controller actually modulate (and occasionally reject)
    steps."""
    base = RumorModelParameters(power_law_distribution(1, 10, 2.0),
                                alpha=0.01)
    params = calibrate_acceptance_scale(base, 0.05, 0.05, 6.0)
    model = HeterogeneousSIRModel(params)
    initial = SIRState.initial(params.n_groups, 0.05)
    return model, initial


# -- solver stats ----------------------------------------------------------

class TestSolverStats:
    def test_dopri45_nfev_accounting_on_system1(self, stiffish_model):
        """Regression: nfev == 6 * total_steps + warmup, exactly."""
        model, initial = stiffish_model
        rhs = model.rhs_constant(0.05, 0.05)
        grid = np.linspace(0.0, 60.0, 121)
        sol = dopri45(rhs, initial.pack(), grid, rtol=1e-8, atol=1e-10)
        stats = sol.stats
        assert stats is not None
        assert stats.accepted > 0
        # Warmup: 2 evals for the Hairer h0 heuristic, whose f(t0, y0)
        # seeds the first FSAL stage when h_init is not given.
        assert stats.warmup_nfev == 2
        assert sol.nfev == stats.nfev
        assert stats.nfev == stats.warmup_nfev + 6 * stats.total_steps
        assert stats.total_steps == stats.accepted + stats.rejected

    def test_dopri45_step_range(self, stiffish_model):
        model, initial = stiffish_model
        rhs = model.rhs_constant(0.05, 0.05)
        grid = np.linspace(0.0, 60.0, 121)
        stats = dopri45(rhs, initial.pack(), grid).stats
        assert 0.0 < stats.h_min <= stats.h_max <= 60.0
        assert stats.wall_seconds > 0.0
        # Zero error grows every step by the controller's cap of 5 from
        # h_init, until the last step reaches t = 10.
        steps = dopri45(lambda _t, y: np.zeros_like(y), [1.0],
                        np.linspace(0.0, 10.0, 11), h_init=0.01).stats
        assert steps.accepted == 6 and steps.rejected == 0
        assert steps.h_min == 0.01
        assert steps.h_max == pytest.approx(6.25)

    def test_dopri45_with_h_init_has_single_warmup_eval(self):
        sol = dopri45(lambda _t, y: -y, [1.0], np.linspace(0.0, 1.0, 11),
                      h_init=0.01)
        assert sol.stats.warmup_nfev == 1
        assert sol.nfev == 1 + 6 * sol.stats.total_steps

    def test_fixed_step_solvers_report_stats(self, stiffish_model):
        from repro.numerics.ode import rk4
        model, initial = stiffish_model
        rhs = model.rhs_constant(0.05, 0.05)
        sol = rk4(rhs, initial.pack(), np.linspace(0.0, 20.0, 41))
        stats = sol.stats
        assert stats is not None
        assert stats.rejected == 0
        assert stats.nfev == sol.nfev
        assert stats.nfev == stats.warmup_nfev + 4 * stats.accepted

    def test_batched_rowwise_accounting(self, stiffish_model):
        """The scalar invariant holds independently for every batch row."""
        model, initial = stiffish_model
        rhs = model.rhs_constant(0.05, 0.05)
        grid = np.linspace(0.0, 40.0, 81)
        y0 = initial.pack()
        scales = np.array([1.0, 0.5, 0.25])
        batch = np.stack([y0 * s for s in scales])

        def batched_rhs(t, y, rows):
            t = np.broadcast_to(np.asarray(t, dtype=float), (y.shape[0],))
            return np.stack([rhs(float(t[i]), y[i])
                             for i in range(y.shape[0])])

        sol = dopri45_batched(batched_rhs, batch, grid)
        stats = sol.stats
        assert stats is not None
        expected = (stats.warmup_nfev
                    + 6 * (stats.accepted_rows + stats.rejected_rows))
        np.testing.assert_array_equal(sol.nfev_rows, expected)
        row = sol.solution(1).stats
        assert row.accepted == int(stats.accepted_rows[1])
        assert row.nfev == int(sol.nfev_rows[1])

    def test_solver_events_reach_manifest(self, stiffish_model):
        model, initial = stiffish_model
        with observing() as observer:
            model.simulate(initial, t_final=20.0, eps1=0.05, eps2=0.05,
                           n_samples=41)
        events = observer.sink.of_type("solver")
        assert events, "simulate under an observer must emit solver events"
        event = events[0]
        assert event["solver"] == "dopri45"
        assert event["nfev"] > 0
        assert event["accepted"] > 0
        assert event["wall_seconds"] > 0


# -- bitwise identity on vs off -------------------------------------------

class TestBitwiseIdentity:
    def test_sweep_rows_identical_with_observability(self, tmp_path):
        axes = severity_axes(2, 2)
        plain = sweep_grid(axes, smoke_threshold_point, executor="serial")
        with observing(tmp_path / "trace.jsonl", progress=True):
            observed = sweep_grid(axes, smoke_threshold_point,
                                  executor="serial")
        assert plain.bitwise_equal(observed)

    def test_trajectory_identical_with_observability(self, stiffish_model):
        model, initial = stiffish_model
        rhs = model.rhs_constant(0.05, 0.05)
        grid = np.linspace(0.0, 40.0, 81)
        plain = dopri45(rhs, initial.pack(), grid)
        with observing():
            observed = dopri45(rhs, initial.pack(), grid)
        assert np.array_equal(plain.y, observed.y)
        assert plain.nfev == observed.nfev

    def test_fig2_identical_with_observability(self, tmp_path):
        """The paper's fig2 experiment — including the live health
        watchdogs reading every trajectory — must not perturb a single
        bit, and the manifest it writes must be a valid repro-obs/3
        stream."""
        from repro.experiments.config import Fig2Config
        from repro.experiments.fig2 import run_fig2
        from repro.obs.events import OBS_SCHEMA

        config = Fig2Config(t_final=150.0, n_samples=51,
                            n_initial_conditions=3)
        plain = run_fig2(config)
        path = tmp_path / "fig2.jsonl"
        with observing(path, run={"command": "fig2"}):
            observed = run_fig2(config)
        assert np.array_equal(plain.trajectory.susceptible,
                              observed.trajectory.susceptible)
        assert np.array_equal(plain.trajectory.infected,
                              observed.trajectory.infected)
        assert np.array_equal(plain.trajectory.recovered,
                              observed.trajectory.recovered)
        assert np.array_equal(plain.dist0, observed.dist0)
        assert plain.r0 == observed.r0
        events = validate_manifest(path)
        assert OBS_SCHEMA == "repro-obs/3"
        assert events[0]["schema"] == OBS_SCHEMA
        # A healthy fig2 run keeps every watchdog quiet: transitions
        # never fire, so no health events pollute the manifest.
        assert [e for e in events if e["type"] == "health"] == []

    def test_fbsm_identical_with_observability(self):
        base = RumorModelParameters(power_law_distribution(1, 5, 2.0),
                                    alpha=0.01)
        params = calibrate_acceptance_scale(base, 0.2, 0.05, 3.0)
        initial = SIRState.initial(params.n_groups, 0.05)
        kwargs = dict(t_final=20.0, bounds=ControlBounds(1.0, 1.0),
                      costs=CostParameters(5.0, 10.0), n_grid=41,
                      max_iterations=60)
        plain = solve_optimal_control(params, initial, **kwargs)
        with observing():
            observed = solve_optimal_control(params, initial, **kwargs)
        assert np.array_equal(plain.eps1, observed.eps1)
        assert np.array_equal(plain.eps2, observed.eps2)
        assert plain.cost.total == observed.cost.total
        assert len(plain.history) == len(observed.history)


# -- manifest contents -----------------------------------------------------

class TestManifestIntegration:
    def test_digg_sweep_manifest_has_solver_and_task_telemetry(
            self, tmp_path):
        """The acceptance scenario: a digg-preset sweep traced to a JSONL
        manifest must carry solver stats and per-task telemetry, all
        schema-valid."""
        from repro.bench.workloads import digg_threshold_point

        path = tmp_path / "sweep.jsonl"
        axes = severity_axes(2, 2)
        with observing(path, run={"command": "sweep"}):
            sweep_grid(axes, digg_threshold_point, executor="thread")
        events = validate_manifest(path)
        types = {event["type"] for event in events}
        assert {"manifest_start", "solver", "task", "worker",
                "progress_summary", "manifest_end"} <= types
        tasks = [e for e in events if e["type"] == "task"]
        assert sorted(e["index"] for e in tasks) == [0, 1, 2, 3]
        assert all(e["name"] == "sweep" and e["ok"] for e in tasks)
        summary = next(e for e in events if e["type"] == "progress_summary")
        assert summary["tasks"] == 4
        assert summary["errors"] == 0
        assert summary["workers"] >= 1
        assert len(summary["slowest"]) <= 5
        assert summary["slowest"][0]["point"] is not None
        end = events[-1]
        assert end["metrics"]["counters"]["parallel.tasks"] == 4.0
        assert end["metrics"]["counters"]["solver.runs"] > 0

    def test_process_backend_manifest_stays_valid(self, tmp_path):
        """Forked workers inherit the hook but must not corrupt the
        parent's manifest (PID guard); telemetry arrives parent-side."""
        path = tmp_path / "sweep_process.jsonl"
        axes = severity_axes(2, 2)
        with observing(path):
            sweep_grid(axes, smoke_threshold_point, executor="process")
        events = validate_manifest(path)
        workers = [e for e in events if e["type"] == "worker"]
        assert workers
        assert all(e["busy_seconds"] >= 0 for e in workers)
        assert len([e for e in events if e["type"] == "task"]) == 4

    def test_vectorized_sweep_emits_chunk_spans(self, tmp_path):
        from repro.bench.workloads import digg_threshold_point  # noqa: F401
        path = tmp_path / "sweep_vec.jsonl"
        axes = severity_axes(2, 2)
        with observing(path):
            sweep_grid(axes, smoke_threshold_point, executor="vectorized")
        events = validate_manifest(path)
        spans = [e for e in events if e["type"] == "span"]
        assert any(e["name"] == "sweep.batched_chunk" for e in spans)

    def test_fbsm_manifest_has_iteration_trace(self, tmp_path):
        path = tmp_path / "fbsm.jsonl"
        base = RumorModelParameters(power_law_distribution(1, 5, 2.0),
                                    alpha=0.01)
        params = calibrate_acceptance_scale(base, 0.2, 0.05, 3.0)
        initial = SIRState.initial(params.n_groups, 0.05)
        with observing(path):
            result = solve_optimal_control(
                params, initial, t_final=20.0,
                bounds=ControlBounds(1.0, 1.0),
                costs=CostParameters(5.0, 10.0), n_grid=41,
                max_iterations=60)
        events = validate_manifest(path)
        trace = [e for e in events if e["type"] == "fbsm_iteration"]
        assert len(trace) == len(result.history) == result.iterations
        assert [e["iteration"] for e in trace] == \
            list(range(1, len(trace) + 1))
        assert all(e["forward_seconds"] > 0 and e["backward_seconds"] > 0
                   for e in trace)
        assert trace[-1]["cost"] == pytest.approx(result.cost.total)
        solve_spans = [e for e in events if e["type"] == "span"
                       and e["name"] == "fbsm.solve"]
        assert solve_spans and solve_spans[0]["attrs"]["converged"]

    def test_run_experiment_frames_manifest(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "run.jsonl"
        assert main(["--trace-out", str(path), "threshold"]) == 0
        events = validate_manifest(path)
        assert events[0]["run"]["command"] == "threshold"


# -- fallback warnings -----------------------------------------------------

class TestFallbackWarnings:
    def test_ensemble_vectorized_fallback_warns_once(self, capsys):
        from repro.epidemic.acceptance import SaturatingAcceptance
        from repro.epidemic.infectivity import SaturatingInfectivity

        rng = np.random.default_rng(7)
        graph = erdos_renyi(60, 0.1, rng=rng)
        seeds = np.array([0, 1])
        config = AgentBasedConfig(
            acceptance=SaturatingAcceptance(lambda_max=0.8, k_half=5.0),
            infectivity=SaturatingInfectivity(0.5, 0.5),
            eps1=0.01, eps2=0.05, dt=0.5, t_final=5.0)
        with observing() as observer:
            runs = run_ensemble(graph, seeds, config, n_runs=2,
                                executor="vectorized")
            again = run_ensemble(graph, seeds, config, n_runs=2,
                                 executor="vectorized")
        assert len(runs) == len(again) == 2
        logs = observer.sink.of_type("log")
        fallback = [e for e in logs
                    if e["event"] == "ensemble.vectorized_fallback"]
        assert len(fallback) == 1, "fallback must be warned exactly once"
        event = fallback[0]
        assert event["level"] == "warning"
        assert event["fields"]["backend"] == "vectorized"
        assert event["fields"]["fallback"] == "serial"
        assert "rng" in event["fields"]["reason"]
        err = capsys.readouterr().err
        assert err.count("ensemble.vectorized_fallback") == 1

    def test_seeded_sweep_vectorized_fallback_warns(self, capsys):
        axes = severity_axes(2, 2)

        def seeded_point(eps1, eps2, rng=None):
            return {"noise": float(rng.random())}

        seeded_point.batch = lambda points: [  # pragma: no cover - never hit
            {"noise": 0.0} for _ in points]
        with observing() as observer:
            sweep_grid(axes, seeded_point, executor="vectorized", seed=3)
        logs = [e for e in observer.sink.of_type("log")
                if e["event"] == "sweep.vectorized_fallback"]
        assert len(logs) == 1
        assert "seeded" in logs[0]["fields"]["reason"]

    def test_unbatchable_sweep_vectorized_fallback_warns(self):
        axes = severity_axes(2, 2)

        def plain_point(eps1, eps2):
            return {"value": eps1 + eps2}

        with observing() as observer:
            sweep_grid(axes, plain_point, executor="vectorized")
        logs = [e for e in observer.sink.of_type("log")
                if e["event"] == "sweep.vectorized_fallback"]
        assert len(logs) == 1
        assert "batch" in logs[0]["fields"]["reason"]


# -- progress output -------------------------------------------------------

class TestProgressOutput:
    def test_progress_lines_rendered_for_sweep(self, capsys):
        axes = severity_axes(2, 2)
        with observing(progress=True):
            sweep_grid(axes, smoke_threshold_point, executor="serial")
        err = capsys.readouterr().err
        assert "[sweep]" in err
        assert "4/4" in err or "tasks" in err
