"""Tests for repro.numerics.ode — correctness, convergence order, edge cases."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import IntegrationError, ParameterError
from repro.numerics.ode import (
    OdeSolution,
    dopri45,
    euler,
    integrate,
    rk4,
    solve_ivp_scipy,
)


def exponential_decay(_t: float, y: np.ndarray) -> np.ndarray:
    return -y


def harmonic(_t: float, y: np.ndarray) -> np.ndarray:
    return np.array([y[1], -y[0]])


GRID = np.linspace(0.0, 2.0, 41)


class TestEuler:
    def test_decay_rough_accuracy(self):
        sol = euler(exponential_decay, [1.0], GRID, substeps=100)
        assert sol.final_state[0] == pytest.approx(math.exp(-2.0), rel=1e-2)

    def test_first_order_convergence(self):
        errors = []
        for substeps in (10, 20, 40):
            sol = euler(exponential_decay, [1.0], GRID, substeps=substeps)
            errors.append(abs(sol.final_state[0] - math.exp(-2.0)))
        # Halving the step should roughly halve the error.
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.2)
        assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.2)

    def test_invalid_substeps(self):
        with pytest.raises(ParameterError):
            euler(exponential_decay, [1.0], GRID, substeps=0)


class TestRK4:
    def test_decay_accuracy(self):
        sol = rk4(exponential_decay, [1.0], GRID)
        # h = 0.05 4th-order global error ≈ 1e-7 relative on this problem.
        assert sol.final_state[0] == pytest.approx(math.exp(-2.0), rel=5e-7)

    def test_fourth_order_convergence(self):
        errors = []
        for substeps in (1, 2, 4):
            sol = rk4(exponential_decay, [1.0], GRID, substeps=substeps)
            errors.append(abs(sol.final_state[0] - math.exp(-2.0)))
        ratio = errors[0] / errors[1]
        assert 10.0 < ratio < 24.0  # ~2^4

    def test_harmonic_oscillator_energy(self):
        grid = np.linspace(0.0, 2.0 * math.pi, 201)
        sol = rk4(harmonic, [1.0, 0.0], grid)
        energy = sol.y[:, 0] ** 2 + sol.y[:, 1] ** 2
        assert np.all(np.abs(energy - 1.0) < 1e-6)

    def test_output_grid_is_input_grid(self):
        sol = rk4(exponential_decay, [1.0], GRID)
        assert np.array_equal(sol.t, GRID)

    def test_nfev_accounting(self):
        sol = rk4(exponential_decay, [1.0], GRID, substeps=3)
        assert sol.nfev == (GRID.size - 1) * 3 * 4


class TestDopri45:
    def test_decay_high_accuracy(self):
        sol = dopri45(exponential_decay, [1.0], GRID, rtol=1e-10, atol=1e-12)
        assert sol.final_state[0] == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_dense_output_matches_analytic(self):
        sol = dopri45(exponential_decay, [1.0], GRID, rtol=1e-9, atol=1e-11)
        expected = np.exp(-GRID)
        assert np.max(np.abs(sol.y[:, 0] - expected)) < 1e-7

    def test_harmonic_long_horizon(self):
        grid = np.linspace(0.0, 20.0 * math.pi, 101)
        sol = dopri45(harmonic, [1.0, 0.0], grid, rtol=1e-9, atol=1e-11)
        assert sol.final_state[0] == pytest.approx(1.0, abs=1e-5)

    def test_stiff_linear_system(self):
        # y' = -1000(y − cos t) − sin t; exact solution y = cos t.
        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            return np.array([-1000.0 * (y[0] - math.cos(t)) - math.sin(t)])

        grid = np.linspace(0.0, 1.0, 11)
        sol = dopri45(rhs, [1.0], grid, rtol=1e-7, atol=1e-9)
        assert sol.final_state[0] == pytest.approx(math.cos(1.0), abs=1e-5)

    def test_tolerance_controls_error(self):
        loose = dopri45(exponential_decay, [1.0], GRID, rtol=1e-4, atol=1e-6)
        tight = dopri45(exponential_decay, [1.0], GRID, rtol=1e-10, atol=1e-12)
        err_loose = abs(loose.final_state[0] - math.exp(-2.0))
        err_tight = abs(tight.final_state[0] - math.exp(-2.0))
        assert err_tight < err_loose

    def test_fewer_fevals_than_fixed_step_at_same_accuracy(self):
        adaptive = dopri45(exponential_decay, [1.0], GRID, rtol=1e-8)
        fixed = rk4(exponential_decay, [1.0], GRID, substeps=20)
        assert adaptive.nfev < fixed.nfev

    def test_invalid_h_init(self):
        with pytest.raises(ParameterError):
            dopri45(exponential_decay, [1.0], GRID, h_init=-1.0)

    def test_initial_state_evaluated_once(self):
        """The first-step heuristic's f(t0, y0) seeds the FSAL slot, so
        nfev counts every call and the first state is evaluated once."""
        calls = []

        def rhs(t, y):
            calls.append((t, y.copy()))
            return exponential_decay(t, y)

        sol = dopri45(rhs, [1.0], GRID)
        at_start = [c for c in calls
                    if c[0] == GRID[0] and np.array_equal(c[1], [1.0])]
        assert len(at_start) == 1
        assert sol.nfev == len(calls)
        assert sol.stats.warmup_nfev == 2

    def test_blowup_raises(self):
        def rhs(_t: float, y: np.ndarray) -> np.ndarray:
            return y * y  # finite-time blowup from y0=2 at t=0.5

        with pytest.raises(IntegrationError):
            dopri45(rhs, [2.0], np.linspace(0.0, 1.0, 11), max_steps=100_000)

    @given(st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_property_decay_rate(self, rate: float):
        sol = dopri45(lambda _t, y: -rate * y, [1.0],
                      np.linspace(0.0, 1.0, 11), rtol=1e-9, atol=1e-12)
        assert sol.final_state[0] == pytest.approx(math.exp(-rate), rel=1e-6)


class TestScipyBackend:
    def test_matches_dopri45(self):
        ours = dopri45(harmonic, [1.0, 0.0], GRID, rtol=1e-9, atol=1e-11)
        scipy_sol = solve_ivp_scipy(harmonic, [1.0, 0.0], GRID,
                                    rtol=1e-9, atol=1e-11)
        assert np.max(np.abs(ours.y - scipy_sol.y)) < 1e-6


class TestIntegrateDispatch:
    @pytest.mark.parametrize("method", ["euler", "rk4", "dopri45", "scipy"])
    def test_all_methods_run(self, method: str):
        sol = integrate(exponential_decay, [1.0], GRID, method=method)
        assert sol.solver in (method, "scipy-lsoda")
        assert sol.final_state[0] == pytest.approx(math.exp(-2.0), rel=0.2)

    def test_unknown_method_raises(self):
        with pytest.raises(ParameterError):
            integrate(exponential_decay, [1.0], GRID, method="rk99")


class TestValidationAndSolution:
    def test_unsorted_grid_raises(self):
        with pytest.raises(ParameterError):
            rk4(exponential_decay, [1.0], [0.0, 2.0, 1.0])

    def test_single_point_grid_raises(self):
        with pytest.raises(ParameterError):
            rk4(exponential_decay, [1.0], [0.0])

    def test_empty_y0_raises(self):
        with pytest.raises(ParameterError):
            rk4(exponential_decay, [], GRID)

    def test_non_finite_y0_raises(self):
        with pytest.raises(ParameterError):
            rk4(exponential_decay, [math.nan], GRID)

    def test_solution_interpolation(self):
        sol = dopri45(exponential_decay, [1.0], GRID, rtol=1e-9)
        mid = sol.interpolate([0.5, 1.5])
        assert mid[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-3)
        assert mid[1, 0] == pytest.approx(math.exp(-1.5), rel=1e-3)

    def test_solution_interpolation_out_of_range_raises(self):
        sol = rk4(exponential_decay, [1.0], GRID)
        with pytest.raises(ParameterError):
            sol.interpolate([5.0])

    def test_solution_interpolation_empty_times(self):
        sol = rk4(exponential_decay, [1.0, 2.0], GRID)
        empty = sol.interpolate([])
        assert empty.shape == (0, 2)
        assert empty.dtype == sol.y.dtype

    def test_inconsistent_solution_shape_raises(self):
        with pytest.raises(ParameterError):
            OdeSolution(np.array([0.0, 1.0]), np.zeros((3, 2)), 0, "x")


class TestInterpolateVectorized:
    """The searchsorted gather reproduces np.interp bit for bit.

    ``OdeSolution.interpolate`` used to loop ``np.interp`` over every
    state column; the vectorized replacement must match that output
    exactly — including knot values, which ``np.interp`` returns
    without round-tripping through the slope formula, and the ±1e-12
    out-of-span tolerance, which it clamps to the endpoints.
    """

    @staticmethod
    def reference(sol: OdeSolution, times: np.ndarray) -> np.ndarray:
        out = np.empty((times.size, sol.y.shape[1]))
        for column in range(sol.y.shape[1]):
            out[:, column] = np.interp(times, sol.t, sol.y[:, column])
        return out

    def make_solution(self, n_columns: int = 17, seed: int = 0):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 10.0, 40))
        t[0], t[-1] = 0.0, 10.0
        y = rng.normal(size=(t.size, n_columns))
        return OdeSolution(t, y, 0, "test")

    def test_matches_per_column_interp_exactly(self):
        sol = self.make_solution()
        rng = np.random.default_rng(1)
        times = np.sort(rng.uniform(sol.t[0], sol.t[-1], 300))
        assert np.array_equal(sol.interpolate(times),
                              self.reference(sol, times))

    def test_knot_values_exact(self):
        sol = self.make_solution()
        out = sol.interpolate(sol.t)
        assert np.array_equal(out, sol.y)

    def test_tolerated_overshoot_clamps_like_interp(self):
        sol = self.make_solution()
        times = np.array([sol.t[0] - 5e-13, sol.t[-1] + 5e-13])
        out = sol.interpolate(times)
        assert np.array_equal(out, self.reference(sol, times))
        assert np.array_equal(out[0], sol.y[0])
        assert np.array_equal(out[1], sol.y[-1])

    def test_unsorted_query_times_allowed(self):
        sol = self.make_solution()
        times = np.array([7.3, 0.1, 9.9, 4.2])
        assert np.array_equal(sol.interpolate(times),
                              self.reference(sol, times))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_exact_match(self, seed):
        sol = self.make_solution(n_columns=5, seed=seed)
        rng = np.random.default_rng(seed + 1)
        times = rng.uniform(sol.t[0], sol.t[-1], 50)
        times = np.concatenate([times, sol.t[:5]])
        assert np.array_equal(sol.interpolate(times),
                              self.reference(sol, times))
