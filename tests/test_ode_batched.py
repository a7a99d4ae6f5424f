"""Tests for the batched ODE engine — solvers and the stacked model.

The contract under test (see ``docs/PERFORMANCE.md``):

* fixed-grid ``rk4_batched`` is **bitwise identical** to B scalar
  :func:`repro.numerics.ode.rk4` runs, both for plain right-hand sides
  and for the full System (1) via :class:`BatchedHeterogeneousSIR`;
* adaptive ``dopri45_batched`` solves each row on its own in the scalar
  :func:`repro.numerics.ode.dopri45` loop, so each row is **bitwise
  identical** to a scalar run of the same right-hand side;
* System (1) under dopri45 carries (S, I) and rebuilds R: each stacked
  row is bitwise equal to the same row integrated alone, and the result
  tracks a full (S, I, R) integration within ``rtol=1e-5, atol=1e-10``;
* rows finish independently, a ``rows`` array handed to the right-hand
  side never changes afterwards, right-hand sides without ``out=``
  support still work, and malformed inputs raise :class:`ParameterError`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedHeterogeneousSIR
from repro.core.model import HeterogeneousSIRModel
from repro.core.parameters import RumorModelParameters
from repro.core.state import RumorTrajectory, SIRState
from repro.exceptions import IntegrationError, ParameterError
from repro.networks.degree import power_law_distribution
from repro.numerics.ode import dopri45, integrate, rk4
from repro.numerics.ode_batched import (
    BatchedOdeSolution,
    dopri45_batched,
    integrate_batched,
    rk4_batched,
)

#: Tolerance of the looser comparisons with scalar model runs below;
#: the rows themselves are bitwise equal (``TestDopri45Batched``).
ADAPTIVE_RTOL, ADAPTIVE_ATOL = 1e-8, 1e-10


# -- reference systems ------------------------------------------------------

def make_params(n_groups: int = 6, alpha: float = 0.01,
                exponent: float = 2.0) -> RumorModelParameters:
    return RumorModelParameters(
        power_law_distribution(1, n_groups, exponent), alpha=alpha)


RATES = np.array([0.1, 0.5, 1.5, 4.0])


def decay_rhs_batched(t, y, rows, out=None):
    """dy/dt = −rate_b · y, rates indexed through ``rows``."""
    if out is None:
        out = np.empty_like(y)
    np.multiply(y, -RATES[rows][:, None], out=out)
    return out


def decay_rhs_no_out(t, y, rows):
    """Same system without ``out=`` support (adapter fallback path)."""
    return y * -RATES[rows][:, None]


def scalar_decay(rate):
    return lambda t, y: -rate * y


class TestRK4BatchedBitwise:
    GRID = np.linspace(0.0, 3.0, 13)
    Y0 = np.outer([1.0, 2.0, 3.0, 4.0], np.linspace(1.0, 2.0, 5))

    def test_matches_scalar_rows_bitwise(self):
        batched = rk4_batched(decay_rhs_batched, self.Y0, self.GRID)
        for b, rate in enumerate(RATES):
            scalar = rk4(scalar_decay(rate), self.Y0[b], self.GRID)
            assert np.array_equal(batched.y[:, b, :], scalar.y)

    def test_substeps_match_scalar(self):
        batched = rk4_batched(decay_rhs_batched, self.Y0, self.GRID,
                              substeps=3)
        for b, rate in enumerate(RATES):
            scalar = rk4(scalar_decay(rate), self.Y0[b], self.GRID,
                         substeps=3)
            assert np.array_equal(batched.y[:, b, :], scalar.y)

    def test_nfev_counts_per_row(self):
        batched = rk4_batched(decay_rhs_batched, self.Y0, self.GRID)
        expected = 4 * (self.GRID.size - 1)
        assert np.all(batched.nfev_rows == expected)
        assert batched.nfev == expected * len(RATES)

    def test_invalid_substeps(self):
        with pytest.raises(ParameterError):
            rk4_batched(decay_rhs_batched, self.Y0, self.GRID, substeps=0)


class TestDopri45Batched:
    GRID = np.linspace(0.0, 3.0, 13)
    Y0 = np.abs(np.sin(np.arange(20, dtype=float) + 1.0)).reshape(4, 5) + 0.5

    def test_matches_scalar_rows(self):
        batched = dopri45_batched(decay_rhs_batched, self.Y0, self.GRID)
        for b, rate in enumerate(RATES):
            scalar = dopri45(scalar_decay(rate), self.Y0[b], self.GRID)
            assert np.array_equal(batched.y[:, b, :], scalar.y)

    def test_rows_freeze_independently(self):
        # Widely different rates → very different step counts; every row
        # must still fill the whole shared grid.
        batched = dopri45_batched(decay_rhs_batched, self.Y0, self.GRID)
        assert np.all(np.isfinite(batched.y))
        assert batched.nfev_rows.min() >= 8
        # The stiffest row works harder than the slackest.
        assert batched.nfev_rows[np.argmax(RATES)] >= \
            batched.nfev_rows[np.argmin(RATES)]

    def test_passed_rows_never_change(self):
        """A right-hand side may keep the ``rows`` arrays it was given:
        the solver hands over one array per row and never rewrites one
        it has passed."""
        seen = []

        def keeping_rhs(t, y, rows, out=None):
            if not any(rows is kept for kept, _ in seen):
                seen.append((rows, rows.copy()))
            return decay_rhs_batched(t, y, rows, out)

        dopri45_batched(keeping_rhs, self.Y0, self.GRID)
        assert len(seen) >= 2  # one array per row
        for kept, first in seen:
            assert np.array_equal(kept, first)

    def test_rhs_without_out_support(self):
        with_out = dopri45_batched(decay_rhs_batched, self.Y0, self.GRID)
        without = dopri45_batched(decay_rhs_no_out, self.Y0, self.GRID)
        assert np.array_equal(with_out.y, without.y)

    def test_h_init_validation(self):
        with pytest.raises(ParameterError):
            dopri45_batched(decay_rhs_batched, self.Y0, self.GRID,
                            h_init=-1.0)

    def test_max_steps_exhaustion_names_row(self):
        with pytest.raises(IntegrationError, match="rows unfinished"):
            dopri45_batched(decay_rhs_batched, self.Y0, self.GRID,
                            max_steps=2)


class TestBatchedSolutionAndDispatch:
    def test_solution_row_extraction(self):
        grid = np.linspace(0.0, 1.0, 5)
        batched = rk4_batched(decay_rhs_batched, np.ones((4, 3)), grid)
        row = batched.solution(1)
        assert row.y.shape == (5, 3)
        assert np.array_equal(row.y, batched.y[:, 1, :])
        assert row.nfev == int(batched.nfev_rows[1])
        with pytest.raises(ParameterError):
            batched.solution(4)

    def test_final_states_and_batch_size(self):
        grid = np.linspace(0.0, 1.0, 5)
        batched = rk4_batched(decay_rhs_batched, np.ones((4, 3)), grid)
        assert batched.batch_size == 4
        assert np.array_equal(batched.final_states, batched.y[-1])

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ParameterError):
            BatchedOdeSolution(np.linspace(0, 1, 3), np.zeros((4, 2, 5)),
                               np.zeros(2, dtype=np.int64), "rk4-batched")

    def test_bad_y0_rejected(self):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ParameterError):
            rk4_batched(decay_rhs_batched, np.ones(3), grid)  # 1-D
        with pytest.raises(ParameterError):
            rk4_batched(decay_rhs_batched, np.empty((0, 3)), grid)
        with pytest.raises(ParameterError):
            rk4_batched(decay_rhs_batched,
                        np.array([[1.0, np.nan, 1.0]]), grid)

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError, match="unknown batched solver"):
            integrate_batched(decay_rhs_batched, np.ones((2, 3)),
                              np.linspace(0, 1, 5), method="euler")


# -- stacked System (1) -----------------------------------------------------

def scalar_reference(params, initial, eps1, eps2, *, t_final, n_samples,
                     method):
    """Per-point scalar trajectories, stacked to (m, B, 3n)."""
    model = HeterogeneousSIRModel(params)
    stacked = []
    for e1, e2 in zip(eps1, eps2):
        trajectory = model.simulate(initial, t_final=t_final, eps1=e1,
                                    eps2=e2, n_samples=n_samples,
                                    method=method)
        stacked.append(np.hstack([trajectory.susceptible,
                                  trajectory.infected,
                                  trajectory.recovered]))
    return np.stack(stacked, axis=1)


def full_state_reference(params, initial, eps1, eps2, grid):
    """Per-point ``ode.dopri45`` runs on the full (S, I, R) state.

    An independent reference for the (S, I) layout: it integrates R
    itself instead of rebuilding it from the conservation law.
    """
    model = HeterogeneousSIRModel(params)
    return np.stack([dopri45(model.rhs_constant(e1, e2), initial.pack(),
                             grid).y
                     for e1, e2 in zip(eps1, eps2)], axis=1)


@pytest.fixture(scope="module")
def digg_params():
    from repro.datasets import synthesize_digg2009
    return RumorModelParameters(synthesize_digg2009().distribution)


class TestSusceptibleInfectedLayout:
    """dopri45 carries (S, I) and rebuilds R, with R in the error norm."""

    DIGG_POLICIES = [(0.2, 0.05), (0.1, 0.03), (0.3, 0.1), (0.05, 0.01)]

    def test_digg_rows_independent_of_batch_mates(self, digg_params):
        initial = SIRState.initial(digg_params.n_groups, 0.01)
        eps1, eps2 = zip(*self.DIGG_POLICIES)
        stacked = BatchedHeterogeneousSIR(
            digg_params, eps1=eps1, eps2=eps2).simulate(
                initial, t_final=60.0, n_samples=61)
        for b, (e1, e2) in enumerate(self.DIGG_POLICIES):
            alone = BatchedHeterogeneousSIR(
                digg_params, eps1=[e1], eps2=[e2]).simulate(
                    initial, t_final=60.0, n_samples=61)
            assert np.array_equal(stacked.y[:, b], alone.y[:, 0])
            assert stacked.nfev_rows[b] == alone.nfev_rows[0]

    @pytest.mark.parametrize("eps1, eps2", [(0.2, 0.05), (0.1, 0.03)])
    def test_digg_step_counts_match_full_state(self, digg_params, eps1,
                                               eps2):
        initial = SIRState.initial(digg_params.n_groups, 0.01)
        grid = np.linspace(0.0, 60.0, 61)
        carried = BatchedHeterogeneousSIR(
            digg_params, eps1=[eps1], eps2=[eps2]).simulate(
                initial, t_eval=grid)
        model = HeterogeneousSIRModel(digg_params)
        full = dopri45(model.rhs_constant(eps1, eps2), initial.pack(), grid)
        assert carried.stats.accepted_rows[0] == full.stats.accepted
        assert carried.stats.rejected_rows[0] == full.stats.rejected
        assert np.allclose(carried.y[:, 0], full.y, rtol=1e-5, atol=1e-10)

    def test_grid_starting_after_zero(self):
        """R is rebuilt from the totals at ``t_eval[0]``: a grid that
        starts at t = 5, from a state with R > 0, tracks the full-state
        integration on the solo and the stacked path."""
        params = make_params(8)
        n = params.n_groups
        initial = SIRState(np.full(n, 0.8), np.full(n, 0.05),
                           np.full(n, 0.15))
        grid = np.linspace(5.0, 15.0, 21)
        eps1, eps2 = [0.05, 0.15], [0.02, 0.08]
        reference = full_state_reference(params, initial, eps1, eps2, grid)
        stacked = BatchedHeterogeneousSIR(params, eps1=eps1,
                                          eps2=eps2).simulate(initial,
                                                              t_eval=grid)
        assert np.allclose(stacked.y, reference, rtol=1e-5, atol=1e-10)
        model = HeterogeneousSIRModel(params)
        for b, (e1, e2) in enumerate(zip(eps1, eps2)):
            solo = model.simulate(initial, t_final=grid[-1], eps1=e1,
                                  eps2=e2, t_eval=grid)
            flat = np.hstack([solo.susceptible, solo.infected,
                              solo.recovered])
            assert np.allclose(flat, reference[:, b], rtol=1e-5,
                               atol=1e-10)


class TestBatchedModel:
    EPS1 = [0.05, 0.15, 0.30]
    EPS2 = [0.02, 0.08, 0.12]

    @pytest.fixture(scope="class")
    def params(self):
        return make_params(8)

    @pytest.fixture(scope="class")
    def initial(self, params):
        return SIRState.initial(params.n_groups, 0.05)

    def test_rk4_bitwise_vs_scalar_model(self, params, initial):
        batch = BatchedHeterogeneousSIR(params, eps1=self.EPS1,
                                        eps2=self.EPS2)
        solution = batch.simulate(initial, t_final=10.0, n_samples=21,
                                  method="rk4")
        reference = scalar_reference(params, initial, self.EPS1, self.EPS2,
                                     t_final=10.0, n_samples=21,
                                     method="rk4")
        assert np.array_equal(solution.y, reference)

    def test_dopri45_matches_scalar_model(self, params, initial):
        batch = BatchedHeterogeneousSIR(params, eps1=self.EPS1,
                                        eps2=self.EPS2)
        solution = batch.simulate(initial, t_final=10.0, n_samples=21)
        reference = scalar_reference(params, initial, self.EPS1, self.EPS2,
                                     t_final=10.0, n_samples=21,
                                     method="dopri45")
        assert np.allclose(solution.y, reference,
                           rtol=ADAPTIVE_RTOL, atol=ADAPTIVE_ATOL)

    def test_reduced_state_conserves_and_approximates(self, params, initial):
        batch = BatchedHeterogeneousSIR(params, eps1=self.EPS1,
                                        eps2=self.EPS2)
        reduced = batch.simulate(initial, t_final=10.0, n_samples=21)
        full = full_state_reference(params, initial, self.EPS1, self.EPS2,
                                    reduced.t)
        n = params.n_groups
        # Conservation: S + I + R = total0 + α·t per group, exactly as
        # reconstructed.
        totals = (reduced.y[:, :, :n] + reduced.y[:, :, n:2 * n]
                  + reduced.y[:, :, 2 * n:])
        expected = totals[0][None] + params.alpha * reduced.t[:, None, None]
        assert np.allclose(totals, expected, rtol=1e-12, atol=1e-12)
        # R stays in the error norm, so the (S, I) run tracks the
        # full-state integration to the dense output's accuracy.
        assert np.allclose(reduced.y, full, rtol=1e-5, atol=1e-7)

    def test_population_accessors(self, params, initial):
        batch = BatchedHeterogeneousSIR(params, eps1=self.EPS1,
                                        eps2=self.EPS2)
        solution = batch.simulate(initial, t_final=5.0, n_samples=11)
        infected = batch.population_infected(solution)
        susceptible = batch.population_susceptible(solution)
        recovered = batch.population_recovered(solution)
        assert infected.shape == (11, 3)
        assert susceptible.shape == (11, 3)
        assert recovered.shape == (11, 3)
        # Row accessor agrees with the trajectory view (up to the BLAS
        # kernel's reduction-order ulps: 3-D vs 2-D matmul).
        trajectory = batch.trajectory(solution, 2)
        assert np.allclose(trajectory.population_infected(), infected[:, 2],
                           rtol=1e-13, atol=0)

    @pytest.mark.parametrize("method", ["dopri45", "rk4"])
    @pytest.mark.parametrize("n_groups, rows", [(7, 2), (30, 3), (333, 5)])
    def test_trajectory_view_reduces_as_a_copy(self, method, n_groups, rows):
        """A row's trajectory is a view of the batch output, and its
        population series equal a contiguous copy's bitwise."""
        params = make_params(n_groups)
        batch = BatchedHeterogeneousSIR(
            params, eps1=np.linspace(0.05, 0.4, rows),
            eps2=np.linspace(0.01, 0.2, rows))
        solution = batch.simulate(SIRState.initial(n_groups, 0.05),
                                  t_final=5.0, n_samples=61, method=method)
        for row in range(rows):
            view = batch.trajectory(solution, row)
            copy = solution.solution(row)
            assert np.shares_memory(view.infected, solution.y)
            for series in ("population_susceptible", "population_infected",
                           "population_recovered"):
                got = getattr(view, series)()
                want = getattr(RumorTrajectory(params, copy.t, copy.y),
                               series)()
                assert np.array_equal(got, want), (series, row)
        with pytest.raises(ParameterError, match="out of range"):
            batch.trajectory(solution, rows)

    def test_per_row_alpha_and_lambda(self, params, initial):
        alphas = [0.01, 0.02, 0.03]
        batch = BatchedHeterogeneousSIR(params, eps1=self.EPS1,
                                        eps2=self.EPS2, alpha=alphas)
        solution = batch.simulate(initial, t_final=5.0, n_samples=11)
        model = HeterogeneousSIRModel(
            RumorModelParameters(params.distribution, alpha=alphas[1]))
        reference = model.simulate(initial, t_final=5.0, eps1=self.EPS1[1],
                                   eps2=self.EPS2[1], n_samples=11)
        assert np.allclose(solution.y[:, 1, :params.n_groups],
                           reference.susceptible,
                           rtol=ADAPTIVE_RTOL, atol=ADAPTIVE_ATOL)

    def test_validation_errors(self, params, initial):
        with pytest.raises(ParameterError):  # broadcast mismatch
            BatchedHeterogeneousSIR(params, eps1=[0.1, 0.2],
                                    eps2=[0.1, 0.2, 0.3])
        with pytest.raises(ParameterError):  # alpha size mismatch
            BatchedHeterogeneousSIR(params, eps1=[0.1, 0.2], eps2=0.05,
                                    alpha=[0.01, 0.02, 0.03])
        with pytest.raises(ParameterError):  # lambda_k bad shape
            BatchedHeterogeneousSIR(params, eps1=[0.1, 0.2], eps2=0.05,
                                    lambda_k=np.ones((3, params.n_groups)))
        with pytest.raises(ParameterError):  # negative rate
            BatchedHeterogeneousSIR(params, eps1=-0.1, eps2=0.05)
        batch = BatchedHeterogeneousSIR(params, eps1=[0.1, 0.2], eps2=0.05)
        with pytest.raises(ParameterError):  # wrong initial width
            batch.simulate(np.ones(7), t_final=1.0)
        with pytest.raises(ParameterError):  # wrong batch height
            batch.simulate(np.ones((3, 3 * params.n_groups)), t_final=1.0)
        with pytest.raises(ParameterError):  # missing horizon
            batch.simulate(initial)


class TestBatchedEquivalenceProperties:
    """Hypothesis: the batched engine equals scalar runs for any draw."""

    SETTINGS = settings(max_examples=10, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])

    draws = st.fixed_dictionaries({
        "n_groups": st.integers(3, 8),
        "exponent": st.floats(1.6, 2.8, allow_nan=False),
        "alpha": st.floats(5e-3, 0.04, allow_nan=False),
        "batch": st.integers(1, 5),
        "infected0": st.floats(0.01, 0.25, allow_nan=False),
        "seed": st.integers(0, 2**31 - 1),
    })

    @SETTINGS
    @given(draw=draws)
    def test_rk4_bitwise_any_draw(self, draw):
        params = make_params(draw["n_groups"], draw["alpha"],
                             draw["exponent"])
        rng = np.random.default_rng(draw["seed"])
        eps1 = rng.uniform(0.02, 0.35, draw["batch"])
        eps2 = rng.uniform(0.02, 0.35, draw["batch"])
        initial = SIRState.initial(params.n_groups, draw["infected0"])
        batch = BatchedHeterogeneousSIR(params, eps1=eps1, eps2=eps2)
        solution = batch.simulate(initial, t_final=6.0, n_samples=13,
                                  method="rk4")
        reference = scalar_reference(params, initial, eps1, eps2,
                                     t_final=6.0, n_samples=13,
                                     method="rk4")
        assert np.array_equal(solution.y, reference)

    @SETTINGS
    @given(draw=draws)
    def test_dopri45_allclose_any_draw(self, draw):
        params = make_params(draw["n_groups"], draw["alpha"],
                             draw["exponent"])
        rng = np.random.default_rng(draw["seed"])
        eps1 = rng.uniform(0.02, 0.35, draw["batch"])
        eps2 = rng.uniform(0.02, 0.35, draw["batch"])
        initial = SIRState.initial(params.n_groups, draw["infected0"])
        batch = BatchedHeterogeneousSIR(params, eps1=eps1, eps2=eps2)
        solution = batch.simulate(initial, t_final=6.0, n_samples=13)
        reference = scalar_reference(params, initial, eps1, eps2,
                                     t_final=6.0, n_samples=13,
                                     method="dopri45")
        assert np.allclose(solution.y, reference,
                           rtol=ADAPTIVE_RTOL, atol=ADAPTIVE_ATOL)

    @SETTINGS
    @given(draw=draws)
    def test_dopri45_rows_independent_of_batch_mates(self, draw):
        params = make_params(draw["n_groups"], draw["alpha"],
                             draw["exponent"])
        rng = np.random.default_rng(draw["seed"])
        eps1 = rng.uniform(0.02, 0.35, draw["batch"])
        eps2 = rng.uniform(0.02, 0.35, draw["batch"])
        initial = SIRState.initial(params.n_groups, draw["infected0"])
        stacked = BatchedHeterogeneousSIR(params, eps1=eps1, eps2=eps2)
        solution = stacked.simulate(initial, t_final=6.0, n_samples=13)
        for b in range(draw["batch"]):
            alone = BatchedHeterogeneousSIR(
                params, eps1=eps1[b:b + 1], eps2=eps2[b:b + 1]).simulate(
                    initial, t_final=6.0, n_samples=13)
            assert np.array_equal(solution.y[:, b], alone.y[:, 0])
            assert solution.nfev_rows[b] == alone.nfev_rows[0]

    @SETTINGS
    @given(draw=draws)
    def test_dopri45_close_to_full_state_any_draw(self, draw):
        params = make_params(draw["n_groups"], draw["alpha"],
                             draw["exponent"])
        rng = np.random.default_rng(draw["seed"])
        eps1 = rng.uniform(0.02, 0.35, draw["batch"])
        eps2 = rng.uniform(0.02, 0.35, draw["batch"])
        initial = SIRState.initial(params.n_groups, draw["infected0"])
        batch = BatchedHeterogeneousSIR(params, eps1=eps1, eps2=eps2)
        solution = batch.simulate(initial, t_final=6.0, n_samples=13)
        reference = full_state_reference(params, initial, eps1, eps2,
                                         solution.t)
        assert np.allclose(solution.y, reference, rtol=1e-5, atol=1e-10)
