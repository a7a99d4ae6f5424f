"""The heterogeneous-network rumor SIR model (paper System (1)).

For every degree group i::

    dS_i/dt = α − λ(k_i) S_i Θ(t) − ε1(t) S_i
    dI_i/dt = λ(k_i) S_i Θ(t) − ε2(t) I_i
    dR_i/dt = ε1(t) S_i + ε2(t) I_i

with the coupling term ``Θ(t) = (1/⟨k⟩) Σ_i ω(k_i) P(k_i) I_i(t)``.

ε1 is the truth-spreading (immunization) rate acting on susceptibles and
ε2 the blocking rate acting on infected users; both may be constants or
arbitrary functions of time (the optimal-control pipeline feeds
time-varying controls through the same entry point).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.parameters import RumorModelParameters
from repro.core.state import RumorTrajectory, SIRState
from repro.exceptions import IntegrationError, ParameterError
from repro.numerics.ode import integrate
from repro.numerics.system1 import System1
from repro.obs.trace import Observer, get_observer

__all__ = ["HeterogeneousSIRModel", "as_control"]

ControlInput = float | Callable[[float], float]


def as_control(value: ControlInput, name: str) -> Callable[[float], float]:
    """Normalize a control input to a callable of time.

    Constants are validated (non-negative, finite) and wrapped; callables
    pass through untouched — their values are validated lazily inside the
    right-hand side.
    """
    if callable(value):
        return value
    rate = float(value)
    if not np.isfinite(rate) or rate < 0:
        raise ParameterError(f"{name} must be a non-negative finite rate, got {rate}")
    return lambda _t: rate


def output_grid(t_final: float | None, n_samples: int,
                t_eval: Sequence[float] | np.ndarray | None) -> np.ndarray:
    """A simulation's output times: ``t_eval``, or else ``n_samples``
    equally spaced times over ``[0, t_final]``."""
    if t_eval is not None:
        return np.asarray(t_eval, dtype=float)
    if t_final is None or t_final <= 0:
        raise ParameterError(f"t_final must be positive, got {t_final}")
    if n_samples < 2:
        raise ParameterError("n_samples must be >= 2")
    return np.linspace(0.0, float(t_final), int(n_samples))


@contextmanager
def integration_alarm(method: str,
                      context: dict[str, object]) -> Iterator[Observer | None]:
    """Report the integration run inside to the ``integration`` alarm.

    An :class:`~repro.exceptions.IntegrationError` unwinds before any
    trajectory exists, so result-level checks never see it: it trips
    the alarm before propagating, and a clean run heals it.  Yields the
    active observer, or ``None``.
    """
    observer = get_observer()
    try:
        yield observer
    except IntegrationError as error:
        if observer is not None:
            observer.health.check_integration(str(method), error,
                                              context=context)
        raise
    if observer is not None:
        observer.health.check_integration(str(method), context=context)


class HeterogeneousSIRModel:
    """Simulation front-end for paper System (1).

    Parameters
    ----------
    params:
        Structural model parameters (network summary, α, λ(k), ω(k)).

    Examples
    --------
    >>> from repro.datasets import synthesize_digg2009
    >>> from repro.core import RumorModelParameters, HeterogeneousSIRModel, SIRState
    >>> params = RumorModelParameters(synthesize_digg2009().distribution)
    >>> model = HeterogeneousSIRModel(params)
    >>> y0 = SIRState.initial(params.n_groups, 0.01)
    >>> traj = model.simulate(y0, t_final=50.0, eps1=0.2, eps2=0.05)
    >>> bool(traj.population_infected()[-1] < y0.infected.mean() * 2)
    True
    >>> # r0 < 1 here, so a longer horizon drives the rumor extinct:
    >>> long = model.simulate(y0, t_final=600.0, eps1=0.2, eps2=0.05)
    >>> bool(long.population_infected()[-1] < 1e-3)
    True
    """

    def __init__(self, params: RumorModelParameters) -> None:
        self.params = params
        # System (1)'s constants, read on every right-hand-side call
        # (each parameter property costs ~0.1 µs, a fifth of a NumPy
        # call at tens of groups).
        self._n = params.n_groups
        self._phi = params.phi_k
        self._lam = params.lambda_k
        self._mean_degree = params.mean_degree
        self._alpha = params.alpha

    # -- dynamics -------------------------------------------------------------
    def _rhs_into(self, y: np.ndarray, e1: float, e2: float,
                  out: np.ndarray) -> np.ndarray:
        """System (1)'s (S, I) derivatives, written into ``out[:2n]``.

        :meth:`rhs` and :meth:`rhs_constant` pass here and append R's
        derivative.  The operations are those of
        :meth:`repro.core.batched.BatchedHeterogeneousSIR.rhs` for one
        row, in the same order, so fixed-grid runs are bitwise equal
        solo and stacked.  Θ uses an elementwise product followed by
        numpy's pairwise summation (not a BLAS dot) because that
        reduction is bitwise-reproducible row by row.
        """
        n = self._n
        s = y[:n]
        i = y[n:2 * n]
        o_s = out[:n]
        o_i = out[n:2 * n]
        np.multiply(i, self._phi, out=o_s)      # o_s doubles as scratch
        theta = np.add.reduce(o_s) / self._mean_degree
        np.multiply(self._lam, s, out=o_i)
        o_i *= theta                            # infection = (λ·S)·Θ
        np.subtract(self._alpha, o_i, out=o_s)  # α − infection
        o_s -= e1 * s                           # (α − infection) − ε1·S
        o_i -= e2 * i                           # infection − ε2·I
        return out

    def rhs(self, t: float, y: np.ndarray,
            eps1: Callable[[float], float],
            eps2: Callable[[float], float]) -> np.ndarray:
        """Right-hand side of System (1) on the flat ``(3n,)`` state."""
        e1 = float(eps1(t))
        e2 = float(eps2(t))
        if e1 < 0 or e2 < 0:
            raise ParameterError(
                f"controls must be non-negative, got eps1={e1}, eps2={e2} at t={t}"
            )
        out = self._rhs_into(y, e1, e2, np.empty_like(y))
        n = self._n
        out[2 * n:] = e1 * y[:n] + e2 * y[n:2 * n]
        return out

    def rhs_constant(self, eps1: float, eps2: float) -> Callable[[float, np.ndarray], np.ndarray]:
        """Closed-over RHS with constant controls on the flat ``(3n,)`` state."""
        e1 = float(eps1)
        e2 = float(eps2)
        if e1 < 0 or e2 < 0:
            raise ParameterError("controls must be non-negative")
        rhs_into = self._rhs_into
        n = self._n
        two_n = 2 * n

        def f(_t: float, y: np.ndarray) -> np.ndarray:
            out = rhs_into(y, e1, e2, np.empty_like(y))
            out[two_n:] = e1 * y[:n] + e2 * y[n:two_n]
            return out

        return f

    # -- simulation ------------------------------------------------------------
    def simulate(self, initial: SIRState, *,
                 t_final: float,
                 eps1: ControlInput,
                 eps2: ControlInput,
                 n_samples: int = 201,
                 t_eval: Sequence[float] | np.ndarray | None = None,
                 method: str = "dopri45",
                 **solver_options: object) -> RumorTrajectory:
        """Integrate System (1) from ``initial`` over ``(0, t_final]``.

        Parameters
        ----------
        initial:
            Initial compartment densities (must have the model's group
            count; the paper uses ``S = 1 − I``, ``R = 0``).
        t_final:
            End of the horizon (the paper's ``tf``).
        eps1, eps2:
            Immunization and blocking controls — constants or callables
            of time.
        n_samples:
            Number of equally spaced output samples (ignored when
            ``t_eval`` is given).
        t_eval:
            Explicit output grid; ``initial`` is the state at its first
            time (usually 0).
        method:
            Solver name understood by :func:`repro.numerics.integrate`.
        """
        if initial.n_groups != self.params.n_groups:
            raise ParameterError(
                f"initial state has {initial.n_groups} groups, model has "
                f"{self.params.n_groups}"
            )
        grid = output_grid(t_final, n_samples, t_eval)
        y0 = initial.pack()
        options = dict(solver_options)
        if callable(eps1) or callable(eps2):
            e1 = as_control(eps1, "eps1")
            e2 = as_control(eps2, "eps2")
            f = lambda t, y: self.rhs(t, y, e1, e2)  # noqa: E731
        else:
            f = self.rhs_constant(eps1, eps2)
            if method == "dopri45":
                # The compiled kernel solves it, calling f once to check
                # these constants against it (see repro.numerics.system1).
                options["system1"] = System1(
                    self._phi, self._mean_degree, self._lam,
                    np.array([self._alpha]), np.array([float(eps1)]),
                    np.array([float(eps2)]))
        with integration_alarm(method,
                               {"where": "model.simulate"}) as observer:
            solution = integrate(f, y0, grid, method=method, **options)
        if observer is not None:
            # Live invariant checks (read-only on the solution): per-group
            # S+I+R mass must follow the d/dt = α growth law of System
            # (1), and densities must stay (numerically) non-negative.
            n = self.params.n_groups
            masses = (solution.y[:, :n] + solution.y[:, n:2 * n]
                      + solution.y[:, 2 * n:3 * n])
            context = {"where": "model.simulate", "method": str(method)}
            observer.health.check_conservation(
                solution.t, masses, self.params.alpha, context=context)
            observer.health.check_positivity(float(np.min(solution.y)),
                                             context=context)
        return RumorTrajectory(self.params, solution.t, solution.y)

    # -- conveniences ------------------------------------------------------------
    def equilibrium_residual(self, state: SIRState, eps1: float, eps2: float) -> float:
        """∞-norm of d(S, I)/dt at ``state`` — 0 exactly at an equilibrium.

        Only the (S, I) block is checked: with α > 0 the R compartment
        grows without bound at any equilibrium of the reduced system
        (paper System (2)), mirroring the paper's analysis which drops
        the third equation.
        """
        y = state.pack()
        d = self.rhs(0.0, y, as_control(eps1, "eps1"), as_control(eps2, "eps2"))
        n = self.params.n_groups
        return float(np.max(np.abs(d[: 2 * n])))
