"""Initial-value-problem integrators implemented from scratch.

The heterogeneous SIR system (paper System (1)) on the Digg-like network is
a 2544-dimensional ODE (848 degree groups × 3 compartments), moderately
stiff when the acceptance rate ``λ(k) = k`` reaches degree ~1000.  The
library therefore ships:

* :func:`euler` — explicit Euler, used only in tests/teaching,
* :func:`rk4` — classic fixed-step 4th-order Runge–Kutta, the workhorse of
  the forward–backward sweep (both passes must share one time grid),
* :func:`dopri45` — adaptive Dormand–Prince 5(4) with PI step-size control
  and dense output via 4th-order Hermite interpolation (library default);
  with ``system1=`` it solves System (1) in the compiled kernel of
  :mod:`repro.numerics.system1`,
* :func:`solve_ivp_scipy` — thin wrapper over ``scipy.integrate.odeint``
  (LSODA) kept as an independent cross-check backend.

All integrators share one calling convention: ``f(t, y) -> dy/dt`` with
``y`` a 1-D ``numpy`` array, and return an :class:`OdeSolution`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import IntegrationError, ParameterError
from repro.numerics import system1 as kernel
from repro.numerics.system1 import System1
from repro.obs.trace import get_observer

__all__ = [
    "SolverStats",
    "OdeSolution",
    "euler",
    "rk4",
    "dopri45",
    "solve_ivp_scipy",
    "integrate",
    "SOLVERS",
]

RhsFunction = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SolverStats:
    """Integration telemetry attached to an :class:`OdeSolution`.

    Attributes
    ----------
    accepted, rejected:
        Step counts.  Fixed-step methods accept every step; for the
        adaptive solver ``rejected`` counts every retried attempt,
        including non-finite trial states that shrank the step.
    nfev:
        Right-hand-side evaluations (same value as ``OdeSolution.nfev``).
    warmup_nfev:
        Evaluations spent before the step loop: 2 for :func:`dopri45`'s
        initial-step heuristic, whose ``f(t0, y0)`` seeds the FSAL slot,
        or 1 with ``h_init``.  For :func:`dopri45` the exact accounting
        ``nfev == warmup_nfev + 6 * (accepted + rejected)`` holds; the
        compiled System (1) kernel counts the evaluations it makes, not
        the one call of ``f`` that checks its slope.
    h_min, h_max:
        Smallest/largest *accepted* step size.
    wall_seconds:
        Integration wall time (monotonic clock).
    """

    accepted: int
    rejected: int
    nfev: int
    warmup_nfev: int
    h_min: float
    h_max: float
    wall_seconds: float

    @property
    def total_steps(self) -> int:
        """Attempted steps: ``accepted + rejected``."""
        return self.accepted + self.rejected

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation."""
        return {
            "accepted": self.accepted, "rejected": self.rejected,
            "nfev": self.nfev, "warmup_nfev": self.warmup_nfev,
            "h_min": self.h_min, "h_max": self.h_max,
            "wall_seconds": self.wall_seconds,
        }


def _emit_solver_event(solver: str, dim: int, stats: SolverStats,
                       batch: int | None = None) -> None:
    """Report one finished integration to the active observer, if any.

    A stacked run passes its ``batch`` height and its rows' totals.
    """
    ob = get_observer()
    if ob is None:
        return
    context = {"dim": dim} if batch is None else {"dim": dim, "batch": batch}
    ob.emit("solver", solver=solver, **context, **stats.as_dict())
    ob.health.check_solver(solver, stats.accepted, stats.rejected,
                           context=context)
    metrics = ob.metrics
    metrics.inc("solver.runs")
    if batch is not None:
        metrics.inc("solver.batched_rows", batch)
    metrics.inc("solver.nfev", stats.nfev)
    metrics.inc("solver.steps_accepted", stats.accepted)
    metrics.inc("solver.steps_rejected", stats.rejected)
    metrics.observe("solver.wall_seconds", stats.wall_seconds)


@dataclass(frozen=True)
class OdeSolution:
    """Trajectory produced by an integrator.

    Attributes
    ----------
    t:
        1-D array of sample times, strictly increasing, shape ``(m,)``.
    y:
        2-D array of states, shape ``(m, n)`` — row ``j`` is the state at
        ``t[j]``.
    nfev:
        Number of right-hand-side evaluations.
    solver:
        Name of the integrator that produced the solution.
    stats:
        :class:`SolverStats` telemetry (accepted/rejected step counts,
        step-size range, wall time), or ``None`` for solutions
        constructed without it.
    """

    t: np.ndarray
    y: np.ndarray
    nfev: int
    solver: str
    stats: SolverStats | None = None

    def __post_init__(self) -> None:
        if self.t.ndim != 1 or self.y.ndim != 2 or self.y.shape[0] != self.t.shape[0]:
            raise ParameterError(
                f"inconsistent solution shapes t{self.t.shape} y{self.y.shape}"
            )

    @property
    def final_state(self) -> np.ndarray:
        """State vector at the last sample time."""
        return self.y[-1]

    def interpolate(self, times: Sequence[float] | np.ndarray) -> np.ndarray:
        """Linearly interpolate the trajectory at ``times``.

        Times outside the integration span raise
        :class:`~repro.exceptions.ParameterError`; an empty ``times``
        sequence returns an empty ``(0, n)`` array.

        One ``searchsorted`` gather interpolates every state column at
        once, reproducing ``np.interp``'s output bit for bit (same
        slope formula, same clamping, exact values at knots) without
        its per-column Python loop.
        """
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            return np.empty((0, self.y.shape[1]))
        if times.min() < self.t[0] - 1e-12 or times.max() > self.t[-1] + 1e-12:
            raise ParameterError(
                f"requested times outside span [{self.t[0]}, {self.t[-1]}]"
            )
        m = self.t.size
        # Interval index: t[j] <= time < t[j+1]; j = -1 below the span,
        # m - 1 at/after the final knot.
        j = np.searchsorted(self.t, times, side="right") - 1
        jc = np.clip(j, 0, m - 2)
        t0 = self.t[jc]
        span = self.t[jc + 1] - t0
        # np.interp's formula: slope · (x − x0) + y0.
        out = (self.y[jc + 1] - self.y[jc]) / span[:, None]
        out *= (times - t0)[:, None]
        out += self.y[jc]
        # np.interp returns knot values exactly (no round-trip through
        # the slope formula) and clamps outside the span.
        nearest = np.clip(j, 0, m - 1)
        direct = ((j < 0) | (times >= self.t[-1])
                  | (times == self.t[nearest]))
        if direct.any():
            out[direct] = self.y[nearest[direct]]
        return out


def _validate_grid(t_eval: Sequence[float] | np.ndarray) -> np.ndarray:
    grid = np.asarray(t_eval, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ParameterError("t_eval must contain at least two time points")
    if not np.all(np.diff(grid) > 0):
        raise ParameterError("t_eval must be strictly increasing")
    if not np.all(np.isfinite(grid)):
        raise ParameterError("t_eval must be finite")
    return grid


def _validate_y0(y0: Sequence[float] | np.ndarray) -> np.ndarray:
    y = np.asarray(y0, dtype=float).copy()
    if y.ndim != 1 or y.size == 0:
        raise ParameterError("y0 must be a non-empty 1-D array")
    if not np.all(np.isfinite(y)):
        raise ParameterError("y0 must be finite")
    return y


def euler(f: RhsFunction, y0: Sequence[float] | np.ndarray,
          t_eval: Sequence[float] | np.ndarray, *,
          substeps: int = 1) -> OdeSolution:
    """Explicit Euler over the grid ``t_eval``.

    ``substeps`` internal Euler steps are taken between consecutive output
    times, so accuracy can be pushed without changing the output grid.
    First-order accurate; intended for convergence-order tests and as the
    simplest reference implementation.
    """
    if substeps < 1:
        raise ParameterError("substeps must be >= 1")
    grid = _validate_grid(t_eval)
    y = _validate_y0(y0)
    start = time.perf_counter()
    out = np.empty((grid.size, y.size))
    out[0] = y
    nfev = 0
    for j in range(grid.size - 1):
        t, t_next = grid[j], grid[j + 1]
        h = (t_next - t) / substeps
        for s in range(substeps):
            y = y + h * f(t + s * h, y)
            nfev += 1
        out[j + 1] = y
    _check_finite(out, "euler")
    stats = _fixed_step_stats(grid, substeps, nfev, 1,
                              time.perf_counter() - start)
    _emit_solver_event("euler", y.size, stats)
    return OdeSolution(grid, out, nfev, "euler", stats=stats)


def rk4(f: RhsFunction, y0: Sequence[float] | np.ndarray,
        t_eval: Sequence[float] | np.ndarray, *,
        substeps: int = 1) -> OdeSolution:
    """Classic 4th-order Runge–Kutta over the grid ``t_eval``.

    The forward–backward sweep method uses this integrator for both the
    state (forward) and costate (backward, via time reversal) passes so
    that both live on the same grid.
    """
    if substeps < 1:
        raise ParameterError("substeps must be >= 1")
    grid = _validate_grid(t_eval)
    y = _validate_y0(y0)
    start = time.perf_counter()
    out = np.empty((grid.size, y.size))
    out[0] = y
    nfev = 0
    for j in range(grid.size - 1):
        t, t_next = grid[j], grid[j + 1]
        h = (t_next - t) / substeps
        for s in range(substeps):
            ts = t + s * h
            k1 = f(ts, y)
            k2 = f(ts + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(ts + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(ts + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            nfev += 4
        out[j + 1] = y
    _check_finite(out, "rk4")
    stats = _fixed_step_stats(grid, substeps, nfev, 4,
                              time.perf_counter() - start)
    _emit_solver_event("rk4", y.size, stats)
    return OdeSolution(grid, out, nfev, "rk4", stats=stats)


def _fixed_step_stats(grid: np.ndarray, substeps: int, nfev: int,
                      evals_per_step: int,
                      wall_seconds: float) -> SolverStats:
    """Stats for a fixed-step run: every step accepted, h from the grid."""
    spacing = np.diff(grid) / substeps
    return SolverStats(
        accepted=(grid.size - 1) * substeps, rejected=0, nfev=nfev,
        warmup_nfev=nfev - (grid.size - 1) * substeps * evals_per_step,
        h_min=float(spacing.min()), h_max=float(spacing.max()),
        wall_seconds=wall_seconds)


# Dormand–Prince 5(4) Butcher tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def dopri45(f: RhsFunction, y0: Sequence[float] | np.ndarray,
            t_eval: Sequence[float] | np.ndarray, *,
            rtol: float = 1e-8, atol: float = 1e-10,
            h_init: float | None = None, h_max: float | None = None,
            max_steps: int = 1_000_000,
            system1: System1 | None = None) -> OdeSolution:
    """Adaptive Dormand–Prince RK5(4) with PI step control.

    Integrates from ``t_eval[0]`` to ``t_eval[-1]``, emitting the state at
    every grid point via cubic Hermite dense output.  The embedded
    4th-order solution drives the local error estimate
    ``err = ||(y5 − y4) / (atol + rtol·max(|y|, |y_new|))||_RMS`` and a PI
    controller (``β = 0.04``) smooths step-size changes.  ``max_steps``
    is a budget of attempted steps, accepted or rejected.

    ``system1`` (a one-row :class:`~repro.numerics.system1.System1`)
    says that ``f`` is paper System (1) on the ``(3n,)`` state
    ``y0 = [S | I | R]`` under constant controls.  The compiled kernel
    then runs the whole solve under this control law, on (S, I) with R
    rebuilt from the conservation law and kept in the error norm.  ``f``
    is called once, at ``t0``, and a slope there other than the
    kernel's raises :class:`~repro.exceptions.ParameterError`.  Without
    the kernel (no C compiler) the Python loop integrates ``f`` on the
    full state.

    Raises :class:`~repro.exceptions.IntegrationError` on step-size
    underflow, NaN states, or step-budget exhaustion.
    """
    grid = _validate_grid(t_eval)
    y0 = _validate_y0(y0)
    start = time.perf_counter()
    run = _dopri45_rows(
        "dopri45", y0[None], grid, rhs_of_row=lambda _row: f,
        slope=lambda: np.asarray(f(grid[0], y0), dtype=float)[None],
        stacked=False, system1=system1, rtol=rtol, atol=atol,
        h_init=h_init, h_max=h_max, max_steps=max_steps)
    accepted, rejected = int(run.accepted[0]), int(run.rejected[0])
    warmup_nfev = 2 if h_init is None else 1
    nfev = warmup_nfev + 6 * (accepted + rejected)
    stats = SolverStats(
        accepted=accepted, rejected=rejected, nfev=nfev,
        warmup_nfev=warmup_nfev, h_min=float(run.h_min[0]),
        h_max=float(run.h_max[0]),
        wall_seconds=time.perf_counter() - start)
    _emit_solver_event("dopri45", y0.size, stats)
    return OdeSolution(grid, run.y[:, 0], nfev, "dopri45", stats=stats)


def _dopri45_rows(solver: str, y0: np.ndarray, grid: np.ndarray, *,
                 rhs_of_row: Callable[[int], RhsFunction],
                 slope: Callable[[], np.ndarray], stacked: bool,
                 system1: System1 | None, rtol: float, atol: float,
                 h_init: float | None, h_max: float | None,
                 max_steps: int) -> kernel.KernelRun:
    """Integrate the ``(B, d)`` rows ``y0`` over ``grid``, each on its own.

    The one engine choice behind :func:`dopri45` and
    :func:`~repro.numerics.ode_batched.dopri45_batched`: with ``system1``
    and the compiled kernel loaded, the kernel runs every row, checked
    against ``slope()``, the caller's right-hand side at ``(grid[0],
    y0)``; otherwise row ``b`` runs :func:`_dopri45_loop` on the scalar
    right-hand side ``rhs_of_row(b)``.  NumPy's floating-point warnings
    are silenced on both: a blow-up is reported by status.  Rows run in
    order; a row that exhausts ``max_steps`` is counted and the later
    rows still run, and any other failure stops the solve.

    Returns the successful run, or raises what its status means (see
    :func:`_raise_failure`, which names ``solver`` and, when
    ``stacked``, the batch row).
    """
    if h_max is None:
        h_max = grid[-1] - grid[0]
    if h_init is not None and h_init <= 0:
        raise ParameterError("h_init must be positive")
    options = dict(rtol=rtol, atol=atol, h_init=h_init, h_max=h_max)
    with np.errstate(all="ignore"):
        if system1 is not None and kernel.library() is not None:
            run = kernel.run(system1, y0, grid, slope=slope(),
                             max_attempts=max_steps, **options)
        else:
            run = _loop_rows(rhs_of_row, y0, grid, max_steps=max_steps,
                             **options)
    _raise_failure(run, solver, grid, max_steps, stacked)
    _check_finite(run.y, solver)
    return run


def _loop_rows(rhs_of_row: Callable[[int], RhsFunction], y0: np.ndarray,
               grid: np.ndarray, **options: object) -> kernel.KernelRun:
    """Each row through :func:`_dopri45_loop`, reported as
    :func:`~repro.numerics.system1.run` reports the kernel's rows."""
    batch, dim = y0.shape
    y = np.empty((grid.size, batch, dim))
    accepted = np.zeros(batch, dtype=np.int64)
    rejected = np.zeros(batch, dtype=np.int64)
    h_min = np.full(batch, np.inf)
    h_max = np.zeros(batch)
    status, row, t, h, stuck = kernel.OK, 0, 0.0, 0.0, 0
    for b in range(batch):
        (code, end_t, end_h, accepted[b], rejected[b], h_min[b],
         h_max[b]) = _dopri45_loop(rhs_of_row(b), y0[b], grid, y[:, b],
                                   **options)
        if code == kernel.OK:
            continue
        if code == kernel.EXHAUSTED:
            stuck += 1
            if stuck > 1:
                continue
        status, row, t, h = code, b, end_t, end_h
        if status != kernel.EXHAUSTED:
            break
    return kernel.KernelRun(y, accepted, rejected, h_min, h_max, status,
                            row, t, h, stuck)


def _raise_failure(run: kernel.KernelRun, solver: str, grid: np.ndarray,
                   max_steps: int, stacked: bool) -> None:
    """Raise the error a failed run's status names; return if it is OK.

    A slope that the kernel's constants do not reproduce is the caller's
    mistake (:class:`~repro.exceptions.ParameterError`); underflow,
    non-finite states and exhaustion are
    :class:`~repro.exceptions.IntegrationError`.
    """
    row = f" for batch row {run.row}" if stacked else ""
    if run.status == kernel.MISMATCH:
        raise ParameterError(
            f"{solver}: system1 does not describe f: their slopes at "
            f"t={grid[0]:.6g} differ{row}")
    if run.status == kernel.UNDERFLOW:
        problem = f"step size underflow{row} at t={run.t:.6g} (h={run.h:.3g})"
    elif run.status == kernel.NONFINITE:
        problem = f"produced non-finite state{row} at t={run.t:.6g}"
    elif run.status == kernel.EXHAUSTED and stacked:
        problem = (f"exhausted {max_steps} steps with {run.stuck} of "
                   f"{run.accepted.size} rows unfinished (first stuck row "
                   f"{run.row} at t={run.t:.6g})")
    elif run.status == kernel.EXHAUSTED:
        problem = f"exhausted {max_steps} steps before reaching t={grid[-1]}"
    else:
        return
    raise IntegrationError(f"{solver} {problem}")


def _dopri45_loop(f: RhsFunction, y0: np.ndarray, grid: np.ndarray,
                  out: np.ndarray, *, rtol: float, atol: float,
                  h_init: float | None, h_max: float,
                  max_steps: int) -> tuple:
    """:func:`dopri45`'s step loop, writing the ``(m, d)`` output ``out``.

    The loop behind :func:`_dopri45_rows` without the kernel.  It makes at
    most ``max_steps`` attempts and returns what a row of
    :func:`~repro.numerics.system1.run` reports: a status code (a
    failure is reported, not raised), the time and step it ended at,
    the accepted and rejected step counts, and the smallest and largest
    accepted step (``inf`` and 0 before any).
    """
    t0, tf = grid[0], grid[-1]
    dim = y0.size
    if h_init is None:
        h, f0 = _initial_step(f, t0, y0, rtol, atol, h_max)
    else:
        h = min(h_init, h_max)
        f0 = f(t0, y0)

    # Workspaces.  ``y`` and ``y5`` (the trial point) swap on every
    # accepted step, as do ``size`` and ``size5``, their absolute values.
    y = y0.copy()
    out[0] = y
    next_output = 1  # index into grid of the next output point to fill
    y5 = np.empty(dim)
    size = np.abs(y)
    size5 = np.empty(dim)
    err_vec = np.empty(dim)
    scale = np.empty(dim)
    k = np.empty((7, dim))
    y_stage = np.empty(dim)

    t = t0
    k[0] = f0
    accepted = rejected = 0
    h_lo, h_hi = math.inf, 0.0
    err_prev = 1.0
    safety, beta = 0.9, 0.04
    min_factor, max_factor = 0.2, 5.0
    order = 5.0

    while t < tf:
        if accepted + rejected >= max_steps:
            return (kernel.EXHAUSTED, t, h, accepted, rejected, h_lo,
                    h_hi)
        h = min(h, tf - t, h_max)
        if not h >= 1e-14 * max(abs(t), 1.0):  # a NaN step too
            return (kernel.UNDERFLOW, t, h, accepted, rejected, h_lo,
                    h_hi)
        # Stage evaluations (FSAL: k[0] holds f(t, y)).
        for stage in range(1, 7):
            np.matmul(_DP_A[stage], k[:stage], out=y_stage)
            y_stage *= h
            y_stage += y
            k[stage] = f(t + _DP_C[stage] * h, y_stage)
        np.matmul(_DP_B5, k, out=y5)
        y5 *= h
        np.matmul(_DP_B4, k, out=y_stage)
        y_stage *= h
        y5 += y
        y_stage += y                            # y4
        np.subtract(y5, y_stage, out=err_vec)
        # err = RMS((y5 − y4) / (atol + rtol·max(|y|, |y5|))), with
        # np.mean's pairwise sum.
        np.abs(y5, out=size5)
        np.maximum(size, size5, out=scale)
        scale *= rtol
        scale += atol
        err_vec /= scale
        np.multiply(err_vec, err_vec, out=err_vec)
        err = math.sqrt(float(np.add.reduce(err_vec)) / dim)
        if not math.isfinite(err) and not np.all(np.isfinite(y5)):
            # Shrink aggressively and retry rather than aborting outright.
            rejected += 1
            h *= 0.25
            if not h >= 1e-14 * max(abs(t), 1.0):
                return (kernel.NONFINITE, t, h, accepted, rejected, h_lo,
                        h_hi)
            continue
        if err <= 1.0:
            # Accept: emit dense output for all grid points inside (t, t+h].
            accepted += 1
            h_lo, h_hi = min(h_lo, h), max(h_hi, h)
            t_new = t + h
            while next_output < grid.size and grid[next_output] <= t_new + 1e-14:
                out[next_output] = _hermite(
                    t, t_new, y, y5, k[0], k[6], grid[next_output]
                )
                next_output += 1
            t = t_new
            y, y5 = y5, y
            size, size5 = size5, size
            k[0] = k[6]  # FSAL: last stage is f(t_new, y5)
            # PI controller.
            err = max(err, 1e-10)
            factor = safety * err ** (-0.7 / order) * err_prev ** (beta)
            err_prev = err
            h *= min(max_factor, max(min_factor, factor))
        else:
            rejected += 1
            h *= max(min_factor, safety * err ** (-1.0 / order))

    if next_output < grid.size:
        # Numerical edge: final grid point equals tf within round-off.
        out[next_output:] = y
    return kernel.OK, t, h, accepted, rejected, h_lo, h_hi


def _initial_step(f: RhsFunction, t0: float, y0: np.ndarray,
                  rtol: float, atol: float,
                  h_max: float) -> tuple[float, np.ndarray]:
    """Hairer–Nørsett–Wanner heuristic for the first step size.

    Returns the step and ``f(t0, y0)``, which seeds the FSAL slot.
    """
    scale = atol + rtol * np.abs(y0)
    f0 = f(t0, y0)
    d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    # h0 is 0 only when f0 overflows (d1 = inf), and then h1 is 0 anyway.
    d2 = (math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
          if h0 > 0 else math.inf)
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 5.0)
    return min(100.0 * h0, h1, h_max), f0


def _hermite(t0: float, t1: float, y0: np.ndarray, y1: np.ndarray,
             f0: np.ndarray, f1: np.ndarray, t: float) -> np.ndarray:
    """Cubic Hermite interpolation on a single accepted step."""
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def solve_ivp_scipy(f: RhsFunction, y0: Sequence[float] | np.ndarray,
                    t_eval: Sequence[float] | np.ndarray, *,
                    rtol: float = 1e-8, atol: float = 1e-10) -> OdeSolution:
    """Integrate with ``scipy.integrate.odeint`` (LSODA).

    Kept as an *independent* backend to cross-validate the from-scratch
    integrators; LSODA switches between Adams and BDF, so it also covers
    the stiff regimes our explicit methods handle via small steps.
    """
    from scipy.integrate import odeint

    grid = _validate_grid(t_eval)
    y = _validate_y0(y0)
    start = time.perf_counter()
    result, info = odeint(
        lambda state, t: f(t, state), y, grid,
        rtol=rtol, atol=atol, full_output=True,
    )
    if info["message"] != "Integration successful.":
        raise IntegrationError(f"scipy odeint failed: {info['message']}")
    _check_finite(result, "scipy-lsoda")
    nfev = int(info["nfe"][-1])
    # LSODA reports cumulative steps but not rejections; record what it
    # gives us (h range from the per-output-point step-size history).
    steps = int(info["nst"][-1])
    h_used = np.asarray(info["hu"], dtype=float)
    stats = SolverStats(
        accepted=steps, rejected=0, nfev=nfev, warmup_nfev=0,
        h_min=float(h_used.min()) if h_used.size else 0.0,
        h_max=float(h_used.max()) if h_used.size else 0.0,
        wall_seconds=time.perf_counter() - start)
    _emit_solver_event("scipy-lsoda", y.size, stats)
    return OdeSolution(grid, result, nfev, "scipy-lsoda", stats=stats)


def _check_finite(y: np.ndarray, solver: str) -> None:
    if not np.all(np.isfinite(y)):
        raise IntegrationError(f"{solver} produced non-finite state values")


SOLVERS: dict[str, Callable[..., OdeSolution]] = {
    "euler": euler,
    "rk4": rk4,
    "dopri45": dopri45,
    "scipy": solve_ivp_scipy,
}


def integrate(f: RhsFunction, y0: Sequence[float] | np.ndarray,
              t_eval: Sequence[float] | np.ndarray, *,
              method: str = "dopri45", **options: object) -> OdeSolution:
    """Integrate an IVP with the named method.

    ``method`` is one of ``"euler"``, ``"rk4"``, ``"dopri45"`` (default),
    or ``"scipy"``; remaining keyword options are forwarded to the solver.
    """
    try:
        solver = SOLVERS[method]
    except KeyError:
        raise ParameterError(
            f"unknown solver {method!r}; choose from {sorted(SOLVERS)}"
        ) from None
    return solver(f, y0, t_eval, **options)
