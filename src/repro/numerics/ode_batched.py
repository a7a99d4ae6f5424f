"""Batched initial-value-problem integrators: B systems as one stack.

A parameter sweep integrates the *same* ODE family at many parameter
points.  This module takes ``B`` points as one ``(B, d)`` state matrix
and returns their trajectories as one :class:`BatchedOdeSolution`:

* :func:`rk4_batched` — classic fixed-step RK4 on a **shared** output
  grid, driving the whole batch through one solver loop so every numpy
  call operates on ``B × d`` elements.  Every row sees exactly the
  arithmetic of the scalar :func:`repro.numerics.ode.rk4` (same
  elementwise operations, same step sizes), so a batched run is
  **bitwise identical** to B scalar runs whenever the batched
  right-hand side is row-wise bitwise identical to the scalar one.
* :func:`dopri45_batched` — adaptive Dormand–Prince 5(4), each row its
  own solve under the control law of :func:`repro.numerics.ode.dopri45`.
  With ``system1=`` the rows of paper System (1) run in the compiled
  kernel of :mod:`repro.numerics.system1`; otherwise each row runs
  ``dopri45``'s Python loop.  Either way a stacked row is bitwise equal
  to the same row solved alone, and, under the same condition on the
  right-hand side as ``rk4_batched``'s, to the solo ``dopri45`` answer.

Calling convention
------------------
A batched right-hand side is ``f(t, y, rows) -> dy/dt`` where ``t`` has
shape ``(L,)`` (one time per row), ``y`` has shape ``(L, d)``, and
``rows`` is an ``(L,)`` integer array naming the batch indices 0..B-1
that ``y`` holds.  The solvers pass all B rows at once, except
``dopri45_batched``'s Python loop, which passes one row at a time with
one ``rows`` array per row.  A right-hand side holding per-row
parameter arrays must therefore index them with ``rows`` (see
:class:`repro.core.batched.BatchedHeterogeneousSIR`); one with no
per-row parameters may ignore ``rows``.  The solvers never mutate a
``rows`` array they have passed, so a right-hand side may cache per-row
data keyed on its identity.

A right-hand side may additionally accept ``out=`` — a preallocated
``(L, d)`` array to write the derivative into — which the solvers use
when they pass all B rows.  They detect support on the first evaluation
and fall back to copying the returned array when ``out=`` is not
accepted, so plain ``f(t, y, rows)`` callables keep working unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ParameterError
from repro.numerics.ode import (
    OdeSolution,
    SolverStats,
    _check_finite,
    _dopri45_rows,
    _emit_solver_event,
    _fixed_step_stats,
    _validate_grid,
)
from repro.numerics.system1 import System1

__all__ = [
    "BatchedSolverStats",
    "BatchedOdeSolution",
    "BatchedRhsFunction",
    "rk4_batched",
    "dopri45_batched",
    "integrate_batched",
    "BATCHED_SOLVERS",
]

BatchedRhsFunction = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BatchedSolverStats:
    """Per-row integration telemetry for a batched run.

    Mirrors :class:`~repro.numerics.ode.SolverStats` with one entry per
    batch row.  ``wall_seconds`` is the whole batch's wall time.  The
    adaptive accounting holds row-wise:
    ``nfev_rows == warmup_nfev + 6 * (accepted_rows + rejected_rows)``.
    """

    accepted_rows: np.ndarray
    rejected_rows: np.ndarray
    warmup_nfev: int
    h_min_rows: np.ndarray
    h_max_rows: np.ndarray
    wall_seconds: float

    def row(self, index: int, nfev: int) -> SolverStats:
        """Row ``index``'s telemetry as scalar :class:`SolverStats`.

        ``wall_seconds`` is the whole batch's wall time.
        """
        return SolverStats(
            accepted=int(self.accepted_rows[index]),
            rejected=int(self.rejected_rows[index]),
            nfev=nfev, warmup_nfev=self.warmup_nfev,
            h_min=float(self.h_min_rows[index]),
            h_max=float(self.h_max_rows[index]),
            wall_seconds=self.wall_seconds)

    def total(self, nfev: int) -> SolverStats:
        """The batch's telemetry as one :class:`SolverStats`: step counts
        summed over the rows, the range of every row's accepted steps,
        and ``nfev`` evaluations."""
        return SolverStats(
            accepted=int(self.accepted_rows.sum()),
            rejected=int(self.rejected_rows.sum()),
            nfev=nfev, warmup_nfev=self.warmup_nfev,
            h_min=float(self.h_min_rows.min()),
            h_max=float(self.h_max_rows.max()),
            wall_seconds=self.wall_seconds)


@dataclass(frozen=True)
class BatchedOdeSolution:
    """Trajectories of a batch of B systems integrated together.

    Attributes
    ----------
    t:
        Shared sample times, shape ``(m,)``.
    y:
        States, shape ``(m, B, d)`` — ``y[j, b]`` is row ``b``'s state at
        ``t[j]``.
    nfev_rows:
        Per-row right-hand-side evaluation counts, shape ``(B,)``.  A
        batched call evaluating L rows counts one evaluation for each
        of those rows.
    solver:
        Name of the integrator that produced the solution.
    stats:
        :class:`BatchedSolverStats` telemetry (per-row accepted and
        rejected step counts, step-size ranges, the batch's wall time), or
        ``None`` for solutions constructed without it.
    """

    t: np.ndarray
    y: np.ndarray
    nfev_rows: np.ndarray
    solver: str
    stats: BatchedSolverStats | None = None

    def __post_init__(self) -> None:
        if (self.t.ndim != 1 or self.y.ndim != 3
                or self.y.shape[0] != self.t.shape[0]
                or self.nfev_rows.shape != (self.y.shape[1],)):
            raise ParameterError(
                f"inconsistent batched solution shapes t{self.t.shape} "
                f"y{self.y.shape} nfev{self.nfev_rows.shape}"
            )

    @property
    def batch_size(self) -> int:
        """Number of stacked systems B."""
        return int(self.y.shape[1])

    @property
    def nfev(self) -> int:
        """Total right-hand-side evaluations across the batch."""
        return int(self.nfev_rows.sum())

    @property
    def final_states(self) -> np.ndarray:
        """States at the last sample time, shape ``(B, d)``."""
        return self.y[-1]

    def solution(self, row: int) -> OdeSolution:
        """Row ``row``'s trajectory as a scalar :class:`OdeSolution`."""
        if not -self.batch_size <= row < self.batch_size:
            raise ParameterError(
                f"row {row} out of range for batch of {self.batch_size}")
        nfev = int(self.nfev_rows[row])
        stats = (self.stats.row(row % self.batch_size, nfev)
                 if self.stats is not None else None)
        return OdeSolution(self.t, np.ascontiguousarray(self.y[:, row, :]),
                           nfev, self.solver, stats=stats)


def _validate_batch_y0(y0: np.ndarray) -> np.ndarray:
    y = np.asarray(y0, dtype=float).copy()
    if y.ndim != 2 or y.shape[0] == 0 or y.shape[1] == 0:
        raise ParameterError(
            f"batched y0 must be a non-empty (B, d) array, got shape "
            f"{np.shape(y0)}")
    if not np.all(np.isfinite(y)):
        raise ParameterError("batched y0 must be finite")
    return y


class _RhsAdapter:
    """Call a batched RHS, writing into ``out`` with or without support.

    The first call probes whether ``f`` accepts an ``out=`` keyword; if
    not, every evaluation falls back to copying the returned array.
    """

    def __init__(self, f: BatchedRhsFunction) -> None:
        self._f = f
        self._supports_out: bool | None = None

    def __call__(self, t: np.ndarray, y: np.ndarray, rows: np.ndarray,
                 out: np.ndarray) -> None:
        if self._supports_out is None:
            try:
                res = self._f(t, y, rows, out=out)
                self._supports_out = True
            except TypeError:
                self._supports_out = False
                res = self._f(t, y, rows)
        elif self._supports_out:
            res = self._f(t, y, rows, out=out)
        else:
            res = self._f(t, y, rows)
        if res is not out:
            out[...] = res


def rk4_batched(f: BatchedRhsFunction, y0: np.ndarray,
                t_eval: Sequence[float] | np.ndarray, *,
                substeps: int = 1) -> BatchedOdeSolution:
    """Classic RK4 for the whole batch on one shared grid.

    The step sequence is identical to the scalar :func:`rk4` — the
    shared grid fixes ``h`` for every row — and each update is a pure
    elementwise expression evaluated in the scalar solver's operation
    order, so with a row-wise bitwise right-hand side the output is
    bitwise identical to B independent scalar runs.
    """
    if substeps < 1:
        raise ParameterError("substeps must be >= 1")
    grid = _validate_grid(t_eval)
    y = _validate_batch_y0(y0)
    start = time.perf_counter()
    batch, dim = y.shape
    rows = np.arange(batch)
    rhs = _RhsAdapter(f)
    out = np.empty((grid.size, batch, dim))
    out[0] = y
    k1 = np.empty_like(y)
    k2 = np.empty_like(y)
    k3 = np.empty_like(y)
    k4 = np.empty_like(y)
    stage = np.empty_like(y)
    for j in range(grid.size - 1):
        t, t_next = grid[j], grid[j + 1]
        h = (t_next - t) / substeps
        for s in range(substeps):
            ts = t + s * h
            # Mirrors the scalar update exactly: y_stage = y + (c·h)·k.
            rhs(np.full(batch, ts), y, rows, k1)
            np.multiply(k1, 0.5 * h, out=stage)
            stage += y
            rhs(np.full(batch, ts + 0.5 * h), stage, rows, k2)
            np.multiply(k2, 0.5 * h, out=stage)
            stage += y
            rhs(np.full(batch, ts + 0.5 * h), stage, rows, k3)
            np.multiply(k3, h, out=stage)
            stage += y
            rhs(np.full(batch, ts + h), stage, rows, k4)
            # y ← y + (h/6)·(((k1 + 2·k2) + 2·k3) + k4), scalar order.
            k2 *= 2.0
            k2 += k1
            k3 *= 2.0
            k2 += k3
            k2 += k4
            k2 *= h / 6.0
            y += k2
        out[j + 1] = y
    _check_finite(out, "rk4-batched")
    row = _fixed_step_stats(grid, substeps, 4 * (grid.size - 1) * substeps,
                            4, time.perf_counter() - start)
    nfev_rows = np.full(batch, row.nfev, dtype=np.int64)
    stats = BatchedSolverStats(
        accepted_rows=np.full(batch, row.accepted, dtype=np.int64),
        rejected_rows=np.zeros(batch, dtype=np.int64),
        warmup_nfev=row.warmup_nfev,
        h_min_rows=np.full(batch, row.h_min),
        h_max_rows=np.full(batch, row.h_max),
        wall_seconds=row.wall_seconds)
    _emit_solver_event("rk4-batched", dim, stats.total(batch * row.nfev),
                       batch)
    return BatchedOdeSolution(grid, out, nfev_rows, "rk4-batched",
                              stats=stats)


def dopri45_batched(f: BatchedRhsFunction, y0: np.ndarray,
                    t_eval: Sequence[float] | np.ndarray, *,
                    rtol: float = 1e-8, atol: float = 1e-10,
                    h_init: float | None = None, h_max: float | None = None,
                    max_steps: int = 1_000_000,
                    system1: System1 | None = None) -> BatchedOdeSolution:
    """Adaptive Dormand–Prince RK5(4), each row its own solve.

    Every row runs the scalar :func:`dopri45` control law on its own:
    its own step size, PI controller state (``β = 0.04``), accept/reject
    decisions, ``max_steps`` attempts, and cubic-Hermite dense output
    onto the shared grid.  A stacked row is therefore bitwise equal to
    the same row solved alone.

    ``system1`` (a :class:`~repro.numerics.system1.System1` with one
    entry per row) says that ``f`` is paper System (1) on the
    ``(B, 3n)`` state under constant controls.  The compiled kernel then
    integrates each row on (S, I) with R rebuilt and kept in the error
    norm.  ``f`` is called once, at ``t0``, and a row whose slope there
    is not the kernel's raises :class:`~repro.exceptions.ParameterError`.
    Otherwise (any other right-hand side, or no C compiler) row ``b``
    runs :func:`dopri45`'s Python loop on the full state, through
    ``f(t, y[None], rows_b)[0]``.

    Rows run in order.  A row that exhausts ``max_steps`` is counted and
    the later rows still run; any other failure stops the solve.
    Raises :class:`~repro.exceptions.IntegrationError` naming the first
    offending batch row on step-size underflow, non-finite states, or
    step-budget exhaustion.
    """
    grid = _validate_grid(t_eval)
    y = _validate_batch_y0(y0)
    start = time.perf_counter()
    batch, dim = y.shape

    def slope() -> np.ndarray:
        out = np.empty_like(y)
        _RhsAdapter(f)(np.full(batch, grid[0]), y, np.arange(batch), out)
        return out

    run = _dopri45_rows(
        "dopri45-batched", y, grid, rhs_of_row=partial(_row_rhs, f),
        slope=slope, stacked=True, system1=system1, rtol=rtol, atol=atol,
        h_init=h_init, h_max=h_max, max_steps=max_steps)
    warmup_nfev = 2 if h_init is None else 1
    nfev_rows = warmup_nfev + 6 * (run.accepted + run.rejected)
    stats = BatchedSolverStats(
        accepted_rows=run.accepted, rejected_rows=run.rejected,
        warmup_nfev=warmup_nfev, h_min_rows=run.h_min,
        h_max_rows=run.h_max, wall_seconds=time.perf_counter() - start)
    _emit_solver_event("dopri45-batched", dim,
                       stats.total(int(nfev_rows.sum())), batch)
    return BatchedOdeSolution(grid, run.y, nfev_rows, "dopri45-batched",
                              stats=stats)


def _row_rhs(f: BatchedRhsFunction, b: int) -> Callable[..., np.ndarray]:
    """Row ``b`` of the batched ``f`` as a scalar right-hand side."""
    rows = np.array([b])
    return lambda t, y: f(np.full(1, t), y[None], rows)[0]


BATCHED_SOLVERS: dict[str, Callable[..., BatchedOdeSolution]] = {
    "rk4": rk4_batched,
    "dopri45": dopri45_batched,
}


def integrate_batched(f: BatchedRhsFunction, y0: np.ndarray,
                      t_eval: Sequence[float] | np.ndarray, *,
                      method: str = "dopri45",
                      **options: object) -> BatchedOdeSolution:
    """Integrate a stacked batch of IVPs with the named method.

    ``method`` is ``"rk4"`` (fixed shared grid, bitwise-matching the
    scalar path) or ``"dopri45"`` (default, per-row adaptive); remaining
    keyword options are forwarded to the solver.
    """
    try:
        solver = BATCHED_SOLVERS[method]
    except KeyError:
        raise ParameterError(
            f"unknown batched solver {method!r}; choose from "
            f"{sorted(BATCHED_SOLVERS)}"
        ) from None
    return solver(f, y0, t_eval, **options)
