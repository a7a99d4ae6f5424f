"""Batched initial-value-problem integrators: B systems as one stack.

A parameter sweep integrates the *same* ODE family at many parameter
points.  Running the Python-level solver loop once per point wastes most
of the wall clock on interpreter and numpy-call overhead — on the
848-group Digg network each right-hand side touches only ~20 kB of
state, far too little work to amortize a Python step loop.  This module
stacks ``B`` points into a single ``(B, d)`` state matrix and drives the
whole batch through one solver loop, so every numpy call operates on
``B × d`` elements:

* :func:`rk4_batched` — classic fixed-step RK4 on a **shared** output
  grid.  Every row sees exactly the arithmetic of the scalar
  :func:`repro.numerics.ode.rk4` (same elementwise operations, same
  step sizes), so a batched run is **bitwise identical** to B scalar
  runs whenever the batched right-hand side is row-wise bitwise
  identical to the scalar one.
* :func:`dopri45_batched` — adaptive Dormand–Prince 5(4) with
  **per-row** error control: each row carries its own step size, PI
  controller state, and accept/reject decision, mirroring the scalar
  :func:`repro.numerics.ode.dopri45` control law row by row.  Rows that
  reach the end of the horizon are *frozen* — removed from the live
  batch — so a few stiff rows do not force full-batch work.  With
  ``system1=`` the rows of paper System (1) run in the compiled kernel
  of :mod:`repro.numerics.system1` instead.

The adaptive solver keeps its work in reused buffers.  Stage slopes
live in a ``(B, 7, d)`` workspace, so each row's stage combinations are
their own BLAS call, shaped as in the scalar solver: a row's values do
not depend on its batch-mates, and a row stacked with others is bitwise
equal to the same row integrated alone (given a right-hand side that is
row-independent too).  The error estimate and PI controller evaluate
the scalar solver's formulas in its operation order, so each row's
accept/reject and step-size sequence reproduces an independent scalar
run and adaptive batched trajectories agree with scalar ones to
round-off.  Per-row bookkeeping (dense output, freezing) runs only in
steps where some row crosses a grid time or rejects.

Calling convention
------------------
A batched right-hand side is ``f(t, y, rows) -> dy/dt`` where ``t`` has
shape ``(L,)`` (one time per live row), ``y`` has shape ``(L, d)``, and
``rows`` is an ``(L,)`` integer array mapping the live rows back to the
original batch indices 0..B-1.  Solvers compact finished rows out of the
batch, so a right-hand side holding per-row parameter arrays must index
them with ``rows`` (see :class:`repro.core.batched.BatchedHeterogeneousSIR`).
Right-hand sides with no per-row parameters may ignore ``rows``.  The
solvers never mutate a ``rows`` array they have passed, and
``dopri45_batched`` hands over the same array object until a row
freezes, so a right-hand side may cache per-row data keyed on its
identity.

A right-hand side may additionally accept ``out=`` — a preallocated
``(L, d)`` array to write the derivative into.  The solvers detect
support on the first evaluation and fall back to copying the returned
array when ``out=`` is not accepted, so plain ``f(t, y, rows)``
callables keep working unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import IntegrationError, ParameterError
from repro.numerics import system1 as kernel
from repro.numerics.ode import (
    OdeSolution,
    SolverStats,
    _DP_A,
    _DP_B4,
    _DP_B5,
    _DP_C,
    _hermite,
    _validate_grid,
)
from repro.numerics.system1 import System1
from repro.obs.trace import get_observer

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

# The scalar dopri45's step-size controller, applied row by row.
_SAFETY, _BETA, _ORDER = 0.9, 0.04, 5.0
_MIN_FACTOR, _MAX_FACTOR = 0.2, 5.0


@dataclass(frozen=True)
class BatchedSolverStats:
    """Per-row integration telemetry for a batched run.

    Mirrors :class:`~repro.numerics.ode.SolverStats` with one entry per
    batch row.  ``wall_seconds`` and ``loop_steps`` are whole-batch
    quantities: the rows share one solver loop, so per-row wall time is
    not separable.  The adaptive accounting holds row-wise:
    ``nfev_rows == warmup_nfev + 6 * (accepted_rows + rejected_rows)``.
    """

    accepted_rows: np.ndarray
    rejected_rows: np.ndarray
    warmup_nfev: int
    h_min_rows: np.ndarray
    h_max_rows: np.ndarray
    loop_steps: int
    wall_seconds: float

    def row(self, index: int, nfev: int) -> SolverStats:
        """Row ``index``'s telemetry as scalar :class:`SolverStats`.

        ``wall_seconds`` is the whole batch's wall time (shared loop).
        """
        return SolverStats(
            accepted=int(self.accepted_rows[index]),
            rejected=int(self.rejected_rows[index]),
            nfev=nfev, warmup_nfev=self.warmup_nfev,
            h_min=float(self.h_min_rows[index]),
            h_max=float(self.h_max_rows[index]),
            wall_seconds=self.wall_seconds)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready batch aggregate."""
        return {
            "accepted": int(self.accepted_rows.sum()),
            "rejected": int(self.rejected_rows.sum()),
            "warmup_nfev": self.warmup_nfev,
            "h_min": float(self.h_min_rows.min()),
            "h_max": float(self.h_max_rows.max()),
            "loop_steps": self.loop_steps,
            "wall_seconds": self.wall_seconds,
        }


def _emit_batched_solver_event(solver: str, dim: int, batch: int,
                               nfev_rows: np.ndarray,
                               stats: BatchedSolverStats) -> None:
    """Report one finished batched integration to the active observer."""
    ob = get_observer()
    if ob is None:
        return
    aggregate = stats.as_dict()
    ob.emit("solver", solver=solver, dim=dim, batch=batch,
            nfev=int(nfev_rows.sum()), **aggregate)
    ob.health.check_solver(solver, aggregate["accepted"],
                           aggregate["rejected"],
                           context={"dim": dim, "batch": batch})
    metrics = ob.metrics
    metrics.inc("solver.runs")
    metrics.inc("solver.batched_rows", batch)
    metrics.inc("solver.nfev", int(nfev_rows.sum()))
    metrics.inc("solver.steps_accepted", aggregate["accepted"])
    metrics.inc("solver.steps_rejected", aggregate["rejected"])
    metrics.observe("solver.wall_seconds", stats.wall_seconds)


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
        batched call evaluating L live rows counts one evaluation for
        each of those rows.
    solver:
        Name of the integrator that produced the solution.
    stats:
        :class:`BatchedSolverStats` telemetry (per-row accepted and
        rejected step counts, step-size ranges, shared wall time), or
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


def _check_finite_batch(y: np.ndarray, solver: str) -> None:
    if not np.all(np.isfinite(y)):
        raise IntegrationError(f"{solver} produced non-finite state values")


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
    nfev_rows = np.zeros(batch, dtype=np.int64)
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
            nfev_rows += 4
        out[j + 1] = y
    _check_finite_batch(out, "rk4-batched")
    spacing = np.diff(grid) / substeps
    n_steps = (grid.size - 1) * substeps
    stats = BatchedSolverStats(
        accepted_rows=np.full(batch, n_steps, dtype=np.int64),
        rejected_rows=np.zeros(batch, dtype=np.int64),
        warmup_nfev=0,
        h_min_rows=np.full(batch, float(spacing.min())),
        h_max_rows=np.full(batch, float(spacing.max())),
        loop_steps=n_steps, wall_seconds=time.perf_counter() - start)
    _emit_batched_solver_event("rk4-batched", dim, batch, nfev_rows, stats)
    return BatchedOdeSolution(grid, out, nfev_rows, "rk4-batched",
                              stats=stats)


def _initial_step_batched(rhs: _RhsAdapter, t0: float, y0: np.ndarray,
                          rows: np.ndarray, rtol: float, atol: float,
                          h_max: float, f0_out: np.ndarray) -> np.ndarray:
    """Hairer–Nørsett–Wanner first-step heuristic, one value per row.

    ``f0_out`` receives ``f(t0, y0)`` so the caller can seed the FSAL
    slot without re-evaluating.
    """
    batch = y0.shape[0]
    scale = atol + rtol * np.abs(y0)
    rhs(np.full(batch, t0), y0, rows, f0_out)
    f0 = f0_out
    d0 = np.sqrt(np.mean((y0 / scale) ** 2, axis=1))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2, axis=1))
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.where(small, 1e-6, 0.01 * d0 / np.where(d1 > 0, d1, 1.0))
    y1 = y0 + h0[:, None] * f0
    f1 = np.empty_like(y0)
    rhs(t0 + h0, y1, rows, f1)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2, axis=1)) / h0
    dm = np.maximum(d1, d2)
    h1 = np.where(dm <= 1e-15, np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.where(dm > 0, dm, 1.0)) ** (1.0 / 5.0))
    return np.minimum(np.minimum(100.0 * h0, h1), h_max)


def dopri45_batched(f: BatchedRhsFunction, y0: np.ndarray,
                    t_eval: Sequence[float] | np.ndarray, *,
                    rtol: float = 1e-8, atol: float = 1e-10,
                    h_init: float | None = None, h_max: float | None = None,
                    max_steps: int = 1_000_000,
                    system1: System1 | None = None) -> BatchedOdeSolution:
    """Adaptive Dormand–Prince RK5(4) with per-row step control.

    Every row runs the scalar :func:`dopri45` control law independently:
    its own step size, PI controller state (``β = 0.04``), accept/reject
    decision, and cubic-Hermite dense output onto the shared grid.  Rows
    whose time reaches ``t_eval[-1]`` are frozen — compacted out of the
    live batch so the remaining rows keep full vector width without
    wasted evaluations.

    ``system1`` (a :class:`~repro.numerics.system1.System1` with one
    entry per row) says that ``f`` is paper System (1) on the
    ``(B, 3n)`` state under constant controls.  The compiled kernel then
    integrates each row on its own under the same control law, on
    (S, I) with R rebuilt and kept in the error norm.  ``f`` is called
    once, at ``t0``, and a row whose slope there is not the kernel's
    raises :class:`~repro.exceptions.ParameterError`.  Without the
    kernel (no C compiler) the Python loop integrates ``f`` on the full
    state.

    ``max_steps`` bounds iterations of the *shared* step loop (one
    iteration advances every live row at most one step), which is each
    row's own step budget.

    Raises :class:`~repro.exceptions.IntegrationError` naming the first
    offending batch row on step-size underflow, non-finite states, or
    step-budget exhaustion.
    """
    grid = _validate_grid(t_eval)
    y = _validate_batch_y0(y0)
    start = time.perf_counter()
    batch, dim = y.shape
    t0, tf = grid[0], grid[-1]
    span = tf - t0
    if h_max is None:
        h_max = span
    if h_init is not None and h_init <= 0:
        raise ParameterError("h_init must be positive")
    if system1 is not None and kernel.library() is not None:
        return _dopri45_batched_system1(f, system1, y, grid, start,
                                        rtol=rtol, atol=atol, h_init=h_init,
                                        h_max=h_max, max_steps=max_steps)
    # The clamp to tf − t already keeps h ≤ span.
    clamp_h_max = h_max < span
    # No row can underflow while every h exceeds the largest floor
    # 1e-14·max(|t|, 1) over the horizon; only then check row by row.
    h_floor = 1e-14 * max(abs(t0), abs(tf), 1.0)
    n_grid = grid.size
    rhs = _RhsAdapter(f)
    out = np.empty((n_grid, batch, dim))
    out[0] = y
    next_output = np.ones(batch, dtype=np.int64)  # per-row next grid index
    attempted_rows = np.zeros(batch, dtype=np.int64)
    rejected_rows = np.zeros(batch, dtype=np.int64)
    h_min_rows = np.full(batch, np.inf)
    h_max_rows = np.zeros(batch)

    # Live-row workspaces, sized once for the full batch.  The first m
    # rows of each hold the live rows in a fixed shared order;
    # ``live[:m]`` maps them back to batch indices.  ``rows`` is the
    # array handed to ``f``: a copy, replaced by a new copy when rows
    # freeze, so ``f`` never sees it change.
    # ``y`` holds the states and ``y5`` the trial points; they swap
    # when every row accepts.
    live = np.arange(batch)
    rows = live.copy()
    t = np.full(batch, t0)
    h = np.empty(batch)
    err_prev = np.ones(batch)
    h_lo = np.full(batch, np.inf)   # accepted-step range of live rows
    h_hi = np.zeros(batch)
    next_time = np.full(batch, grid[1])  # grid time each row fills next
    # Stage slopes, one (7, dim) block per row: each row's stage
    # combinations are then their own BLAS call, shaped as in the scalar
    # solver, so a row's values do not depend on its batch-mates.
    k = np.empty((batch, 7, dim))
    y5 = np.empty((batch, dim))
    size = np.abs(y)                # |y| and |y5|
    size5 = np.empty((batch, dim))
    err_mat = np.empty((batch, dim))
    scale = np.empty((batch, dim))
    stage_buf = np.empty((batch, dim))

    m = batch
    k0_seed = k[:, 0]
    if h_init is None:
        # The heuristic leaves f(t0, y0) in the FSAL slot, so the first
        # step needs no extra evaluation.
        h[:] = _initial_step_batched(rhs, t0, y, rows, rtol, atol, h_max,
                                     k0_seed)
        warmup_nfev = 2
    else:
        h[:] = min(h_init, h_max)
        rhs(t, y, rows, k0_seed)
        warmup_nfev = 1

    old_err = np.seterr(invalid="ignore", over="ignore", divide="ignore")
    try:
        steps = 0
        while m:
            if steps >= max_steps:
                raise IntegrationError(
                    f"dopri45-batched exhausted {max_steps} steps with "
                    f"{m} of {batch} rows unfinished (first stuck row "
                    f"{int(live[0])} at t={t[0]:.6g})"
                )
            steps += 1
            tm, hm = t[:m], h[:m]
            np.minimum(hm, tf - tm, out=hm)
            if clamp_h_max:
                np.minimum(hm, h_max, out=hm)
            if hm.min() < h_floor:
                underflow = hm < 1e-14 * np.maximum(np.abs(tm), 1.0)
                if underflow.any():
                    row = int(live[:m][underflow][0])
                    raise IntegrationError(
                        f"dopri45-batched step size underflow for batch "
                        f"row {row} at t={tm[underflow][0]:.6g} "
                        f"(h={hm[underflow][0]:.3g})"
                    )
            h_col = hm[:, None]
            ym = y[:m]
            km = k[:m]
            stage = stage_buf[:m]
            # Stage evaluations (FSAL: k[:, 0] already holds f(t, y)),
            # each row in exactly the scalar solver's arithmetic.
            stage_t = tm + np.multiply.outer(_DP_C, hm)
            for s in range(1, 7):
                np.matmul(_DP_A[s], km[:, :s], out=stage)
                stage *= h_col
                stage += ym
                rhs(stage_t[s], stage, rows, km[:, s])
            # 5th- and 4th-order solutions and their difference.
            y5m = y5[:m]
            errm = err_mat[:m]
            np.matmul(_DP_B5, km, out=y5m)
            y5m *= h_col
            np.matmul(_DP_B4, km, out=stage)
            stage *= h_col
            y5m += ym
            stage += ym                             # y4
            np.subtract(y5m, stage, out=errm)
            t_new = tm + hm
            # err = RMS((y5 − y4) / (atol + rtol·max(|y|, |y5|))), with
            # the scalar solver's pairwise mean per row.
            scm = scale[:m]
            np.abs(y5m, out=size5[:m])
            np.maximum(size[:m], size5[:m], out=scm)
            scm *= rtol
            scm += atol
            errm /= scm
            np.multiply(errm, errm, out=errm)
            err = np.add.reduce(errm, axis=1)
            err /= dim
            np.sqrt(err, out=err)

            if err.max() <= 1.0:
                # Every row accepts (a NaN fails the comparison).
                acc = None
            else:
                acc = _reject_rows(err, y5m, hm, tm, live[:m],
                                   rejected_rows)
                if acc.size == 0:
                    continue
            if acc is None:
                np.minimum(h_lo[:m], hm, out=h_lo[:m])
                np.maximum(h_hi[:m], hm, out=h_hi[:m])
                crossed = np.nonzero(t_new + 1e-14 >= next_time[:m])[0]
            else:
                h_lo[acc] = np.minimum(h_lo[acc], hm[acc])
                h_hi[acc] = np.maximum(h_hi[acc], hm[acc])
                crossed = acc[t_new[acc] + 1e-14 >= next_time[acc]]
            # Dense output: fill every grid point a row just stepped
            # across (the scalar solver's inner loop), then advance.
            done = []
            for i in crossed:
                row = live[i]
                no = next_output[row]
                while no < n_grid and grid[no] <= t_new[i] + 1e-14:
                    out[no, row] = _hermite(
                        tm[i], t_new[i], ym[i], y5m[i], km[i, 0], km[i, 6],
                        grid[no])
                    no += 1
                next_output[row] = no
                next_time[i] = grid[no] if no < n_grid else tf
                if t_new[i] >= tf:
                    done.append(i)
            # Advance accepted rows, refresh their FSAL slot, and run
            # their PI controllers (scalar formulas, per row).
            if acc is None:
                tm[:] = t_new
                y, y5 = y5, y
                size, size5 = size5, size
                km[:, 0] = km[:, 6]
                np.maximum(err, 1e-10, out=err)
                factor = err ** (-0.7 / _ORDER)
                factor *= _SAFETY
                factor *= err_prev[:m] ** _BETA
                err_prev[:m] = err
                np.maximum(factor, _MIN_FACTOR, out=factor)
                np.minimum(factor, _MAX_FACTOR, out=factor)
                hm *= factor
            else:
                tm[acc] = t_new[acc]
                y[acc] = y5[acc]
                size[acc] = size5[acc]
                km[acc, 0] = km[acc, 6]
                err_acc = np.maximum(err[acc], 1e-10)
                factor = (_SAFETY * err_acc ** (-0.7 / _ORDER)
                          * err_prev[:m][acc] ** _BETA)
                err_prev[:m][acc] = err_acc
                hm[acc] *= np.clip(factor, _MIN_FACTOR, _MAX_FACTOR)

            if done:
                # Freeze rows that reached the end of the horizon.  Only
                # the workspaces that carry state across steps (those
                # below and the FSAL slot k[:, 0]) are compacted.
                for i in done:
                    row = live[i]
                    if next_output[row] < n_grid:
                        # Final grid point equal to tf within round-off.
                        out[next_output[row]:, row] = y[i]
                        next_output[row] = n_grid
                    attempted_rows[row] = steps
                    h_min_rows[row] = h_lo[i]
                    h_max_rows[row] = h_hi[i]
                # (np.setdiff1d would import numpy.ma, ~1 MB resident.)
                keep = np.delete(np.arange(m), done)
                new_m = keep.size
                if new_m:
                    for buf in (y, size, t, h, err_prev, h_lo, h_hi,
                                next_time, live):
                        buf[:new_m] = buf[keep]
                    k[:new_m, 0] = k[keep, 0]
                    rows = live[:new_m].copy()
                m = new_m
    finally:
        np.seterr(**old_err)

    _check_finite_batch(out, "dopri45-batched")
    nfev_rows = warmup_nfev + 6 * attempted_rows
    stats = BatchedSolverStats(
        accepted_rows=attempted_rows - rejected_rows,
        rejected_rows=rejected_rows,
        warmup_nfev=warmup_nfev, h_min_rows=h_min_rows,
        h_max_rows=h_max_rows, loop_steps=steps,
        wall_seconds=time.perf_counter() - start)
    _emit_batched_solver_event("dopri45-batched", dim, batch, nfev_rows,
                               stats)
    return BatchedOdeSolution(grid, out, nfev_rows, "dopri45-batched",
                              stats=stats)


def _dopri45_batched_system1(f: BatchedRhsFunction, system1: System1,
                             y0: np.ndarray, grid: np.ndarray, start: float,
                             *, rtol: float, atol: float,
                             h_init: float | None, h_max: float,
                             max_steps: int) -> BatchedOdeSolution:
    """:func:`dopri45_batched` on System (1), each row in the kernel."""
    batch, dim = y0.shape
    slope = np.empty_like(y0)
    with np.errstate(all="ignore"):
        _RhsAdapter(f)(np.full(batch, grid[0]), y0, np.arange(batch), slope)
    run = kernel.run(system1, y0, grid, slope=slope, rtol=rtol, atol=atol,
                     h_init=h_init, h_max=h_max, max_attempts=max_steps)
    if run.status == kernel.MISMATCH:
        raise ParameterError(
            f"dopri45-batched: system1 does not describe f: their slopes "
            f"at t={grid[0]:.6g} differ for batch row {run.row}")
    if run.status == kernel.UNDERFLOW:
        raise IntegrationError(
            f"dopri45-batched step size underflow for batch row {run.row} "
            f"at t={run.t:.6g} (h={run.h:.3g})")
    if run.status == kernel.NONFINITE:
        raise IntegrationError(
            f"dopri45-batched produced non-finite state for batch row "
            f"{run.row} at t={run.t:.6g}")
    if run.status == kernel.EXHAUSTED:
        raise IntegrationError(
            f"dopri45-batched exhausted {max_steps} steps "
            f"with {run.stuck} of {batch} rows unfinished (first "
            f"stuck row {run.row} at t={run.t:.6g})")
    _check_finite_batch(run.y, "dopri45-batched")
    warmup_nfev = 2 if h_init is None else 1
    attempted = run.accepted + run.rejected
    nfev_rows = warmup_nfev + 6 * attempted
    stats = BatchedSolverStats(
        accepted_rows=run.accepted, rejected_rows=run.rejected,
        warmup_nfev=warmup_nfev, h_min_rows=run.h_min,
        h_max_rows=run.h_max, loop_steps=int(attempted.max()),
        wall_seconds=time.perf_counter() - start)
    _emit_batched_solver_event("dopri45-batched", dim, batch, nfev_rows,
                               stats)
    return BatchedOdeSolution(grid, run.y, nfev_rows, "dopri45-batched",
                              stats=stats)


def _reject_rows(err: np.ndarray, y5: np.ndarray, h: np.ndarray,
                 t: np.ndarray, live: np.ndarray,
                 rejected_rows: np.ndarray) -> np.ndarray:
    """Shrink the steps of rows that reject; the indices that accept.

    A row whose trial state is non-finite shrinks by 4× and retries,
    like the scalar solver's recovery path; other rejections shrink by
    the scalar controller's factor.  ``rejected_rows`` counts both.
    """
    accept = err <= 1.0
    rejected_rows[live[~accept]] += 1
    blown = ~np.isfinite(err)
    if blown.any():
        blown[blown] = ~np.isfinite(y5[blown]).all(axis=1)
        h[blown] *= 0.25
        dead = blown & (h < 1e-14 * np.maximum(np.abs(t), 1.0))
        if dead.any():
            raise IntegrationError(
                f"dopri45-batched produced non-finite state for batch "
                f"row {int(live[dead][0])} at t={t[dead][0]:.6g}"
            )
    shrink = ~accept & ~blown
    if shrink.any():
        # fmax, like the scalar solver's max(), ignores a NaN error.
        h[shrink] *= np.fmax(_MIN_FACTOR,
                             _SAFETY * err[shrink] ** (-1.0 / _ORDER))
    return np.nonzero(accept)[0]


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
