"""Batched form of paper System (1): B parameter points as one system.

A threshold/countermeasure sweep integrates the same heterogeneous SIR
model at many ``(ε1, ε2)`` (and possibly α or λ-scale) points.  Instead
of B independent integrations, :class:`BatchedHeterogeneousSIR` stacks
the points into one ``(B, 3n)`` state matrix and evaluates the whole
batch's right-hand side with one set of matrix operations:

* the coupling ``Θ_b = (1/⟨k⟩) Σ_i φ(k_i) I_{b,i}`` for all rows at once
  via one elementwise product and a row-wise pairwise sum (not a BLAS
  matvec, whose result for a row depends on the batch height; the
  pairwise reduction is bitwise identical to the scalar path's, see
  :meth:`HeterogeneousSIRModel._rhs_into`);
* ``λ(k_i) S_{b,i} Θ_b`` and the control terms as broadcasted products
  over the per-point ``(alpha, lambda_k, eps1, eps2)`` arrays.

The batch integrates through :mod:`repro.numerics.ode_batched`: a
fixed-grid ``rk4`` run is bitwise identical to B scalar simulations.
Under ``dopri45`` each row is its own solve, as a scalar simulation is:
in the compiled kernel of :mod:`repro.numerics.system1`, or without a C
compiler in ``ode.dopri45``'s Python loop, so either way a stacked row
is bitwise equal to the same point simulated alone.
Controls must be constant per point — time-varying controls stay on the
scalar :class:`~repro.core.model.HeterogeneousSIRModel` path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.model import integration_alarm, output_grid
from repro.core.parameters import RumorModelParameters
from repro.core.state import RumorTrajectory, SIRState
from repro.exceptions import ParameterError
from repro.numerics.ode_batched import BatchedOdeSolution, integrate_batched
from repro.numerics.system1 import System1

__all__ = ["BatchedHeterogeneousSIR", "stackable"]


def stackable(a: RumorModelParameters, b: RumorModelParameters) -> bool:
    """Whether two parameter sets may ride as rows of one stacked batch.

    Rows of a batch share the network *structure* — the degree support
    ``k_i``, its distribution ``P(k)``, the infectivity profile ``φ(k)``
    and the forgetting rates ``ω(k)`` — while the per-row knobs the
    constructor accepts (``eps1``, ``eps2``, ``alpha``, ``lambda_k``)
    may differ freely.  Structure is compared exactly (``==``, not
    allclose): a batch whose rows disagree structurally would silently
    integrate the wrong model for all but one of them.
    """
    if a.n_groups != b.n_groups:
        return False
    return (np.array_equal(a.degrees, b.degrees)
            and np.array_equal(a.pmf, b.pmf)
            and np.array_equal(a.phi_k, b.phi_k)
            and np.array_equal(a.omega_k, b.omega_k))


def _per_point(name: str, values: object, batch: int | None) -> np.ndarray:
    """Validate a per-point rate array (non-negative, finite, 1-D)."""
    array = np.atleast_1d(np.asarray(values, dtype=float))
    if array.ndim != 1:
        raise ParameterError(f"{name} must be scalar or 1-D, got shape "
                             f"{array.shape}")
    if batch is not None and array.size == 1:
        array = np.broadcast_to(array, (batch,)).copy()
    if not np.all(np.isfinite(array)) or np.any(array < 0):
        raise ParameterError(f"{name} must be non-negative finite rates")
    return array


class BatchedHeterogeneousSIR:
    """B stacked copies of System (1) with per-point rates.

    Parameters
    ----------
    params:
        Shared structural parameters (degree groups, φ(k), ⟨k⟩).  The
        per-point overrides below default to this object's values.
    eps1, eps2:
        Per-point control rates, scalars or shape-``(B,)`` arrays
        (broadcast against each other).
    alpha:
        Optional per-point entering rate; defaults to ``params.alpha``
        for every row.
    lambda_k:
        Optional acceptance-rate override, shape ``(n,)`` (shared) or
        ``(B, n)`` (per point); defaults to ``params.lambda_k``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import RumorModelParameters, SIRState
    >>> from repro.core.batched import BatchedHeterogeneousSIR
    >>> from repro.networks.degree import power_law_distribution
    >>> params = RumorModelParameters(power_law_distribution(1, 10, 2.0))
    >>> batch = BatchedHeterogeneousSIR(params, eps1=[0.1, 0.2, 0.3],
    ...                                 eps2=0.05)
    >>> solution = batch.simulate(SIRState.initial(10, 0.05), t_final=5.0,
    ...                           n_samples=11)
    >>> solution.y.shape
    (11, 3, 30)
    """

    def __init__(self, params: RumorModelParameters,
                 eps1: float | Sequence[float] | np.ndarray,
                 eps2: float | Sequence[float] | np.ndarray, *,
                 alpha: float | Sequence[float] | np.ndarray | None = None,
                 lambda_k: np.ndarray | None = None) -> None:
        self.params = params
        e1 = _per_point("eps1", eps1, None)
        e2 = _per_point("eps2", eps2, None)
        try:
            e1, e2 = np.broadcast_arrays(e1, e2)
        except ValueError:
            raise ParameterError(
                f"eps1 (size {e1.size}) and eps2 (size {e2.size}) do not "
                f"broadcast to one batch") from None
        batch = e1.size
        self.eps1 = np.ascontiguousarray(e1, dtype=float)
        self.eps2 = np.ascontiguousarray(e2, dtype=float)
        if alpha is None:
            self.alpha: float | np.ndarray = float(params.alpha)
        else:
            self.alpha = _per_point("alpha", alpha, batch)
            if self.alpha.size != batch:
                raise ParameterError(
                    f"alpha has {self.alpha.size} points, batch has {batch}")
            if np.any(self.alpha <= 0):
                raise ParameterError("alpha must be positive in every row")
        if lambda_k is None:
            self.lambda_k = params.lambda_k
        else:
            lam = np.asarray(lambda_k, dtype=float)
            n = params.n_groups
            if lam.shape not in ((n,), (batch, n)):
                raise ParameterError(
                    f"lambda_k shape {lam.shape} must be ({n},) or "
                    f"({batch}, {n})")
            if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
                raise ParameterError("lambda_k must be positive and finite")
            self.lambda_k = lam
        # Constants read on every right-hand-side call.  [ε1, ε2] is a
        # (2, 1) column per row, against the (2, n) view of that row's
        # (S, I); α is a column when it varies by row.
        self._n = params.n_groups
        self._phi = params.phi_k
        self._mean_degree = params.mean_degree
        self._rates = np.stack([self.eps1, self.eps2], axis=1)[:, :, None]
        self._alpha_col = (self.alpha if isinstance(self.alpha, float)
                           else self.alpha[:, None])
        self._selection: tuple = (None, self._rates, self._alpha_col,
                                  self.lambda_k)

    @property
    def batch_size(self) -> int:
        """Number of stacked parameter points B."""
        return int(self.eps1.size)

    @property
    def n_groups(self) -> int:
        """Degree groups n of the shared network."""
        return self.params.n_groups

    # -- dynamics -------------------------------------------------------------
    def _columns(self, rows: np.ndarray | None) -> tuple:
        """``(rows, [ε1, ε2], α, λ)`` for the batch rows ``rows``.

        The selection is cached on the identity of ``rows``: a batched
        solver hands over one array for all rows, or one per row, and
        never mutates one it has passed.  The cache is one tuple,
        replaced whole, so concurrent integrations of one batch stay
        correct.
        """
        selection = self._selection
        if selection[0] is not rows:
            idx = slice(None) if rows is None else rows
            selection = (rows, self._rates[idx],
                         self._alpha_col if isinstance(self.alpha, float)
                         else self._alpha_col[idx],
                         self.lambda_k if self.lambda_k.ndim == 1
                         else self.lambda_k[idx])
            self._selection = selection
        return selection

    def rhs(self, t: np.ndarray, y: np.ndarray,
            rows: np.ndarray | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
        """Batched System (1) right-hand side on the ``(L, 3n)`` state.

        ``rows`` selects which batch rows ``y`` holds (``dopri45``'s
        Python loop passes one row at a time); ``None`` means all B
        rows in order.  ``out`` is an optional preallocated result
        buffer of ``y``'s shape (``rk4_batched`` passes its stage
        workspace).
        Row ``b``'s arithmetic is element-for-element the scalar
        :meth:`HeterogeneousSIRModel.rhs` sequence, so fixed-grid
        integrations are bitwise identical to B scalar runs.
        """
        n = self._n
        _, rates, alpha, lam = self._columns(rows)
        live = y.shape[0]
        if out is None:
            out = np.empty_like(y)
        s = y[:, :n]
        o_s = out[:, :n]
        o_i = out[:, n:2 * n]
        # Θ via elementwise product + pairwise row sum (not a BLAS dot,
        # whose result for a row depends on the batch height): the
        # pairwise reduction is bitwise-reproducible row by row, so it
        # matches the scalar path exactly.  o_s doubles as scratch.
        np.multiply(y[:, n:2 * n], self._phi, out=o_s)
        theta = np.add.reduce(o_s, axis=1)
        theta /= self._mean_degree
        np.multiply(lam, s, out=o_i)
        o_i *= theta[:, None]                 # infection = (λ·S)·Θ
        np.subtract(alpha, o_i, out=o_s)      # α − infection
        # [ε1·S, ε2·I] in one call against the (2, n) view of each row's
        # (S, I); the reshapes are views because each row's blocks are
        # contiguous.
        loss = np.multiply(rates, y[:, :2 * n].reshape(live, 2, n))
        both = out[:, :2 * n].reshape(live, 2, n)
        # [(α − infection) − ε1·S, infection − ε2·I]
        np.subtract(both, loss, out=both)
        np.add(loss[:, 0], loss[:, 1], out=out[:, 2 * n:])
        return out

    # -- simulation ------------------------------------------------------------
    def simulate(self, initial: SIRState | np.ndarray, *,
                 t_final: float | None = None,
                 n_samples: int = 201,
                 t_eval: Sequence[float] | np.ndarray | None = None,
                 method: str = "dopri45",
                 **solver_options: object) -> BatchedOdeSolution:
        """Integrate every stacked point over ``(0, t_final]`` at once.

        ``initial`` is either one :class:`SIRState` shared by every row,
        a flat ``(3n,)`` vector, or a per-row ``(B, 3n)`` matrix.
        ``method`` is ``"dopri45"`` (default) or ``"rk4"``; the grid
        arguments mirror :meth:`HeterogeneousSIRModel.simulate`.

        dopri45 solves each row on its own, as the scalar model does
        (in the kernel of :mod:`repro.numerics.system1` where it
        loaded); rk4 integrates the full state.  Both are bitwise equal
        to scalar runs.  Either way an
        ``IntegrationError`` trips the observer's ``integration`` alarm
        and a clean run heals it, as in
        :meth:`HeterogeneousSIRModel.simulate`.
        """
        n = self.n_groups
        if isinstance(initial, SIRState):
            if initial.n_groups != n:
                raise ParameterError(
                    f"initial state has {initial.n_groups} groups, model "
                    f"has {n}")
            flat = initial.pack()
        else:
            flat = np.asarray(initial, dtype=float)
        if flat.ndim == 1:
            if flat.size != 3 * n:
                raise ParameterError(
                    f"flat initial state has {flat.size} entries, expected "
                    f"{3 * n}")
            y0 = np.broadcast_to(flat, (self.batch_size, 3 * n)).copy()
        elif flat.shape == (self.batch_size, 3 * n):
            y0 = flat.copy()
        else:
            raise ParameterError(
                f"initial shape {flat.shape} must be ({3 * n},) or "
                f"({self.batch_size}, {3 * n})")
        grid = output_grid(t_final, n_samples, t_eval)
        options = dict(solver_options)
        if method == "dopri45":
            options["system1"] = System1(
                self._phi, self._mean_degree, self.lambda_k,
                np.broadcast_to(self.alpha, (self.batch_size,)),
                self.eps1, self.eps2)
        context = {"where": "batched.simulate", "rows": self.batch_size}
        with integration_alarm(method, context):
            return integrate_batched(self.rhs, y0, grid, method=method,
                                     **options)

    # -- analysis accessors ----------------------------------------------------
    def trajectory(self, solution: BatchedOdeSolution,
                   row: int) -> RumorTrajectory:
        """Row ``row``'s trajectory as a :class:`RumorTrajectory`.

        The trajectory is built on the view ``solution.y[:, row, :]``,
        not a copy: it shares memory with the batch output, so writing
        to either changes both.  Its accessors' reductions equal those
        of a contiguous copy bitwise.

        The trajectory carries the *shared* ``params`` object; per-row
        α/λ overrides do not affect its accessors (they only weight the
        compartment matrices by φ(k) and P(k)).
        """
        if not -solution.batch_size <= row < solution.batch_size:
            raise ParameterError(
                f"row {row} out of range for batch of {solution.batch_size}")
        return RumorTrajectory(self.params, solution.t, solution.y[:, row, :])

    def population_infected(self, solution: BatchedOdeSolution) -> np.ndarray:
        """Population infected density Σ_i P(k_i) I_{b,i}(t), shape ``(m, B)``."""
        n = self.n_groups
        return solution.y[:, :, n:2 * n] @ self.params.pmf

    def population_susceptible(self, solution: BatchedOdeSolution) -> np.ndarray:
        """Population susceptible density per row, shape ``(m, B)``."""
        return solution.y[:, :, :self.n_groups] @ self.params.pmf

    def population_recovered(self, solution: BatchedOdeSolution) -> np.ndarray:
        """Population recovered density per row, shape ``(m, B)``."""
        return solution.y[:, :, 2 * self.n_groups:] @ self.params.pmf
