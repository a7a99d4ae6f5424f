"""From-scratch numerical substrate: ODE solvers, root finding, quadrature,
and grid interpolation.

Public surface::

    from repro.numerics import integrate, rk4, dopri45, brent, trapezoid
"""

from repro.numerics.interpolate import GridFunction, linear_interp
from repro.numerics.ode import (
    SOLVERS,
    OdeSolution,
    dopri45,
    euler,
    integrate,
    rk4,
    solve_ivp_scipy,
)
from repro.numerics.ode_batched import (
    BATCHED_SOLVERS,
    BatchedOdeSolution,
    dopri45_batched,
    integrate_batched,
    rk4_batched,
)
from repro.numerics.quadrature import (
    adaptive_simpson,
    cumulative_trapezoid,
    simpson,
    trapezoid,
)
from repro.numerics.optimize import MinimizeResult, coordinate_descent, golden_section
from repro.numerics.rootfind import RootResult, bisect, brent, expand_bracket, newton

__all__ = [
    "GridFunction",
    "linear_interp",
    "OdeSolution",
    "SOLVERS",
    "euler",
    "rk4",
    "dopri45",
    "solve_ivp_scipy",
    "integrate",
    "BatchedOdeSolution",
    "BATCHED_SOLVERS",
    "rk4_batched",
    "dopri45_batched",
    "integrate_batched",
    "trapezoid",
    "cumulative_trapezoid",
    "simpson",
    "adaptive_simpson",
    "RootResult",
    "bisect",
    "brent",
    "newton",
    "expand_bracket",
    "MinimizeResult",
    "golden_section",
    "coordinate_descent",
]
