"""ParaExp: direct time parallelism for linear problems by splitting into
inhomogeneous subproblems with zero initial data (integrated numerically
per window) plus homogeneous ones propagated by the matrix exponential.

The nonlinear extension iterates: a sweep of exponential propagations
stitches window initial values, then the nonlinear subproblems run in
parallel; iterate k is exact on the first k windows, and at window
endpoints it reproduces Parareal with an exact-exponential coarse solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrators import Propagator, TimeGrid, check_counts, finite_u0, propagate_block
from .kernels import expm_action
from .models import first_order_form
from .trace import IterationTrace


@dataclass
class ParaExpPlan:
    grid: TimeGrid
    red: Propagator  # integrator for the zero-IC inhomogeneous subproblems
    max_iter: int = 50
    tol: float = 1e-12

    def __post_init__(self):
        check_counts(max_iter=self.max_iter)
        if not self.grid.spanned_by(self.red):
            raise ValueError("red propagator does not span every window")


def paraexp_linear_solve(plan: ParaExpPlan, sys):
    """Superposition solve of a linear system over the window grid.

    Red subproblems (zero initial data, with source) are independent, and
    all windows run as the columns of one :func:`propagate_block` march
    with ``plan.red``; each homogeneous contribution is the exponential of
    the growing elapsed time applied to the previous red endpoint.  Returns
    the trajectory at window endpoints, shape (n_windows + 1, n).
    """
    target = first_order_form(sys)
    if not getattr(target, "linear", True):
        raise ValueError("paraexp_linear_solve needs a linear system")
    grid = plan.grid
    n_w = grid.n_windows
    n = finite_u0(target).shape[0]

    # red: v_n' = A v_n + g on (T_{n-1}, T_n], v_n(T_{n-1}) = 0, column n-1
    red_ends = np.zeros((n, n_w))
    if target.source is not None:
        red_ends = propagate_block(plan.red, target, grid.boundaries[:-1], red_ends)

    # blue: w_j(t) = exp((t - T_{j-1}) A) v_{j-1}(T_{j-1}); at the window
    # endpoints the blue sums telescope, Sum_j w_j(T_n) = exp(dT A) u(T_{n-1})
    out = np.empty((n_w + 1, n))
    out[0] = target.u0
    for j in range(n_w):
        blue = expm_action(target, grid.window_length(j), out[j])
        out[j + 1] = red_ends[:, j] + blue
    return out


def paraexp_nonlinear_iterate(plan: ParaExpPlan, sys, oracle: np.ndarray):
    """Iterative ParaExp for f(u) = A u + B(u) + g.

    Per iteration: one sequential pass of exponential stitching assembles
    window initial values, then the full nonlinear subproblems run as a
    parallel map over windows.  Window-endpoint iterates coincide with
    Parareal driven by the exact linear coarse propagator.  The trace
    records the error against ``oracle``, the sequential fine solution at
    the window endpoints (:func:`parareal.fine_sequential`).
    """
    target = first_order_form(sys)
    finite_u0(target)
    grid = plan.grid
    n_w = grid.n_windows

    trace = IterationTrace(method="paraexp_nonlinear")
    # initial stitching: pure exponential sweep of the linear part
    IC = np.empty((n_w + 1, target.u0.shape[0]))
    IC[0] = target.u0
    for j in range(n_w):
        IC[j + 1] = expm_action(target, grid.window_length(j), IC[j])
    G_old = IC[1:].copy()  # exp(dT A) IC[j], the sweep's own values; updated in place
    U = _window_solves(plan, target, IC)
    trace.record(error=np.abs(U - oracle).max(), fine_solves=n_w)

    for k in range(1, plan.max_iter):
        IC_new = np.empty_like(IC)
        IC_new[0] = target.u0
        for j in range(n_w):
            g_new = expm_action(target, grid.window_length(j), IC_new[j])
            IC_new[j + 1] = U[j + 1] + g_new - G_old[j]
            G_old[j] = g_new
        IC = IC_new
        U = _window_solves(plan, target, IC)
        trace.record(error=np.abs(U - oracle).max(), fine_solves=n_w)
        if trace.errors[-1] <= plan.tol:
            break
    return U, trace


def _window_solves(plan, target, IC):
    """Parallel nonlinear window solves from the stitched initial values."""
    t0s = plan.grid.boundaries[:-1]
    ends = propagate_block(plan.red, target, t0s, IC[:-1].T.copy()).T
    U = np.empty_like(IC)
    U[0] = IC[0]
    U[1:] = ends
    return U


def linear_g_parareal(plan: ParaExpPlan, sys, oracle: np.ndarray):
    """Parareal with the exact exponential of the linear part as coarse
    solver and the full nonlinear integrator as fine solver.

    The arithmetic mirrors :func:`paraexp_nonlinear_iterate` term for term,
    so iterates agree bitwise under identical propagators.  The trace
    records the error against ``oracle``, as there.
    """
    target = first_order_form(sys)
    finite_u0(target)
    grid = plan.grid
    n_w = grid.n_windows

    def G(j, u):
        return expm_action(target, grid.window_length(j), u)

    trace = IterationTrace(method="linear_g_parareal")
    U = np.empty((n_w + 1, target.u0.shape[0]))
    U[0] = target.u0
    for j in range(n_w):
        U[j + 1] = G(j, U[j])
    G_old = U[1:].copy()  # G(j, U[j]), the sweep's own values; updated in place
    F = _window_solves(plan, target, U)
    trace.record(error=np.abs(F - oracle).max(), fine_solves=n_w)
    F_prev = F
    for k in range(1, plan.max_iter):
        U_new = np.empty_like(U)
        U_new[0] = target.u0
        for j in range(n_w):
            g_new = G(j, U_new[j])
            U_new[j + 1] = F_prev[j + 1] + g_new - G_old[j]
            G_old[j] = g_new
        F_new = _window_solves(plan, target, U_new)
        trace.record(error=np.abs(F_new - oracle).max(), fine_solves=n_w)
        F_prev = F_new
        if trace.errors[-1] <= plan.tol:
            break
    return F_prev, trace
