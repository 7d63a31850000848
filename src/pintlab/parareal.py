"""Parareal, MGRiT with FCF relaxation, their linear convergence-factor
predictors, and the two diagonalization-based variants (all-at-once coarse
grid correction, and the head-tail coarse solver that shares the fine
discretization).

All solvers measure convergence against the sequential fine trajectory and
return ``(window_values, IterationTrace)`` where ``window_values[n]`` is the
final iterate at window boundary T_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .integrators import (Propagator, TimeGrid, check_counts, finite_u0, propagate,
                          propagate_block, stability, window_matrix)
from .kernels import ConvergenceError
from .models import first_order_form
from .paradiag import alpha_circulant_factor
from .trace import IterationTrace


@dataclass
class PararealConfig:
    grid: TimeGrid
    fine: Propagator
    coarse: Propagator
    max_iter: int = 50
    tol: float = 1e-12
    alpha: float = 0.1
    initial_guess: str = "coarse"  # coarse | random
    seed: int = 0

    def __post_init__(self):
        check_counts(max_iter=self.max_iter)
        if self.initial_guess not in ("coarse", "random"):
            raise ValueError("initial_guess must be 'coarse' or 'random', "
                             f"got {self.initial_guess!r}")
        for prop, name in ((self.fine, "fine"), (self.coarse, "coarse")):
            if not self.grid.spanned_by(prop):
                raise ValueError(f"{name} propagator does not span every window")


def fine_sequential(grid: TimeGrid, fine: Propagator, sys,
                    F: Optional[np.ndarray] = None) -> np.ndarray:
    """Sequential sweep of ``fine`` across the windows of ``grid``: the
    oracle trajectory at window boundaries, shape (n_windows + 1, n), one
    matvec per window with the window matrix ``F`` (formed if not given)."""
    if not grid.spanned_by(fine):
        raise ValueError("fine propagator does not span every window")
    target = first_order_form(sys)
    F = window_matrix(fine, target) if F is None else F
    u = finite_u0(target).copy()
    out = [u.copy()]
    for n in range(grid.n_windows):
        t0, t1 = grid.window(n)
        u = F @ u if F is not None else propagate(fine, target, t0, t1, u)
        out.append(u.copy())
    return np.stack(out)


def _coarse_propagator(cfg, target):
    """G(n, u): the coarse propagator across window n (a window matrix if any)."""
    G = window_matrix(cfg.coarse, target)
    if G is not None:
        return lambda n, u: G @ u
    return lambda n, u: propagate(cfg.coarse, target, *cfg.grid.window(n), u)


def _initial_iterate(cfg, target, coarse):
    """U^0: random window values, or one sequential sweep of ``coarse``."""
    n_w = cfg.grid.n_windows
    U = np.empty((n_w + 1, target.u0.shape[0]))
    U[0] = finite_u0(target)
    if cfg.initial_guess == "random":
        rng = np.random.default_rng(cfg.seed)
        U[1:] = rng.standard_normal((n_w, target.u0.shape[0]))
        return U
    for n in range(n_w):
        U[n + 1] = coarse(n, U[n])
    return U


def _fine_map(cfg, target, F, starts, first=0):
    """The fine solves of windows ``first``, ``first + 1``, ... from their
    start values (rows): one product with the fine window matrix ``F``, or
    without one a :func:`propagate_block` march over every window."""
    if F is not None:
        return starts @ F.T
    return propagate_block(cfg.fine, target, cfg.grid.boundaries[first:-1], starts.T.copy()).T


def _fine_and_oracle(cfg, target, oracle):
    """The fine window matrix (or None) and the oracle, made with it unless given."""
    F = window_matrix(cfg.fine, target)
    if oracle is None:
        oracle = fine_sequential(cfg.grid, cfg.fine, target, F)
    return F, oracle


def _iterate(cfg, target, coarse, oracle, method):
    """Parareal iterations U^{k+1}[n+1] = F(U^k[n]) + G(U^{k+1}[n]) - G(U^k[n])
    with the coarse map ``coarse`` from its initial iterate until ``cfg.tol``
    or ``cfg.max_iter``, measured against ``oracle`` (made if None); the
    trace is labelled ``method``."""
    F, oracle = _fine_and_oracle(cfg, target, oracle)
    U = _initial_iterate(cfg, target, coarse)
    n_w = cfg.grid.n_windows
    # G(U^0[n]), updated in place; a coarse initial sweep already holds it
    G_old = (U[1:].copy() if cfg.initial_guess == "coarse"
             else np.stack([coarse(n, U[n]) for n in range(n_w)]))
    trace = IterationTrace(method=method)
    trace.record(error=np.abs(U - oracle).max())
    for k in range(cfg.max_iter):
        fine = _fine_map(cfg, target, F, U[:-1])
        U_new = np.empty_like(U)
        U_new[0] = U[0]
        for n in range(n_w):
            g_new = coarse(n, U_new[n])
            U_new[n + 1] = fine[n] + g_new - G_old[n]
            G_old[n] = g_new
        U = U_new
        if not np.all(np.isfinite(U)):
            raise ConvergenceError(f"{method} iterate became non-finite")
        trace.record(error=np.abs(U - oracle).max(), fine_solves=n_w)
        if trace.errors[-1] <= cfg.tol:
            break
    return U, trace


def parareal_solve(cfg: PararealConfig, sys, oracle: Optional[np.ndarray] = None):
    """Classic Parareal: coarse correction sweep plus parallel fine solves."""
    target = first_order_form(sys)
    return _iterate(cfg, target, _coarse_propagator(cfg, target), oracle, "parareal")


def mgrit_fcf_solve(cfg: PararealConfig, sys, oracle: Optional[np.ndarray] = None):
    """Two-level MGRiT with FCF relaxation (overlapping Parareal, two fine
    solves per window per iteration, both by :func:`_fine_map`)."""
    target = first_order_form(sys)
    F, oracle = _fine_and_oracle(cfg, target, oracle)
    coarse = _coarse_propagator(cfg, target)
    U = _initial_iterate(cfg, target, coarse)
    trace = IterationTrace(method="mgrit_fcf")
    trace.record(error=np.abs(U - oracle).max())
    n_w = cfg.grid.n_windows
    for k in range(cfg.max_iter):
        # F relaxation: s_n = F(T_{n-1}, T_n, u_{n-1}^k) for n = 1..n_w
        S = _fine_map(cfg, target, F, U[:-1])
        U_new = np.empty_like(U)
        U_new[0] = U[0]
        U_new[1] = S[0]
        # second fine pass from the relaxed states
        if n_w >= 2:
            FF = _fine_map(cfg, target, F, S[:-1], first=1)
        for n in range(1, n_w):
            g_new = coarse(n, U_new[n])
            g_old = coarse(n, S[n - 1])  # G of the F-relaxed state, not of U^k: no cache
            U_new[n + 1] = FF[n - 1] + g_new - g_old
        U = U_new
        if not np.all(np.isfinite(U)):
            raise ConvergenceError("mgrit iterate became non-finite")
        trace.record(error=np.abs(U - oracle).max(), fine_solves=2 * n_w)
        if trace.errors[-1] <= cfg.tol:
            break
    return U, trace


# ---------------------------------------------------------------------------
# linear convergence-factor predictors
# ---------------------------------------------------------------------------


def rho_linear(Rg: Callable, Rf: Callable, J: int, z) -> float:
    """Long-time linear convergence factor |Rg - Rf^J| / (1 - |Rg|)."""
    z = np.asarray(z, dtype=complex)
    rg = Rg(z)
    denom = 1.0 - np.abs(rg)
    if np.any(denom <= 0):
        raise ZeroDivisionError("rho_linear needs |Rg(z)| < 1")
    return np.abs(rg - Rf(z / J) ** J) / denom


def mgrit_rho_linear(Rg: Callable, Rf: Callable, J: int, z) -> float:
    """FCF analogue: the extra fine pass multiplies by |Rf^J|."""
    z = np.asarray(z, dtype=complex)
    return np.abs(Rf(z / J) ** J) * rho_linear(Rg, Rf, J, z)


def max_rho_negative_axis(rho: Callable) -> float:
    """Maximize a convergence-factor function over z in [-1e6, 0).

    Dense log-spaced sampling (4000 points) followed by a 4000-point linear
    refinement around the coarse argmax.
    """
    z = -np.geomspace(1e-8, 1e6, 4000)
    vals = rho(z)
    i = int(np.argmax(vals))
    lo = z[min(i + 1, len(z) - 1)]
    hi = z[max(i - 1, 0)]
    zr = np.linspace(lo, hi, 4000)
    return float(max(vals[i], np.max(rho(zr))))


def stability_function(method) -> Callable:
    return lambda z: stability(method, z)


# ---------------------------------------------------------------------------
# diagonalization-based coarse grid correction (head-tail all-at-once CGC)
# ---------------------------------------------------------------------------


def parareal_diag_cgc_solve(cfg: PararealConfig, sys, oracle: Optional[np.ndarray] = None):
    """Parareal whose CGC couples head to tail, u_0^{k+1} = alpha*u_{N}^{k+1} + u_0,
    and is solved across all windows at once by circulant diagonalization.

    Coarse solver is one backward-Euler step per window, and the system must
    be linear and have no source term: the all-at-once correction carries
    no source, so with one it would converge to a wrong fixed point.  The
    fine solves are one :func:`_fine_map` per iteration.
    """
    if cfg.coarse.steps != 1 or cfg.coarse.method.theta != 1.0:
        raise ValueError("diag CGC uses one backward-Euler step per window")
    _check_alpha(cfg.alpha)
    target = _linear_target(sys, "diag CGC")
    if target.source is not None:
        raise ValueError("diag CGC takes systems without a source term: "
                         "its all-at-once correction carries no source")
    F, oracle = _fine_and_oracle(cfg, target, oracle)
    dT = cfg.grid.window_length(0)
    alpha = cfg.alpha
    n_w = cfg.grid.n_windows
    coarse = _coarse_propagator(cfg, target)
    U = _initial_iterate(cfg, target, coarse)
    trace = IterationTrace(method="parareal_diag_cgc")
    trace.record(error=np.abs(U - oracle).max())

    c1 = np.zeros(n_w)
    c1[0] = 1.0
    if n_w > 1:
        c1[1] = -1.0
    fac = alpha_circulant_factor(c1, alpha)
    cgc_plan = target.shift_plan(fac.eigenvalues, np.full(n_w, dT))

    for k in range(cfg.max_iter):
        # b_{n+1} = F(T_n, T_{n+1}, u~_n) - G(T_n, T_{n+1}, u_n), with the
        # head value pinned to the true initial condition in the F term
        U_tilde = U[:-1].copy()
        U_tilde[0] = target.u0
        fine = _fine_map(cfg, target, F, U_tilde)
        B = np.stack([fine[n] - coarse(n, U[n]) for n in range(n_w)])

        G = B - dT * target.matvec(B.T).T  # rows (I - dT A) b_n
        G[0] += target.u0
        U_inner = fac.solve(cgc_plan, G).real
        U_new = np.empty_like(U)
        U_new[0] = alpha * U_inner[-1] + target.u0
        U_new[1:] = U_inner
        U = U_new
        trace.record(error=np.abs(U[1:] - oracle[1:]).max(), fine_solves=n_w)
        if trace.errors[-1] <= cfg.tol:
            break
    return U, trace


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"diagonalized Parareal needs alpha in (0, 1), got alpha={alpha!r}")


def _linear_target(sys, name):
    """``sys`` in first-order form; a nonlinear system is rejected, since
    the diagonalized solvers factor one linear operator for every window."""
    target = first_order_form(sys)
    if not target.linear:
        raise ValueError(f"{name} solves linear systems only, got the nonlinear "
                         f"{sys.kind!r} system")
    return target


# ---------------------------------------------------------------------------
# diagonalization-based coarse solver (same discretization as the fine one)
# ---------------------------------------------------------------------------


def parareal_diag_coarse_solve(cfg: PararealConfig, sys,
                               oracle: Optional[np.ndarray] = None):
    """Parareal whose coarse solver is the fine theta-method made head-tail
    periodic inside each window and solved at once by diagonalization.

    Fine and coarse share the method and step size; alpha -> 0 recovers the
    fine solver itself.  The system must be linear and have no source term,
    so the coarse map is one n x n matrix M, the same on every window: it is
    formed once, by the all-at-once head-tail solve of each identity column,
    and each coarse call is the matvec M u.
    """
    if cfg.fine.method.theta is None:
        raise ValueError("diag coarse solver is defined for theta methods")
    _check_alpha(cfg.alpha)
    target = _linear_target(sys, "diag coarse solver")
    if target.source is not None:
        raise ValueError("diag coarse solver takes systems without a source term: "
                         "its coarse map is one matrix for every window")
    theta = cfg.fine.method.theta
    J = cfg.fine.steps
    dt = cfg.fine.dt
    alpha = cfg.alpha

    e0, e1 = np.eye(J, 2).T  # the first two unit vectors in time (e1 = 0 if J = 1)
    fac_c = alpha_circulant_factor(e0 - e1, alpha)
    fac_t = alpha_circulant_factor(theta * e0 + (1.0 - theta) * e1, alpha)
    star_plan = target.shift_plan(fac_c.eigenvalues, dt * fac_t.eigenvalues)

    def head_tail(u):
        """F*_alpha(u): the all-at-once head-tail theta sweep over one window."""
        rhs = np.zeros((J, u.shape[0]))
        v0 = (1.0 - alpha) * u
        rhs[0] = v0 + dt * (1.0 - theta) * target.matvec(v0)
        return fac_c.solve(star_plan, rhs)[-1].real

    # one column per solve, as in a single coarse call: wider blocks raised
    # C14's peak memory (by 0.24 MiB at 4 columns, 2.4 MiB at all n at once)
    M = np.stack([head_tail(e) for e in np.eye(target.n)], axis=1)
    return _iterate(cfg, target, lambda n, u: M @ u, oracle, "parareal_diag_coarse")
