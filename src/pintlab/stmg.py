"""Space-time multigrid on the all-at-once system.

The smoother is damped block Jacobi in time (one shifted solve per time
block, a pure parallel map); transfers are full weighting / linear
interpolation in both directions; the coarse operator is re-discretized at
doubled steps.  The cycle has two levels; its coarse level is solved
exactly by forward substitution.  When dt/dx^2 < 1/sqrt(2), or when the
coarse spatial grid would have fewer than 3 points, the coarse level
coarsens in time only (recorded in the trace).  The nonlinear variant runs
the cycle in full-approximation form on backward Euler, with a nonlinear
block smoother that solves all its independent time rows in one batched
Newton call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .integrators import AllAtOnce, _newton, finite_u0, named_theta
from .kernels import ConvergenceError, check_counts, check_positive
from .models import rebuild
from .trace import IterationTrace

SPACE_COARSENING_LIMIT = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class SpaceTimeGrid:
    lx: int
    lt: int
    dx: float
    dt: float

    def __post_init__(self):
        check_counts(2, lx=self.lx, lt=self.lt)
        check_positive(dx=self.dx, dt=self.dt)

    @property
    def nx(self) -> int:
        return 2**self.lx - 1

    @property
    def nt(self) -> int:
        return 2**self.lt - 1


@dataclass(frozen=True)
class SmootherConfig:
    eta: float
    s1: int = 1
    s2: int = 1

    def __post_init__(self):
        check_positive(eta=self.eta)
        check_counts(0, s1=self.s1, s2=self.s2)


def lfa_rho(omega: float, xi: float, eta: float, dt: float, dx: float) -> complex:
    """Fourier symbol of the damped block-Jacobi smoother for the heat
    equation: 1 - eta (1 - e^{-i w dt} / (1 + 2 dt/dx^2 (1 - cos xi dx)))."""
    phase = np.exp(-1j * omega * dt)
    den = 1.0 + 2.0 * dt / dx**2 * (1.0 - np.cos(xi * dx))
    return 1.0 - eta * (1.0 - phase / den)


def lfa_max_high_frequency(eta: float, dt: float, dx: float) -> float:
    """Max |symbol| over modes with |w dt| or |xi dx| in (pi/2, pi), from
    one evaluation of :func:`lfa_rho` on a grid of 193 x 193 sampled modes."""
    thetas = np.linspace(-np.pi, np.pi, 193)
    wt, xd = np.meshgrid(thetas, thetas, indexing="ij")
    high = (np.abs(wt) > np.pi / 2) | (np.abs(xd) > np.pi / 2)
    rho = lfa_rho(wt[high] / dt, xd[high] / dx, eta, dt, dx)
    # np.hypot rounds as abs() of one complex number does; np.abs may not
    return np.hypot(rho.real, rho.imag).max()


def block_jacobi_smooth(op: AllAtOnce, b, U, eta: float, s: int):
    """s damped block-Jacobi steps: (I_t (x) r1) dU = eta (b - K U)."""
    for _ in range(s):
        res = b - op.apply(U)
        U = U + eta * op.solve_r1(res)
    return U


def prolongation_matrix(n_coarse: int) -> np.ndarray:
    """Linear interpolation from 2^(l-1)-1 to 2^l-1 interior points."""
    n_fine = 2 * n_coarse + 1
    P = np.zeros((n_fine, n_coarse))
    for j in range(n_coarse):
        P[2 * j, j] = 0.5
        P[2 * j + 1, j] = 1.0
        P[2 * j + 2, j] = 0.5
    return P


@dataclass
class TwoLevelOperators:
    op_f: AllAtOnce
    op_c: AllAtOnce
    Px: Optional[np.ndarray]  # None => no space coarsening
    Pt: np.ndarray
    coarsen_space: bool


def _two_level(sys, grid: SpaceTimeGrid, make_op) -> TwoLevelOperators:
    """Fine and re-discretized coarse operators ``make_op(sys, dt=, nt=)``
    with the transfers; space is coarsened too when dt/dx^2 >=
    SPACE_COARSENING_LIMIT, unless the coarse spatial grid would have fewer
    than 3 points."""
    op_f = make_op(sys, dt=grid.dt, nt=grid.nt)  # before rebuild: it names what it refuses
    nx_c = 2 ** (grid.lx - 1) - 1
    coarsen_space = nx_c >= 3 and grid.dt / grid.dx**2 >= SPACE_COARSENING_LIMIT
    nt_c = 2 ** (grid.lt - 1) - 1
    Pt = prolongation_matrix(nt_c)
    if coarsen_space:
        sys_c = rebuild(sys, nx_c, 2 * grid.dx)
        Px = prolongation_matrix(nx_c)
    else:
        sys_c = rebuild(sys, grid.nx, grid.dx)
        Px = None
    return TwoLevelOperators(op_f=op_f, op_c=make_op(sys_c, dt=2 * grid.dt, nt=nt_c),
                             Px=Px, Pt=Pt, coarsen_space=coarsen_space)


def _restrict(ops: TwoLevelOperators, R):
    # arrays are (time, space): R_t acts on axis 0, R_x^T on axis 1, with
    # R = P^T/2 (full weighting, an average: row sums are one)
    out = (0.5 * ops.Pt.T) @ R
    if ops.Px is not None:
        out = out @ (0.5 * ops.Px)
    return out


def _prolong(ops: TwoLevelOperators, E):
    out = ops.Pt @ E
    if ops.Px is not None:
        out = out @ ops.Px.T
    return out


def stmg_two_level(sys, grid: SpaceTimeGrid, smoother: SmootherConfig,
                   integrator: str = "backward_euler", cycles: int = 10):
    """Two-level V-cycles on the linear all-at-once system: smooth,
    restrict the residual, solve the coarse level by forward substitution,
    prolong its correction, smooth.

    Returns (trajectory including the initial row, trace); the trace
    records errors against the exact forward substitution and residual
    norms.
    """
    check_counts(0, cycles=cycles)
    ops = _two_level(sys, grid, partial(AllAtOnce, theta=named_theta(integrator)))
    op_f = ops.op_f
    b = op_f.rhs()
    U_star = op_f.forward_substitution(b)
    U = np.zeros_like(b)
    trace = IterationTrace(method="stmg_two_level")
    trace.meta["coarsen_space"] = ops.coarsen_space
    bnorm = max(np.abs(b).max(), 1e-300)
    trace.record(error=np.abs(U - U_star).max(),
                 residual=np.abs(b - op_f.apply(U)).max() / bnorm)
    for _ in range(cycles):
        U = block_jacobi_smooth(op_f, b, U, smoother.eta, smoother.s1)
        U = U + _prolong(ops, ops.op_c.forward_substitution(_restrict(ops, b - op_f.apply(U))))
        U = block_jacobi_smooth(op_f, b, U, smoother.eta, smoother.s2)
        if not np.all(np.isfinite(U)):
            raise ConvergenceError("STMG cycle produced non-finite values")
        trace.record(error=np.abs(U - U_star).max(),
                     residual=np.abs(b - op_f.apply(U)).max() / bnorm)
    return np.vstack([sys.u0, U]), trace


# ---------------------------------------------------------------------------
# nonlinear full-approximation variant
# ---------------------------------------------------------------------------


class NonlinearAllAtOnce:
    """K(U) = (B (x) I) U - dt f(U) for backward Euler: time row n of K(U)
    is U[n] - U[n-1] - dt f(U[n], (n + 1) dt)."""

    def __init__(self, sys, dt: float, nt: int):
        self.sys = sys
        self.dt = dt
        self.nt = nt

    def f_rows(self, U):
        """f(U[n], (n + 1) dt) for every time row n, as one evaluation."""
        return self.sys.f(U.T, np.arange(1, self.nt + 1) * self.dt).T

    def apply(self, U):
        out = U.copy()
        out[1:] -= U[:-1]
        out -= self.dt * self.f_rows(U)
        return out

    def rhs(self):
        b = np.zeros((self.nt, self.sys.n))
        b[0] = finite_u0(self.sys)
        return b

    def smooth(self, b, U, eta, s):
        """Nonlinear block Jacobi: solve dU_n - dt*f(dU_n) = eta*res_n for
        the independent time rows n, all in one batched Newton solve."""
        for _ in range(s):
            res = (eta * (b - self.apply(U))).T
            U = U + _newton(self.sys, self.dt, res, 0.0, res).T
        return U

    def forward_substitution(self, b):
        """Sequential exact solve of K(U) = b (Newton per time block)."""
        U = np.empty((self.nt, self.sys.n))
        prev = self.sys.u0  # the first block's Newton guess
        for n in range(self.nt):
            r = b[n] + prev if n else b[n]
            U[n] = prev = _newton(self.sys, self.dt, r, (n + 1) * self.dt, prev)
        return U


def stmg_fas_nonlinear(sys, grid: SpaceTimeGrid, smoother: SmootherConfig,
                       cycles: int = 10, U0: Optional[np.ndarray] = None):
    """Two-level full approximation scheme for the nonlinear system.  A
    linear system is a ValueError: FAS is then the plain correction scheme
    of :func:`stmg_two_level`.
    """
    if sys.linear:
        raise ValueError("stmg_fas_nonlinear takes a nonlinear system; "
                         "run a linear one with stmg_two_level")
    check_counts(0, cycles=cycles)
    ops = _two_level(sys, grid, NonlinearAllAtOnce)
    op_f, op_c = ops.op_f, ops.op_c
    b = op_f.rhs()
    U_star = op_f.forward_substitution(b)
    U = np.tile(sys.u0, (grid.nt, 1)) if U0 is None else U0.copy()
    trace = IterationTrace(method="stmg_fas")
    trace.meta["coarsen_space"] = ops.coarsen_space
    trace.record(error=np.abs(U - U_star).max())
    for _ in range(cycles):
        U = op_f.smooth(b, U, smoother.eta, smoother.s1)
        U_c = _restrict(ops, U)
        rhs_c = _restrict(ops, b - op_f.apply(U)) + op_c.apply(U_c)
        U = U + _prolong(ops, op_c.forward_substitution(rhs_c) - U_c)
        U = op_f.smooth(b, U, smoother.eta, smoother.s2)
        if not np.all(np.isfinite(U)):
            raise ConvergenceError("FAS cycle produced non-finite values")
        trace.record(error=np.abs(U - U_star).max())
    return np.vstack([sys.u0, U]), trace
