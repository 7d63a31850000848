"""Two-level space-time multigrid on the all-at-once system.

The smoother is damped block Jacobi in time (one shifted solve per time
block, a pure parallel map); transfers are full weighting / linear
interpolation in both directions; the coarse operator is re-discretized at
doubled steps and solved exactly by forward substitution.  When
dt/dx^2 < 1/sqrt(2) the cycle coarsens in time only (recorded in the
trace).  The nonlinear variant runs the same cycle in full-approximation
form with a nonlinear block smoother.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrators import _newton
from .kernels import ConvergenceError, solve_shifted_banded
from .models import SemiDiscreteSystem, rebuild
from .trace import IterationTrace

SPACE_COARSENING_LIMIT = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class SpaceTimeGrid:
    lx: int
    lt: int
    dx: float
    dt: float

    def __post_init__(self):
        if self.lx < 2 or self.lt < 2:
            raise ValueError("need lx, lt >= 2")

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
        if self.eta <= 0:
            raise ValueError("damping must be positive")


def lfa_rho(equation: str, omega: float, xi: float, eta: float, dt: float,
            dx: float, nu: float = 1.0) -> complex:
    """Fourier symbol of the damped block-Jacobi smoother.

    heat:  1 - eta (1 - e^{-i w dt} / (1 + 2 dt/dx^2 (1 - cos xi dx)))
    ad:    denominator gains the advection term i dt/dx sin(xi dx).
    """
    phase = np.exp(-1j * omega * dt)
    if equation == "heat":
        den = 1.0 + 2.0 * dt / dx**2 * (1.0 - np.cos(xi * dx))
    elif equation == "ad":
        den = (
            1.0
            + 2.0 * nu * dt / dx**2 * (1.0 - np.cos(xi * dx))
            + 1j * dt / dx * np.sin(xi * dx)
        )
    else:
        raise ValueError(f"unknown equation {equation!r}")
    return 1.0 - eta * (1.0 - phase / den)


def lfa_max_high_frequency(equation: str, eta: float, dt: float, dx: float,
                           nu: float = 1.0, samples: int = 96) -> float:
    """Max |symbol| over modes with |w dt| or |xi dx| in (pi/2, pi)."""
    thetas = np.linspace(-np.pi, np.pi, 2 * samples + 1)
    worst = 0.0
    for wt in thetas:
        for xd in thetas:
            if abs(wt) <= np.pi / 2 and abs(xd) <= np.pi / 2:
                continue
            rho = lfa_rho(equation, wt / dt, xd / dx, eta, dt, dx, nu)
            worst = max(worst, abs(rho))
    return worst


class AllAtOnce:
    """K = I_t (x) r1 - B_shift (x) r2 for a theta method on u' = A u + g."""

    def __init__(self, sys: SemiDiscreteSystem, theta: float, dt: float, nt: int):
        self.sys = sys
        self.theta = theta
        self.dt = dt
        self.nt = nt

    def r1(self, u):
        return u - self.theta * self.dt * self.sys.A.matvec(u)

    def r2(self, u):
        return u + (1.0 - self.theta) * self.dt * self.sys.A.matvec(u)

    def apply(self, U):
        out = np.empty_like(U)
        out[:] = self.r1(U.T).T
        out[1:] -= self.r2(U[:-1].T).T
        return out

    def rhs(self):
        b = np.zeros((self.nt, self.sys.n))
        b[0] = self.r2(self.sys.u0)
        if self.sys.source is not None:
            th = self.theta
            for n in range(self.nt):
                b[n] += self.dt * (
                    (1 - th) * self.sys.source(n * self.dt)
                    + th * self.sys.source((n + 1) * self.dt)
                )
        return b

    def solve_r1(self, rhs):
        return solve_shifted_banded(self.sys.A, (1.0, self.theta * self.dt), rhs.T).T

    def forward_substitution(self, b):
        U = np.empty((self.nt, self.sys.n))
        prev = None
        for n in range(self.nt):
            r = b[n] + (self.r2(prev) if prev is not None else 0.0)
            prev = solve_shifted_banded(self.sys.A, (1.0, self.theta * self.dt), r)
            U[n] = prev
        return U


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


def build_two_level(sys, grid: SpaceTimeGrid, theta: float) -> TwoLevelOperators:
    coarsen_space = grid.dt / grid.dx**2 >= SPACE_COARSENING_LIMIT
    op_f = AllAtOnce(sys, theta, grid.dt, grid.nt)
    nt_c = 2 ** (grid.lt - 1) - 1
    Pt = prolongation_matrix(nt_c)
    if coarsen_space:
        nx_c = 2 ** (grid.lx - 1) - 1
        sys_c = rebuild(sys, nx_c, 2 * grid.dx)
        Px = prolongation_matrix(nx_c)
    else:
        sys_c = rebuild(sys, grid.nx, grid.dx)
        Px = None
    op_c = AllAtOnce(sys_c, theta, 2 * grid.dt, nt_c)
    return TwoLevelOperators(op_f=op_f, op_c=op_c, Px=Px, Pt=Pt,
                             coarsen_space=coarsen_space)


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
                   integrator: str = "backward_euler", cycles: int = 10,
                   U0: Optional[np.ndarray] = None,
                   reference: Optional[np.ndarray] = None):
    """Two-level V-cycles on the linear all-at-once system.

    Returns (trajectory including the initial row, trace); the trace
    records errors against ``reference`` (default: the exact forward
    substitution) and residual norms.
    """
    theta = {"backward_euler": 1.0, "trapezoidal": 0.5}[integrator]
    ops = build_two_level(sys, grid, theta)
    b = ops.op_f.rhs()
    U_star = ops.op_f.forward_substitution(b) if reference is None else reference
    U = np.zeros_like(b) if U0 is None else U0.copy()
    trace = IterationTrace(method="stmg_two_level")
    trace.meta["coarsen_space"] = ops.coarsen_space
    bnorm = max(np.abs(b).max(), 1e-300)
    trace.record(error=np.abs(U - U_star).max(),
                 residual=np.abs(b - ops.op_f.apply(U)).max() / bnorm)
    for _ in range(cycles):
        U = _cycle_linear(ops, smoother, b, U)
        if not np.all(np.isfinite(U)):
            raise ConvergenceError("STMG cycle produced non-finite values")
        trace.record(error=np.abs(U - U_star).max(),
                     residual=np.abs(b - ops.op_f.apply(U)).max() / bnorm)
    out = np.empty((grid.nt + 1, sys.n))
    out[0] = sys.u0
    out[1:] = U
    return out, trace


def _cycle_linear(ops, smoother, b, U):
    U = block_jacobi_smooth(ops.op_f, b, U, smoother.eta, smoother.s1)
    r = b - ops.op_f.apply(U)
    r_c = _restrict(ops, r)
    e_c = ops.op_c.forward_substitution(r_c)
    U = U + _prolong(ops, e_c)
    return block_jacobi_smooth(ops.op_f, b, U, smoother.eta, smoother.s2)


def build_hierarchy(sys, grid: SpaceTimeGrid, theta: float, levels: int):
    """Chain of two-level operator pairs for the recursive cycle."""
    if levels < 2:
        raise ValueError("need at least two levels")
    if levels - 1 > min(grid.lx, grid.lt) - 2:
        raise ValueError("grid too small for the requested level count")
    chain = []
    cur_sys, cur_grid = sys, grid
    for _ in range(levels - 1):
        ops = build_two_level(cur_sys, cur_grid, theta)
        chain.append(ops)
        lx = cur_grid.lx - 1 if ops.coarsen_space else cur_grid.lx
        dx = 2 * cur_grid.dx if ops.coarsen_space else cur_grid.dx
        cur_grid = SpaceTimeGrid(lx=lx, lt=cur_grid.lt - 1, dx=dx, dt=2 * cur_grid.dt)
        cur_sys = ops.op_c.sys
    return chain


def _cycle_recursive(chain, level, smoother, b, U, gamma_cycle):
    ops = chain[level]
    U = block_jacobi_smooth(ops.op_f, b, U, smoother.eta, smoother.s1)
    r_c = _restrict(ops, b - ops.op_f.apply(U))
    if level == len(chain) - 1:
        e_c = ops.op_c.forward_substitution(r_c)
    else:
        e_c = np.zeros_like(r_c)
        for _ in range(gamma_cycle):
            e_c = _cycle_recursive(chain, level + 1, smoother, r_c, e_c, gamma_cycle)
    U = U + _prolong(ops, e_c)
    return block_jacobi_smooth(ops.op_f, b, U, smoother.eta, smoother.s2)


def stmg_multilevel(sys, grid: SpaceTimeGrid, smoother: SmootherConfig,
                    integrator: str = "backward_euler", cycles: int = 10,
                    levels: int = 2, gamma_cycle: int = 1,
                    U0: Optional[np.ndarray] = None,
                    reference: Optional[np.ndarray] = None):
    """Recursive multilevel cycles (V for gamma_cycle=1, W for 2).

    Optional extension of the two-level solver: the coarse problem is
    itself treated by ``gamma_cycle`` recursive cycles until the last
    level, which is solved exactly.  Not part of the acceptance gate.
    """
    theta = {"backward_euler": 1.0, "trapezoidal": 0.5}[integrator]
    chain = build_hierarchy(sys, grid, theta, levels)
    op_f = chain[0].op_f
    b = op_f.rhs()
    U_star = op_f.forward_substitution(b) if reference is None else reference
    U = np.zeros_like(b) if U0 is None else U0.copy()
    trace = IterationTrace(method=f"stmg_{levels}level")
    trace.meta["coarsen_space"] = [ops.coarsen_space for ops in chain]
    trace.record(error=np.abs(U - U_star).max())
    for _ in range(cycles):
        U = _cycle_recursive(chain, 0, smoother, b, U, gamma_cycle)
        if not np.all(np.isfinite(U)):
            raise ConvergenceError("multilevel cycle produced non-finite values")
        trace.record(error=np.abs(U - U_star).max())
    out = np.empty((grid.nt + 1, sys.n))
    out[0] = sys.u0
    out[1:] = U
    return out, trace


# ---------------------------------------------------------------------------
# nonlinear full-approximation variant
# ---------------------------------------------------------------------------


class NonlinearAllAtOnce:
    """K(U) = (B (x) I) U - dt (Btilde (x) I) f(U) for the theta method."""

    def __init__(self, sys, theta: float, dt: float, nt: int):
        self.sys = sys
        self.theta = theta
        self.dt = dt
        self.nt = nt

    def f_rows(self, U):
        out = np.empty_like(U)
        for n in range(self.nt):
            out[n] = self.sys.f(U[n], (n + 1) * self.dt)
        return out

    def apply(self, U):
        th, dt = self.theta, self.dt
        F = self.f_rows(U)
        out = U.copy()
        out[1:] -= U[:-1]
        out -= dt * th * F
        out[1:] -= dt * (1 - th) * F[:-1]
        return out

    def rhs(self):
        b = np.zeros((self.nt, self.sys.n))
        b[0] = self.sys.u0 + self.dt * (1 - self.theta) * self.sys.f(self.sys.u0, 0.0)
        return b

    def smooth(self, b, U, eta, s, newton_tol=1e-12):
        """Nonlinear block Jacobi: solve dU - dt*theta*f(dU) = eta*res."""
        for _ in range(s):
            res = eta * (b - self.apply(U))
            dU = np.empty_like(U)
            for n in range(self.nt):
                if self.sys.linear:
                    dU[n] = solve_shifted_banded(
                        self.sys.A, (1.0, self.theta * self.dt), res[n]
                    )
                else:
                    dU[n] = _newton(self.sys, self.theta * self.dt, res[n], 0.0,
                                    res[n], tol=newton_tol)
            U = U + dU
        return U

    def forward_substitution(self, b, newton_tol=1e-12):
        """Sequential exact solve of K(U) = b (Newton per time block)."""
        th, dt = self.theta, self.dt
        U = np.empty((self.nt, self.sys.n))
        prev = None
        for n in range(self.nt):
            r = b[n].copy()
            if prev is not None:
                r += prev + dt * (1 - th) * self.sys.f(prev, n * self.dt)
            if self.sys.linear:
                U[n] = solve_shifted_banded(self.sys.A, (1.0, th * dt), r)
            else:
                guess = prev if prev is not None else self.sys.u0
                U[n] = _newton(self.sys, th * dt, r, (n + 1) * dt, guess,
                               tol=newton_tol)
            prev = U[n]
        return U


def stmg_fas_nonlinear(sys, grid: SpaceTimeGrid, smoother: SmootherConfig,
                       cycles: int = 10, theta: float = 1.0,
                       reference: Optional[np.ndarray] = None,
                       U0: Optional[np.ndarray] = None):
    """Two-level full approximation scheme for the nonlinear system.

    Linear systems short-circuit the coarse step to the plain correction
    form, making the cycle bit-identical to :func:`stmg_two_level`.
    """
    if sys.linear:
        # FAS is the plain correction scheme for linear operators; run the
        # identical cycle kernel so the iterates agree bit for bit
        integrator = {1.0: "backward_euler", 0.5: "trapezoidal"}.get(theta)
        if integrator is None:
            raise ValueError("linear FAS delegation supports theta in {1, 1/2}")
        return stmg_two_level(sys, grid, smoother, integrator=integrator,
                              cycles=cycles, U0=U0, reference=reference)
    coarsen_space = grid.dt / grid.dx**2 >= SPACE_COARSENING_LIMIT
    op_f = NonlinearAllAtOnce(sys, theta, grid.dt, grid.nt)
    nt_c = 2 ** (grid.lt - 1) - 1
    Pt = prolongation_matrix(nt_c)
    if coarsen_space:
        nx_c = 2 ** (grid.lx - 1) - 1
        sys_c = rebuild(sys, nx_c, 2 * grid.dx)
        Px = prolongation_matrix(nx_c)
    else:
        sys_c = rebuild(sys, grid.nx, grid.dx)
        Px = None
    op_c = NonlinearAllAtOnce(sys_c, theta, 2 * grid.dt, nt_c)
    ops = TwoLevelOperators(op_f=None, op_c=None, Px=Px, Pt=Pt,
                            coarsen_space=coarsen_space)

    b = op_f.rhs()
    U_star = op_f.forward_substitution(b) if reference is None else reference
    U = np.tile(sys.u0, (grid.nt, 1)) if U0 is None else U0.copy()
    trace = IterationTrace(method="stmg_fas")
    trace.meta["coarsen_space"] = coarsen_space
    trace.record(error=np.abs(U - U_star).max())
    for _ in range(cycles):
        U = op_f.smooth(b, U, smoother.eta, smoother.s1)
        r = b - op_f.apply(U)
        r_c = _restrict(ops, r)
        if sys.linear:
            # FAS reduces to the plain coarse-grid correction
            e_c = op_c.forward_substitution(r_c)
        else:
            U_c = _restrict(ops, U)
            rhs_c = r_c + op_c.apply(U_c)
            U_c_new = op_c.forward_substitution(rhs_c)
            e_c = U_c_new - U_c
        U = U + _prolong(ops, e_c)
        U = op_f.smooth(b, U, smoother.eta, smoother.s2)
        if not np.all(np.isfinite(U)):
            raise ConvergenceError("FAS cycle produced non-finite values")
        trace.record(error=np.abs(U - U_star).max())
    out = np.empty((grid.nt + 1, sys.n))
    out[0] = sys.u0
    out[1:] = U
    return out, trace
