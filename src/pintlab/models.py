"""1D semi-discrete model problems on the unit interval.

Centered finite differences in space produce systems u' = A u (+ B u^2 + g)
for the heat, advection-diffusion and Burgers' equations, and u'' = A u for
the second-order wave equation.  Boundary handling:

* dirichlet  - boundary unknowns eliminated, vectors hold interior values,
               dx = 1/(Nx+1)
* neumann    - mirror ghost points with half-weight boundary rows (the
               finite-volume closure, so all column sums vanish and the
               discrete mean is conserved), dx = 1/(Nx-1)
* periodic   - wrap-around corners on the stencils, dx = 1/Nx
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse

from .kernels import BandedMatrix, apply_blocks, solve_shifted_banded

PULSE_TIMES = (0.1, 0.6, 1.35, 1.85)
PULSE_AMPLITUDE = 10.0
PULSE_CENTER_X = 0.5


class InvalidBoundaryError(ValueError):
    pass


def _check_bc(bc, allowed=("dirichlet", "neumann", "periodic")):
    if bc not in allowed:
        raise InvalidBoundaryError(f"boundary condition {bc!r} not in {allowed}")


def grid_coordinates(nx: int, dx: float, bc: str) -> np.ndarray:
    _check_bc(bc)
    if not dx > 0:
        raise ValueError(f"dx must be positive, got {dx}")
    if bc == "dirichlet":
        return dx * np.arange(1, nx + 1)
    return dx * np.arange(nx)


def second_difference_stencil(nx: int, bc: str) -> BandedMatrix:
    """Integer-weight second-difference stencil (interior rows 1, -2, 1)."""
    _check_bc(bc)
    if nx < 3:
        raise ValueError("need nx >= 3")
    diag = -2.0 * np.ones(nx)
    lower = np.ones(nx - 1)
    upper = np.ones(nx - 1)
    if bc == "periodic":
        return BandedMatrix(diag, lower, upper, corner_top=1.0, corner_bottom=1.0)
    if bc == "neumann":
        # half-weight flux rows: (-1, 1) and (1, -1)
        diag[0] = diag[-1] = -1.0
    return BandedMatrix(diag, lower, upper)


def first_difference_stencil(nx: int, bc: str) -> BandedMatrix:
    """Integer-weight centered first-difference stencil (rows -1, 0, 1)."""
    _check_bc(bc, allowed=("dirichlet", "periodic"))
    if nx < 3:
        raise ValueError("need nx >= 3")
    diag = np.zeros(nx)
    lower = -np.ones(nx - 1)
    upper = np.ones(nx - 1)
    if bc == "periodic":
        return BandedMatrix(diag, lower, upper, corner_top=-1.0, corner_bottom=1.0)
    return BandedMatrix(diag, lower, upper)


@dataclass
class SourcePulse:
    """Gaussian source firing at four instants at the domain center:
    g(x,t) = 10 * sum_j exp(-sigma * [(t - t_j)^2 + (x - 0.5)^2])."""

    sigma: float
    amplitude: float = PULSE_AMPLITUDE
    centers: tuple = PULSE_TIMES
    x_center: float = PULSE_CENTER_X

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        out = np.zeros_like(x)
        for tj in self.centers:
            out += np.exp(-self.sigma * ((t - tj) ** 2 + (x - self.x_center) ** 2))
        return self.amplitude * out


@dataclass
class SemiDiscreteSystem:
    """Semi-discretized model problem u' = A u + B u^2 + g (order='first')
    or u'' = A u + g (order='second')."""

    A: BandedMatrix
    u0: np.ndarray
    dx: float
    bc: str
    kind: str
    order: str = "first"
    B: Optional[BandedMatrix] = None
    source: Optional[Callable[[float], np.ndarray]] = None
    u0_deriv: Optional[np.ndarray] = None
    nu: float = 0.0
    c: float = 0.0
    x: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.A.n != self.u0.shape[0]:
            raise ValueError("operator and initial data sizes differ")
        if self.order == "second" and self.u0_deriv is None:
            raise ValueError("second-order system needs u0_deriv")
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")

    @property
    def n(self) -> int:
        return self.A.n

    @property
    def linear(self) -> bool:
        return self.B is None

    def g(self, t: float) -> Optional[np.ndarray]:
        return None if self.source is None else self.source(t)

    def f(self, u: np.ndarray, t: float) -> np.ndarray:
        """Right-hand side of the first-order system."""
        out = self.A.matvec(u)
        if self.B is not None:
            out += self.B.matvec(u * u)
        if self.source is not None:
            gval = self.source(t)
            out = out + (gval[:, None] if u.ndim == 2 else gval)
        return out

    def jacobian(self, u: np.ndarray) -> BandedMatrix:
        """d f / d u as a banded matrix (A + 2 B diag(u))."""
        if self.B is None:
            return self.A
        return self.A.add(self.B.scale_columns(2.0 * u))

    # Linear part A, in the operator interface CompanionSystem shares.

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return self.A.matvec(u)

    def to_sparse(self):
        return self.A.to_sparse()

    def to_dense(self):
        return self.A.to_dense()

    @property
    def expm_key(self):
        return self.A.expm_key

    def solve_shift(self, a, b, rhs: np.ndarray) -> np.ndarray:
        """Solve (a*I - b*A) x = rhs."""
        return solve_shifted_banded(self.A, (a, b), rhs)

    def solve_shift_many(self, a, b, R: np.ndarray) -> np.ndarray:
        """Solve (a[j]*I - b[j]*A) x[j] = R[j] for J shifts in one batched call."""
        return self.A.solve_shift_many(a, b, R)


def _with_source(source, sigma, x):
    if source is None:
        return None
    if callable(source) and not isinstance(source, SourcePulse):
        return lambda t: source(x, t)
    pulse = source if isinstance(source, SourcePulse) else SourcePulse(sigma)
    return lambda t: pulse(x, t)


def build_heat(nx: int, dx: float, nu: float, bc: str, source=None) -> SemiDiscreteSystem:
    """Heat equation u_t = nu*u_xx + g: A = (nu/dx^2) * A_xx."""
    _check_bc(bc)
    x = grid_coordinates(nx, dx, bc)
    A = second_difference_stencil(nx, bc).scaled(nu / dx**2)
    return SemiDiscreteSystem(
        A=A, u0=np.zeros(nx), dx=dx, bc=bc, kind="heat",
        source=_with_source(source, None, x), nu=nu, x=x,
    )


def build_advection_diffusion(nx, dx, nu, bc, source=None) -> SemiDiscreteSystem:
    """Advection-diffusion u_t + u_x - nu*u_xx = g:
    A = (nu/dx^2) A_xx - (1/(2 dx)) A_x."""
    _check_bc(bc, allowed=("dirichlet", "periodic"))
    x = grid_coordinates(nx, dx, bc)
    A = second_difference_stencil(nx, bc).scaled(nu / dx**2).add(
        first_difference_stencil(nx, bc).scaled(-1.0 / (2.0 * dx))
    )
    return SemiDiscreteSystem(
        A=A, u0=np.zeros(nx), dx=dx, bc=bc, kind="advection_diffusion",
        source=_with_source(source, None, x), nu=nu, x=x,
    )


def build_burgers(nx, dx, nu, bc, source=None) -> SemiDiscreteSystem:
    """Burgers' u_t - nu*u_xx + (1/2)(u^2)_x = g in conservative form:
    f(u) = (nu/dx^2) A_xx u - (1/(4 dx)) A_x (u^2) + g."""
    _check_bc(bc, allowed=("dirichlet", "periodic"))
    x = grid_coordinates(nx, dx, bc)
    A = second_difference_stencil(nx, bc).scaled(nu / dx**2)
    B = first_difference_stencil(nx, bc).scaled(-1.0 / (4.0 * dx))
    return SemiDiscreteSystem(
        A=A, u0=np.zeros(nx), dx=dx, bc=bc, kind="burgers",
        B=B, source=_with_source(source, None, x), nu=nu, x=x,
    )


def build_wave(nx, dx, c, bc, source=None) -> SemiDiscreteSystem:
    """Second-order wave u_tt = c^2 u_xx + g: A = (c^2/dx^2) A_xx,
    zero initial velocity by default."""
    _check_bc(bc)
    x = grid_coordinates(nx, dx, bc)
    A = second_difference_stencil(nx, bc).scaled(c**2 / dx**2)
    return SemiDiscreteSystem(
        A=A, u0=np.zeros(nx), dx=dx, bc=bc, kind="wave", order="second",
        source=_with_source(source, None, x), u0_deriv=np.zeros(nx), c=c, x=x,
    )


def rebuild(sys: SemiDiscreteSystem, nx: int, dx: float) -> SemiDiscreteSystem:
    """Re-discretize the same PDE on a different grid (used by multigrid)."""
    builders = {
        "heat": lambda: build_heat(nx, dx, sys.nu, sys.bc),
        "advection_diffusion": lambda: build_advection_diffusion(nx, dx, sys.nu, sys.bc),
        "burgers": lambda: build_burgers(nx, dx, sys.nu, sys.bc),
        "wave": lambda: build_wave(nx, dx, sys.c, sys.bc),
    }
    out = builders[sys.kind]()
    if sys.source is not None:
        # sys.source is bound to the old grid; rebind a pulse-style callable
        raise ValueError("rebuild of systems with sources is not supported")
    return out


def first_order_form(sys):
    """``sys`` as a first-order system: the companion embedding of a
    second-order system, otherwise ``sys`` itself."""
    return CompanionSystem(sys) if getattr(sys, "order", "first") == "second" else sys


@dataclass
class CompanionSystem:
    """First-order embedding w' = [[0, I], [A, 0]] w + (0, g) of u'' = A u + g.

    Shifted solves (a*I - b*bigA) reduce by one Schur complement step to a
    single banded solve with (a*I - (b^2/a)*A).
    """

    base: SemiDiscreteSystem

    @property
    def n(self) -> int:
        return 2 * self.base.n

    @property
    def linear(self) -> bool:
        return True

    @property
    def u0(self) -> np.ndarray:
        return np.concatenate([self.base.u0, self.base.u0_deriv])

    def g(self, t):
        if self.base.source is None:
            return None
        gv = self.base.source(t)
        return np.concatenate([np.zeros_like(gv), gv])

    @property
    def source(self):
        return self.base.source

    def to_sparse(self):
        eye = scipy.sparse.eye_array(self.base.n)
        return scipy.sparse.block_array([[None, eye], [self.base.A.to_sparse(), None]])

    @property
    def expm_key(self):
        return self.base.A, "companion"

    def matvec(self, w: np.ndarray) -> np.ndarray:
        m = self.base.n
        top = w[m:]
        bottom = self.base.A.matvec(w[:m])
        return np.concatenate([top, bottom], axis=0)

    def f(self, w: np.ndarray, t: float) -> np.ndarray:
        out = self.matvec(w)
        gv = self.g(t)
        if gv is not None:
            out = out + (gv[:, None] if w.ndim == 2 else gv)
        return out

    def solve_shift(self, a, b, rhs: np.ndarray) -> np.ndarray:
        """Solve (a*I - b*[[0,I],[A,0]]) w = rhs via Schur reduction."""
        if b == 0:
            return rhs / a
        return self.solve_shift_many([a], [b], rhs[None])[0]

    def solve_shift_many(self, a, b, R: np.ndarray) -> np.ndarray:
        """Solve (a[j]*I - b[j]*[[0,I],[A,0]]) w[j] = R[j] for J shifts: the
        Schur step for the whole batch is one batched banded solve with
        shifts (a, b^2/a) followed by one block matvec."""
        a = np.asarray(a)
        b = np.asarray(b)
        if np.any(b == 0):
            return np.stack([self.solve_shift(aj, bj, r) for aj, bj, r in zip(a, b, R)])
        m = self.base.n
        per_shift = (slice(None),) + (None,) * (R.ndim - 1)
        a_col, b_col = a[per_shift], b[per_shift]
        ru, rv = R[:, :m], R[:, m:]
        # b^2 elementwise, as scalars: numpy's vectorized complex product may
        # use fused multiply-adds and round differently from one shift alone
        b_sq = np.array([bj * bj for bj in b])
        u = self.base.A.solve_shift_many(a, b_sq / a, ru + (b_col / a_col) * rv)
        v = (rv + b_col * apply_blocks(self.base.A, u)) / a_col
        return np.concatenate([u, v], axis=1)

    def to_dense(self) -> np.ndarray:
        m = self.base.n
        big = np.zeros((2 * m, 2 * m))
        big[:m, m:] = np.eye(m)
        big[m:, :m] = self.base.A.to_dense()
        return big


def reference_solve(sys, grid, integrator) -> np.ndarray:
    """Sequential time stepping over the fine grid of ``grid``.

    Returns the trajectory at every fine step, shape (n_steps+1, n).  This
    is the oracle iterative methods are measured against.  Second-order
    systems are stepped through their companion embedding.
    """
    from .integrators import Propagator, propagate

    times = grid.fine_times()
    target = first_order_form(sys)
    u = target.u0.copy()
    out = np.empty((times.shape[0], u.shape[0]))
    out[0] = u
    for i in range(times.shape[0] - 1):
        prop = Propagator(integrator, dt=times[i + 1] - times[i], steps=1)
        u = propagate(prop, target, times[i], times[i + 1], u)
        out[i + 1] = u
    return out
