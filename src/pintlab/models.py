"""1D semi-discrete model problems on the unit interval.

Centered finite differences in space produce systems u' = A u (+ B u^2 + g)
for the heat, advection-diffusion and Burgers' equations, and u'' = A u for
the second-order wave equation.  Boundary handling:

* dirichlet  - boundary unknowns eliminated, vectors hold interior values,
               dx = 1/(Nx+1)
* periodic   - wrap-around corners on the stencils, dx = 1/Nx
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .kernels import BandedMatrix, ShiftPlan, SingularSystemError

PULSE_TIMES = (0.1, 0.6, 1.35, 1.85)
PULSE_AMPLITUDE = 10.0
PULSE_CENTER_X = 0.5


class InvalidBoundaryError(ValueError):
    pass


def _check_bc(bc):
    if bc not in ("dirichlet", "periodic"):
        raise InvalidBoundaryError(f"boundary condition {bc!r} is not 'dirichlet' or 'periodic'")


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
    return BandedMatrix(diag, lower, upper)


def first_difference_stencil(nx: int, bc: str) -> BandedMatrix:
    """Integer-weight centered first-difference stencil (rows -1, 0, 1)."""
    _check_bc(bc)
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
    g(x,t) = 10 * sum_j exp(-sigma * [(t - t_j)^2 + (x - 0.5)^2]).

    ``t`` is a time or an array of times broadcast against ``x``.  The time
    term is squared by libm ``pow``, as Python's float ``**`` does and
    numpy's array ``** 2`` does not, so each entry does not depend on the
    shape of ``t``, bit for bit."""

    sigma: float
    amplitude: float = PULSE_AMPLITUDE
    centers: tuple = PULSE_TIMES
    x_center: float = PULSE_CENTER_X

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def __call__(self, x: np.ndarray, t) -> np.ndarray:
        space, out = (x - self.x_center) ** 2, 0.0
        time = np.float_power(np.subtract.outer(t, self.centers), 2)  # t.shape + (centers,)
        for j in range(len(self.centers)):
            out = out + np.exp(-self.sigma * (time[..., j] + space))
        return self.amplitude * out


@dataclass
class SemiDiscreteSystem:
    """Semi-discretized model problem u' = A u + B u^2 + g (order='first')
    or u'' = A u (order='second', which takes no source term)."""

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
        if self.order == "second" and self.source is not None:
            raise ValueError("a second-order system takes no source term")
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")

    @property
    def n(self) -> int:
        return self.A.n

    @property
    def linear(self) -> bool:
        return self.B is None

    def g(self, t) -> Optional[np.ndarray]:
        """The source at time ``t``, (n,), or at an array of times, (n,) + t.shape."""
        return None if self.source is None else self.source(t)

    def f(self, u: np.ndarray, t) -> np.ndarray:
        """Right-hand side of the first-order system for a state (n,) or a
        block (n, k), at one time or, for a block, one time per column."""
        out = self.A.matvec(u)
        if self.B is not None:
            out += self.B.matvec(u * u)
        if self.source is not None:
            gval = self.source(t)
            out = out + (gval[:, None] if gval.ndim < u.ndim else gval)
        return out

    def jacobian(self, u: np.ndarray) -> BandedMatrix:
        """d f / d u of a nonlinear system as a banded matrix (A + 2 B diag(u));
        for a block u of shape (n, k), the stack of the k column Jacobians."""
        if self.B is None:
            raise ValueError("jacobian takes a nonlinear system; a linear system's Jacobian is A")
        return self.A.add(self.B, 2.0 * u)

    # Linear part A, in the operator interface CompanionSystem shares.

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return self.A.matvec(u)

    def to_dense(self):
        return self.A.to_dense()

    @property
    def expm_key(self):
        return self.A.expm_key

    def shift_plan(self, a, b) -> ShiftPlan:
        """Prepared solves with (a*I - b*A), or (a[j]*I - b[j]*A) for J shifts."""
        return self.A.shift_plan(a, b)


def _with_source(source, sigma, x):
    """g(t) = source(x, t) on the grid ``x``, with ``x`` shaped to broadcast
    against an array of times: g(t) has shape (n,) + t.shape."""
    if source is None:
        return None
    pulse = source if callable(source) else SourcePulse(sigma)
    return lambda t: pulse(x.reshape(x.shape + (1,) * np.ndim(t)), t)


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
    _check_bc(bc)
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
    _check_bc(bc)
    x = grid_coordinates(nx, dx, bc)
    A = second_difference_stencil(nx, bc).scaled(nu / dx**2)
    B = first_difference_stencil(nx, bc).scaled(-1.0 / (4.0 * dx))
    return SemiDiscreteSystem(
        A=A, u0=np.zeros(nx), dx=dx, bc=bc, kind="burgers",
        B=B, source=_with_source(source, None, x), nu=nu, x=x,
    )


def build_wave(nx, dx, c, bc) -> SemiDiscreteSystem:
    """Second-order wave u_tt = c^2 u_xx: A = (c^2/dx^2) A_xx, zero initial
    velocity by default."""
    _check_bc(bc)
    x = grid_coordinates(nx, dx, bc)
    A = second_difference_stencil(nx, bc).scaled(c**2 / dx**2)
    return SemiDiscreteSystem(
        A=A, u0=np.zeros(nx), dx=dx, bc=bc, kind="wave", order="second",
        u0_deriv=np.zeros(nx), c=c, x=x,
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
    """First-order embedding w' = [[0, I], [A, 0]] w of u'' = A u.

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

    @property
    def source(self):
        return self.base.source

    @property
    def expm_key(self):
        return self.base.A, "companion"

    def matvec(self, w: np.ndarray) -> np.ndarray:
        m = self.base.n
        top = w[m:]
        bottom = self.base.A.matvec(w[:m])
        return np.concatenate([top, bottom], axis=0)

    def shift_plan(self, a, b) -> "CompanionShiftPlan":
        """Prepared solves with (a*I - b*[[0,I],[A,0]]), or with J shifts."""
        return CompanionShiftPlan(self, a, b)

    def to_dense(self) -> np.ndarray:
        m = self.base.n
        big = np.zeros((2 * m, 2 * m))
        big[:m, m:] = np.eye(m)
        big[m:, :m] = self.base.A.to_dense()
        return big


class CompanionShiftPlan:
    """The shifted systems (a[j]*I - b[j]*[[0,I],[A,0]]) w[j] = r[j] of a
    :class:`CompanionSystem`, prepared for repeated solves.

    With r = (r_u, r_v), one Schur step gives u from the banded system
    (a I - (b^2/a) A) u = r_u + (b/a) r_v and then v = (r_v + b A u) / a.
    The plan holds the :class:`ShiftPlan` of those banded shifts for all J
    systems at once and the coefficients b/a.  Scalar or array shifts and
    the right-hand side shapes follow :class:`ShiftPlan`.  The Schur step
    divides by a, so a shift with a = 0 makes ``solve`` raise
    SingularSystemError.
    """

    def __init__(self, comp: "CompanionSystem", a, b):
        a, b = np.asarray(a), np.asarray(b)
        self.single = a.ndim == 0 and b.ndim == 0
        self.a, self.b = a, b = a.reshape(-1), b.reshape(-1)
        self.m, self.A = comp.base.n, comp.base.A
        self._banded = None
        if a.all():
            # b^2 elementwise, as scalars: numpy's vectorized complex product
            # may use fused multiply-adds and round differently from one shift alone
            b_sq = np.array([bj * bj for bj in b])
            self._banded = self.A.shift_plan(a, b_sq / a)
            self._b_over_a = b / a

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._banded is None:
            raise SingularSystemError("companion shift with a = 0: the Schur step divides by a")
        R = rhs[None] if self.single else rhs
        per_shift = (slice(None),) + (None,) * (R.ndim - 1)
        ru, rv = R[:, :self.m], R[:, self.m:]
        u, Au = self._banded.solve(ru + self._b_over_a[per_shift] * rv, product=True)
        v = (rv + self.b[per_shift] * Au) / self.a[per_shift]
        W = np.concatenate([u, v], axis=1)
        return W[0] if self.single else W

