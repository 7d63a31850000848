"""Time-parallel solvers built on diagonalizing the time-stepping matrix.

Two families:

* Direct ("all at once, once"): variable geometric step sizes make the
  backward-Euler time matrix diagonalizable, or a boundary value method
  (BVM) discretization replaces the last step to the same end.
  One transform - block solves - back transform yields the whole trajectory.

* Iterative (ParaDiag II): each Toeplitz time matrix T(c) of the one
  all-at-once form K = T(c1) (x) r1 - T(c2) (x) r2 (``integrators.AllAtOnce``,
  theta or Numerov) is approximated by the alpha-circulant C_alpha(c),
  which diagonalizes in a scaled Fourier basis with condition number
  1/alpha.  The approximation drives a stationary iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .kernels import (QuadraticPlan, SingularSystemError, check_counts, check_positive, dense_of,
                      dft, idft, solve_shifted_banded)
from .integrators import AllAtOnce, NumerovAllAtOnce, finite_u0, named_theta
from .trace import IterationTrace

MACHINE_EPS = 2.22e-16


# ---------------------------------------------------------------------------
# geometric time meshes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeometricTimeMesh:
    """Variable steps dt_n = mu^(n-1) * dt_1 with mu = 1 + rho, summing to T."""

    T: float
    n_t: int
    rho: float

    def __post_init__(self):
        check_positive(rho=self.rho, T=self.T)  # rho > 0: distinct steps
        check_counts(1, n_t=self.n_t)

    @property
    def mu(self) -> float:
        return 1.0 + self.rho

    @property
    def dts(self) -> np.ndarray:
        weights = self.mu ** np.arange(self.n_t)
        return weights / weights.sum() * self.T

    @property
    def times(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.dts)])


def _check_unsourced(sys):
    if sys.source is not None:
        raise ValueError("ParaDiag I takes systems without a source term")


def be_time_matrix(mesh: GeometricTimeMesh) -> np.ndarray:
    dts = mesh.dts
    B = np.diag(1.0 / dts)
    B[np.arange(1, mesh.n_t), np.arange(mesh.n_t - 1)] = -1.0 / dts[1:]
    return B


def _eig_solve(op, V, a, b, R: np.ndarray) -> np.ndarray:
    """Solve (B (x) I_op) U = R for a time matrix B = V diag(a/b) V^-1 that
    was diagonalized numerically: transform to the eigenbasis, one batched
    shifted solve (a[j]*I - b[j]*op) per eigenvalue, transform back."""
    return (V @ op.shift_plan(a, b).solve(np.linalg.solve(V, R.astype(complex)))).real


def paradiag1_direct_solve(sys, mesh: GeometricTimeMesh) -> np.ndarray:
    """Direct time-parallel backward-Euler solve of a first-order system on
    a geometric mesh, by the numerically balanced eigendecomposition of the
    time matrix.  Returns the trajectory including the initial row, shape
    (n_t + 1, n).
    """
    _check_unsourced(sys)
    u0 = finite_u0(sys)
    rhs = np.zeros((mesh.n_t, sys.n))
    rhs[0] = u0 / mesh.dts[0]
    lam, V = np.linalg.eig(be_time_matrix(mesh))
    return np.vstack([u0, _eig_solve(sys, V, lam, np.ones(mesh.n_t), rhs)])


def sequential_variable_step_solve(sys, mesh: GeometricTimeMesh) -> np.ndarray:
    """Sequential oracle for the direct solver (same discretization)."""
    _check_unsourced(sys)
    u = finite_u0(sys)
    out = np.empty((mesh.n_t + 1, sys.n))
    out[0] = u
    for n, dt in enumerate(mesh.dts):
        u = solve_shifted_banded(sys.A, (1.0, dt), u)
        out[n + 1] = u
    return out


# ---------------------------------------------------------------------------
# step-size parameter balancing truncation against roundoff
# ---------------------------------------------------------------------------


def _phi_log(n_t: int) -> float:
    if n_t % 2 == 0:
        return math.lgamma(n_t / 2 + 1) + math.lgamma(n_t / 2)
    return 2.0 * math.lgamma((n_t - 1) / 2 + 1)


def _log_r(x, n_t):
    return 2.0 * (math.log(x) - math.log1p(x)) - n_t * math.log1p(x)


def optimal_curvature_point(n_t: int) -> float:
    """Maximizer of r(x, n_t) = (x/(1+x))^2 (1+x)^(-n_t) over x >= 0:
    d/dx log r = 2/x - (2 + n_t)/(1 + x) vanishes at x* = 2/n_t."""
    return 2.0 / n_t


def rho_opt_first_order(n_t: int, T: float, lam_max: float) -> float:
    """Step-ratio parameter balancing the two first-order error bounds
    (evaluated in the log domain to survive the factorials)."""
    check_counts(2, n_t=n_t)
    x_star = optimal_curvature_point(n_t)
    log_C = math.log(n_t * (n_t**2 - 1) / 24.0) + _log_r(x_star, n_t)
    log_num = (
        math.log(MACHINE_EPS)
        + 2.0 * math.log(n_t)
        + math.log(2.0 * n_t + 1.0)
        + math.log(n_t + lam_max * T)
        - _phi_log(n_t)
        - log_C
    )
    return math.exp(log_num / (n_t + 1.0))


# ---------------------------------------------------------------------------
# boundary-value-method discretization
# ---------------------------------------------------------------------------


def bvm_time_matrix(n_t: int, dt: float) -> np.ndarray:
    """Centered differences for the first n_t - 1 rows, backward Euler last."""
    B = np.zeros((n_t, n_t))
    for n in range(n_t - 1):
        if n > 0:
            B[n, n - 1] = -0.5
        B[n, n + 1] = 0.5
    B[0, 1] = 0.5
    B[-1, -2] = -1.0
    B[-1, -1] = 1.0
    return B / dt


def paradiag1_bvm_solve(sys, dt: float, n_t: int) -> np.ndarray:
    """All-at-once BVM solve of a second-order system u'' = A u through the
    squared time matrix, avoiding the companion doubling, by numerically
    diagonalizing the time matrix.  Returns the trajectory including the
    initial row.
    """
    if sys.order != "second":
        raise ValueError(f"the BVM solve expects a second-order system, got order={sys.order!r}")
    check_counts(2, n_t=n_t)
    check_positive(dt=dt)
    finite_u0(sys)
    B = bvm_time_matrix(n_t, dt)
    lam, V = np.linalg.eig(B)
    rhs = np.zeros((n_t, sys.n))
    rhs[0] = sys.u0_deriv / (2.0 * dt)
    rhs[1] = -sys.u0 / (4.0 * dt**2)
    # squared one shift at a time: numpy's vectorized complex product
    # may round differently from the scalar one
    shifts = np.array([l**2 for l in lam])
    return np.vstack([sys.u0, _eig_solve(sys, V, shifts, np.ones(n_t), rhs)])


# ---------------------------------------------------------------------------
# alpha-circulant factorization
# ---------------------------------------------------------------------------


@dataclass
class AlphaCirculantFactorization:
    """Spectral factorization C = V D V^-1 of an alpha-circulant matrix,
    V = Lambda_alpha F* with Lambda_alpha = diag(alpha^(-j/n))."""

    eigenvalues: np.ndarray
    _lam_scale: np.ndarray = field(repr=False)

    def to_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """Apply V^-1 = F Lambda^-1 along axis 0."""
        scale = self._lam_scale
        return dft(x * scale.reshape(-1, *([1] * (x.ndim - 1))))

    def from_eigenbasis(self, y: np.ndarray) -> np.ndarray:
        """Apply V = Lambda F* along axis 0."""
        out = idft(y)
        return out / self._lam_scale.reshape(-1, *([1] * (out.ndim - 1)))

    def solve(self, plan, R: np.ndarray) -> np.ndarray:
        """V diag((a[j]*I - b[j]*op)^-1) V^-1 R for ``plan = op.shift_plan(a,
        b)`` over the n eigenvalue shifts: transform to the eigenbasis, one
        batched shifted solve, transform back (complex result)."""
        Ra = self.to_eigenbasis(R.astype(complex))
        return self.from_eigenbasis(plan.solve(Ra))


def alpha_circulant_factor(first_column: np.ndarray, alpha: float) -> AlphaCirculantFactorization:
    """Factor the alpha-circulant matrix with the given first column.

    Eigenvalues come from a scaled FFT of the first column,
    D = diag(sqrt(n) F Lambda_alpha c1); cost O(n log n).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    c1 = np.asarray(first_column, dtype=complex)
    n = c1.shape[0]
    lam_scale = alpha ** (np.arange(n) / n)  # Lambda_alpha^{-1} entries
    eig = np.fft.ifft(c1 * lam_scale, norm="forward")
    return AlphaCirculantFactorization(eigenvalues=eig, _lam_scale=lam_scale)


# ---------------------------------------------------------------------------
# ParaDiag II: alpha-circulant preconditioned iterations
# ---------------------------------------------------------------------------


def make_all_at_once(sys, integrator, dt, n_t):
    """Assemble the all-at-once operator for paradiag2_solve and tests."""
    if getattr(sys, "order", "first") == "second":
        return NumerovAllAtOnce(sys, dt, n_t)
    return AllAtOnce(sys, named_theta(integrator), dt, n_t)


def _preconditioned(sys, integrator, alpha, dt, n_t):
    """(op, b, solve): the operator K, its right-hand side and
    R -> P_alpha^-1 R, where P_alpha takes the alpha-circulant C_alpha(c)
    for each Toeplitz time matrix T(c) of K.  Fourier mode n of P_alpha is
    the block d1[n] r1 - d2[n] r2."""
    check_positive(dt=dt)
    op = make_all_at_once(sys, integrator, dt, n_t)
    b = op.rhs()
    fac, fac2 = (alpha_circulant_factor(c, alpha) for c in op.time_columns)
    d1, d2 = fac.eigenvalues, fac2.eigenvalues
    # block coefficients of A^j: (d1 r1_j - d2 r2_j) tau^j
    coeffs = [(d1 * p - d2 * q) * op.tau**j for j, (p, q) in enumerate(zip(*op.polys))]

    try:
        # theta: one batched shift plan; Numerov: one stacked quadratic plan
        plan = (sys.shift_plan(coeffs[0], -coeffs[1]) if len(coeffs) == 2
                else QuadraticPlan(sys.A, coeffs))
        fac.solve(plan, b)  # fail fast on singular blocks
    except SingularSystemError as exc:
        raise SingularSystemError(
            f"alpha={alpha} preconditioner is singular for this operator") from exc
    return op, b, partial(fac.solve, plan)


def dense_preconditioned_operator(sys, integrator: str, alpha: float, dt: float,
                                  n_t: int) -> np.ndarray:
    """Dense P_alpha^-1 K from the operator's own ``apply`` and the
    preconditioner solve (:func:`kernels.dense_of`), for spectral checks."""
    op, _, solve = _preconditioned(sys, integrator, alpha, dt, n_t)
    return dense_of(lambda X: solve(op.apply(X)).real, (n_t, sys.n))


def paradiag2_solve(sys, integrator: str, alpha: float, dt: float, n_t: int,
                    tol: float = 1e-10, max_iter: int = 100,
                    reference: Optional[np.ndarray] = None, u_init=None):
    """All-at-once solve with the alpha-circulant preconditioner: the
    stationary iteration U += P_alpha^-1 (b - K U), in increment form.
    Returns (trajectory including initial row, trace).
    """
    check_counts(0, max_iter=max_iter)
    check_counts(1, n_t=n_t)
    op, b, solve = _preconditioned(sys, integrator, alpha, dt, n_t)

    trace = IterationTrace(method="paradiag2_stationary")
    U = np.zeros_like(b) if u_init is None else u_init.copy()
    bnorm = max(np.abs(b).max(), 1e-300)
    for _ in range(max_iter):
        r = b - op.apply(U)
        U = U + solve(r).real
        resid = np.abs(r).max()
        err = None if reference is None else np.abs(U - reference).max()
        trace.record(error=err if err is not None else resid / bnorm,
                     residual=resid / bnorm)
        if resid / bnorm <= tol:
            break
    return np.vstack([sys.u0, U]), trace
