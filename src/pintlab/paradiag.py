"""Time-parallel solvers built on diagonalizing the time-stepping matrix.

Two families:

* Direct ("all at once, once"): variable geometric step sizes make the
  backward-Euler / trapezoidal time matrix diagonalizable, or a boundary
  value method (BVM) discretization replaces the last step to the same end.
  One transform - block solves - back transform yields the whole trajectory.

* Iterative (ParaDiag II): each Toeplitz time matrix T(c) of the one
  all-at-once form K = T(c1) (x) r1 - T(c2) (x) r2 (``integrators.AllAtOnce``,
  theta or Numerov) is approximated by the alpha-circulant C_alpha(c),
  which diagonalizes in a scaled Fourier basis with condition number
  1/alpha.  The approximation drives a stationary iteration or
  preconditions GMRES.

Nonlinear problems use a quasi-Newton outer loop whose Jacobian blocks are
collapsed to a single averaged matrix (optionally rescaled per time point
by the nearest-Kronecker-product weights) so the same factorizations apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kernels import (
    BandedMatrix,
    ConvergenceError,
    SingularSystemError,
    dense_of,
    dft,
    gmres,
    idft,
    solve_poly_in_matrix,
    solve_shifted_banded,
    toeplitz_lower_apply,
)
from .integrators import (
    AllAtOnce,
    NumerovAllAtOnce,
    Propagator,
    finite_u0,
    named_theta,
    propagate,
    trapezoidal,
)
from .models import CompanionSystem
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
        if self.rho <= 0:
            raise ValueError("geometric mesh needs rho > 0 (distinct steps)")

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


def be_time_matrix(mesh: GeometricTimeMesh) -> np.ndarray:
    dts = mesh.dts
    B = np.diag(1.0 / dts)
    B[np.arange(1, mesh.n_t), np.arange(mesh.n_t - 1)] = -1.0 / dts[1:]
    return B


def geometric_eigenvectors_be(mesh: GeometricTimeMesh):
    """Closed-form unit-lower-Toeplitz eigenvectors of the variable-step
    backward-Euler time matrix: V = T(p), V^-1 = T(q) with
    p_n = 1/prod_{j<=n}(1 - mu^j), q_n = (-1)^n mu^(n(n-1)/2) p_n."""
    mu = mesh.mu
    n = mesh.n_t
    p = np.empty(n - 1)
    prod = 1.0
    for k in range(1, n):
        prod *= 1.0 - mu**k
        p[k - 1] = 1.0 / prod
    q = np.array([(-1) ** k * mu ** (k * (k - 1) / 2.0) * p[k - 1] for k in range(1, n)])
    return p, q


def geometric_eigenvectors_tr(mesh: GeometricTimeMesh):
    """Closed-form Toeplitz eigenvectors of Btilde^-1 B for the trapezoidal
    rule on geometric steps (eigenvalues 2/dt_n)."""
    mu = mesh.mu
    n = mesh.n_t
    p = np.empty(n - 1)
    q = np.empty(n - 1)
    prod_p = 1.0
    prod_q = 1.0
    for k in range(1, n):
        prod_p *= (1.0 + mu**k) / (1.0 - mu**k)
        p[k - 1] = prod_p
        prod_q *= (1.0 + mu ** (-k + 2)) / (1.0 - mu ** (-k))
        q[k - 1] = mu ** (-k) * prod_q
    return p, q


def _eig_solve(op, V, a, b, R: np.ndarray) -> np.ndarray:
    """Solve (B (x) I_op) U = R for a time matrix B = V diag(a/b) V^-1 that
    was diagonalized numerically: transform to the eigenbasis, one batched
    shifted solve (a[j]*I - b[j]*op) per eigenvalue, transform back."""
    return (V @ op.shift_plan(a, b).solve(np.linalg.solve(V, R.astype(complex)))).real


def paradiag1_direct_solve(sys, mesh: GeometricTimeMesh, integrator: str = "backward_euler",
                           v_mode: str = "numeric") -> np.ndarray:
    """Direct time-parallel solve on a geometric mesh.

    ``integrator='backward_euler'`` treats first-order systems;
    ``'trapezoidal_second_order'`` treats second-order systems through
    their companion embedding.  ``v_mode`` selects the numerically
    balanced eigendecomposition (default) or the closed-form Toeplitz
    eigenvector matrices.  Returns the trajectory including the initial
    row, shape (n_t + 1, n).
    """
    dts = mesh.dts
    times = mesh.times
    if integrator == "backward_euler":
        target = sys
        u0 = finite_u0(sys)
        rhs = np.zeros((mesh.n_t, target.n))
        rhs[0] = u0 / dts[0]
        if sys.source is not None:
            rhs += sys.source(times[1:]).T
        lam_exact = 1.0 / dts
        B = be_time_matrix(mesh)
        closed = geometric_eigenvectors_be
    elif integrator == "trapezoidal_second_order":
        if sys.order != "second":
            raise ValueError("trapezoidal_second_order expects a second-order system")
        target = CompanionSystem(sys)
        u0 = finite_u0(target)
        if sys.source is not None:
            raise ValueError("source terms not supported on the trapezoidal path")
        B = be_time_matrix(mesh)
        Btilde = 0.5 * (np.eye(mesh.n_t) + np.eye(mesh.n_t, k=-1))
        rhs0 = np.zeros((mesh.n_t, target.n))
        rhs0[0] = u0 / dts[0] + 0.5 * target.matvec(u0)
        rhs = np.linalg.solve(Btilde, rhs0)
        B = np.linalg.solve(Btilde, B)
        lam_exact = 2.0 / dts
        closed = geometric_eigenvectors_tr
    else:
        raise ValueError(f"unknown integrator {integrator!r}")

    if v_mode == "numeric":
        lam, V = np.linalg.eig(B)
        U = _eig_solve(target, V, lam, np.ones(mesh.n_t), rhs)
    elif v_mode == "closed_form":
        p, q = closed(mesh)
        Ua = toeplitz_lower_apply(q, rhs)
        U = toeplitz_lower_apply(p, target.shift_plan(lam_exact, np.ones(mesh.n_t)).solve(Ua))
    else:
        raise ValueError(f"unknown v_mode {v_mode!r}")

    return np.vstack([u0, U])


def sequential_variable_step_solve(sys, mesh: GeometricTimeMesh,
                                   integrator: str = "backward_euler") -> np.ndarray:
    """Sequential oracle for the direct solver (same discretization)."""
    dts = mesh.dts
    times = mesh.times
    if integrator == "backward_euler":
        target, u = sys, finite_u0(sys).copy()
        out = np.empty((mesh.n_t + 1, target.n))
        out[0] = u
        for n, dt in enumerate(dts):
            r = u.copy()
            if sys.source is not None:
                r = r + dt * sys.source(times[n + 1])
            u = solve_shifted_banded(sys.A, (1.0, dt), r)
            out[n + 1] = u
        return out
    if integrator == "trapezoidal_second_order":
        target = CompanionSystem(sys)
        u = finite_u0(target).copy()
        out = np.empty((mesh.n_t + 1, target.n))
        out[0] = u
        for n, dt in enumerate(dts):
            rhs = u + 0.5 * dt * target.matvec(u)
            u = target.solve_shift(1.0, 0.5 * dt, rhs)
            out[n + 1] = u
        return out
    raise ValueError(f"unknown integrator {integrator!r}")


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


def rho_opt_first_order(n_t: int, T: float, lam_max: float,
                        eps: float = MACHINE_EPS) -> float:
    """Step-ratio parameter balancing the two first-order error bounds
    (evaluated in the log domain to survive the factorials)."""
    if n_t < 2:
        raise ValueError("need n_t >= 2")
    x_star = optimal_curvature_point(n_t)
    log_C = math.log(n_t * (n_t**2 - 1) / 24.0) + _log_r(x_star, n_t)
    log_num = (
        math.log(eps)
        + 2.0 * math.log(n_t)
        + math.log(2.0 * n_t + 1.0)
        + math.log(n_t + lam_max * T)
        - _phi_log(n_t)
        - log_C
    )
    return math.exp(log_num / (n_t + 1.0))


def measured_optimal_rho(sys, T: float, n_t: int, rhos) -> float:
    """Numerically determined step-ratio parameter.

    Minimizes the two rho-dependent error contributions the balancing
    formula models: the geometric-vs-uniform truncation gap at t = T plus
    the diagonalization roundoff against the sequential solve on the same
    mesh (closed-form eigenvectors, the ones the roundoff bound assumes).
    """
    u_uniform = sys.u0.copy()
    step = sys.shift_plan(1.0, T / n_t)
    for _ in range(n_t):
        u_uniform = step.solve(u_uniform)
    best = None
    for rho in rhos:
        mesh = GeometricTimeMesh(T=T, n_t=n_t, rho=float(rho))
        seq = sequential_variable_step_solve(sys, mesh)
        diag = paradiag1_direct_solve(sys, mesh, v_mode="closed_form")
        val = np.abs(seq[-1] - u_uniform).max() + np.abs(diag - seq).max()
        if best is None or val < best[0]:
            best = (val, float(rho))
    return best[1]


def rho_opt_second_order(n_t: int, eps: float = MACHINE_EPS) -> float:
    """Second-order analogue (trapezoidal rule on the companion form)."""
    if n_t < 2:
        raise ValueError("need n_t >= 2")
    log_num = (
        math.log(eps)
        + math.log(15.0)
        + (2.0 * n_t - 0.5) * math.log(2.0)
        - math.log(n_t**2 - 1.0)
        - math.lgamma(n_t)
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


def paradiag1_bvm_solve(sys, dt: float, n_t: int, order: str = "first") -> np.ndarray:
    """All-at-once BVM solve by numerically diagonalizing the time matrix.

    order='first' solves u' = A u + g; order='second' solves u'' = A u
    through the squared time matrix, avoiding the companion doubling.
    Returns the trajectory including the initial row.
    """
    finite_u0(sys)
    B = bvm_time_matrix(n_t, dt)
    lam, V = np.linalg.eig(B)
    times = dt * np.arange(1, n_t + 1)
    rhs = np.zeros((n_t, sys.n))
    if order == "first":
        rhs[0] = sys.u0 / (2.0 * dt)
        if sys.source is not None:
            rhs += sys.source(times).T
        shifts = lam
    elif order == "second":
        if sys.order != "second":
            raise ValueError("order='second' expects a second-order system")
        rhs[0] = sys.u0_deriv / (2.0 * dt)
        rhs[1] = -sys.u0 / (4.0 * dt**2)
        if sys.source is not None:
            # b = b2 + (B (x) I) b1 with the source entering the velocity rows
            rhs += sys.source(times).T
        # squared one shift at a time: numpy's vectorized complex product
        # may round differently from the scalar one
        shifts = np.array([l**2 for l in lam])
    else:
        raise ValueError(f"unknown order {order!r}")
    return np.vstack([sys.u0, _eig_solve(sys, V, shifts, np.ones(n_t), rhs)])


# ---------------------------------------------------------------------------
# nonlinear quasi-Newton outer loop (averaged Jacobian / NKA weights)
# ---------------------------------------------------------------------------


def _banded_mean(mats):
    out = mats[0]
    for m in mats[1:]:
        out = out.add(m)
    return out.scaled(1.0 / len(mats))


QUASI_NEWTON_MAX_ITER = 50


def circulant_quasi_newton(sys, residual, fac, b, U, tol: float, name: str) -> np.ndarray:
    """Quasi-Newton for an alpha-circulant all-at-once system: ``residual(U)``
    gives (residual rows, states); each step solves with the mean Jacobian
    A_bar of the states, shifts (fac.eigenvalues[j], b[j]), until the update
    is at most tol * max(1, |U|).  Raises ConvergenceError naming ``name``."""
    for _ in range(QUASI_NEWTON_MAX_ITER):
        resid, states = residual(U)
        A_bar = _banded_mean([sys.jacobian(s) for s in states])
        delta = fac.solve(A_bar.shift_plan(fac.eigenvalues, b), resid).real
        U = U + delta
        if np.abs(delta).max() <= tol * max(1.0, np.abs(U).max()):
            return U
    raise ConvergenceError(f"{name} quasi-Newton did not converge")


def banded_frobenius_inner(X: BandedMatrix, Y: BandedMatrix) -> float:
    s = float(np.dot(X.diag, Y.diag) + np.dot(X.lower, Y.lower) + np.dot(X.upper, Y.upper))
    if X.periodic and Y.periodic:
        s += X.corner_top * Y.corner_top + X.corner_bottom * Y.corner_bottom
    return s


def nka_weights(jacobians, A_k: BandedMatrix) -> np.ndarray:
    """Per-time-point scalings minimizing ||blkdiag(J_n) - diag(phi) (x) A_k||_F."""
    denom = banded_frobenius_inner(A_k, A_k)
    if denom <= 0:
        raise ValueError("averaged Jacobian has zero Frobenius norm")
    return np.array([banded_frobenius_inner(J, A_k) / denom for J in jacobians])


def nka_weights_offline(sys_coarse, dt: float, n_t: int) -> np.ndarray:
    """Per-time-point Kronecker weights from a coarse-space reduced model.

    Runs the trapezoidal rule sequentially on the (cheap) coarse system and
    evaluates the weights at its states, so the fine quasi-Newton loop can
    reuse a single offline diagonal.
    """
    prop = Propagator(trapezoidal(), dt=dt, steps=1)
    u = sys_coarse.u0.copy()
    jacobians = []
    for n in range(n_t):
        u = propagate(prop, sys_coarse, n * dt, (n + 1) * dt, u)
        jacobians.append(sys_coarse.jacobian(u))
    A_bar = _banded_mean(jacobians)
    return nka_weights(jacobians, A_bar)


class QuasiNewtonStagnation(ConvergenceError):
    pass


def paradiag1_quasi_newton(sys, time_disc, jac_mode: str = "mean_jacobian",
                           nka: bool = False, nka_weights_vec: Optional[np.ndarray] = None,
                           tol: float = 1e-10, max_iter: int = 100,
                           reference: Optional[np.ndarray] = None):
    """Quasi-Newton outer iteration for nonlinear all-at-once systems.

    ``time_disc`` is a :class:`GeometricTimeMesh` (variable-step backward
    Euler) or a tuple ``('bvm', dt, n_t)``.  Each outer iteration performs
    one diagonalized Jacobian solve with the averaged Jacobian A_k; with
    ``nka=True`` the Kronecker factor is diag(phi) (x) A_k instead of
    I (x) A_k.  Only the Jacobians that A_k or the NKA weights use are
    built.  Returns (trajectory, trace).
    """
    finite_u0(sys)
    if jac_mode not in ("mean_jacobian", "jacobian_of_mean"):
        raise ValueError(f"unknown jac_mode {jac_mode!r}")
    # the n_t Jacobians of the iterate feed the mean and the online weights
    per_point = jac_mode == "mean_jacobian" or (nka and nka_weights_vec is None)
    if isinstance(time_disc, GeometricTimeMesh):
        B = be_time_matrix(time_disc)
        times = time_disc.times[1:]
        b = np.zeros((time_disc.n_t, sys.n))
        b[0] = sys.u0 / time_disc.dts[0]
    else:
        tag, dt, n_t = time_disc
        if tag != "bvm":
            raise ValueError("time_disc must be a GeometricTimeMesh or ('bvm', dt, n_t)")
        B = bvm_time_matrix(n_t, dt)
        times = dt * np.arange(1, n_t + 1)
        b = np.zeros((n_t, sys.n))
        b[0] = sys.u0 / (2.0 * dt)
    n_t = B.shape[0]

    def nka_eig(phi):
        M = np.linalg.solve(B, np.diag(phi))
        lam, V = np.linalg.eig(M)
        return M, lam, V, float(np.linalg.cond(V))

    if not nka:
        lam, V = np.linalg.eig(B)
    elif nka_weights_vec is not None:
        # offline weights: M = B^-1 diag(phi) is the same every iteration
        M, lam, V, cond_V = nka_eig(nka_weights_vec)

    trace = IterationTrace(method="paradiag1_quasi_newton")
    U = np.tile(sys.u0, (n_t, 1))
    bad_steps = 0
    for it in range(max_iter):
        F = np.stack([sys.f(U[n], times[n]) for n in range(n_t)])
        jacobians = [sys.jacobian(U[n]) for n in range(n_t)] if per_point else None
        if jac_mode == "mean_jacobian":
            A_k = _banded_mean(jacobians)
        else:
            A_k = sys.jacobian(U.mean(axis=0))
        AU = np.stack([A_k.matvec(U[n]) for n in range(n_t)])

        if nka:
            if nka_weights_vec is None:
                M, lam, V, cond_V = nka_eig(nka_weights(jacobians, A_k))
            # (I - B^-1 Phi (x) A_k) U+ = B^-1 (b + F(U)) - (B^-1 Phi (x) A_k) U
            rhs = np.linalg.solve(B, b + F) - M @ AU
            U_next = _eig_solve(A_k, V, np.ones(n_t), lam, rhs)
            trace.meta.setdefault("cond_V", []).append(cond_V)
        else:
            U_next = _eig_solve(A_k, V, lam, np.ones(n_t), b - (AU - F))

        update = np.abs(U_next - U).max() / max(np.abs(U_next).max(), 1e-300)
        err = None
        if reference is not None:
            err = np.abs(U_next - reference[1:]).max()
        trace.record(error=err if err is not None else update, residual=update)
        if update > 1.0:
            bad_steps += 1
            if bad_steps >= 3:
                raise QuasiNewtonStagnation("relative update exceeded 1 three times")
        else:
            bad_steps = 0
        U = U_next
        if update <= tol:
            break
    return np.vstack([sys.u0, U]), trace


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


def make_all_at_once(sys, integrator, dt, n_t, gamma: float = 1.0 / 120.0):
    """Assemble the all-at-once operator for paradiag2_solve and tests."""
    if getattr(sys, "order", "first") == "second":
        return NumerovAllAtOnce(sys, gamma, dt, n_t)
    return AllAtOnce(sys, named_theta(integrator), dt, n_t)


def _preconditioned(sys, integrator, alpha, dt, n_t, gamma):
    """(op, b, solve, corner): the operator K, its right-hand side,
    R -> P_alpha^-1 R and U -> (P_alpha - K) U, where P_alpha takes the
    alpha-circulant C_alpha(c) for each Toeplitz time matrix T(c) of K.
    Fourier mode n of P_alpha is the block d1[n] r1 - d2[n] r2."""
    op = make_all_at_once(sys, integrator, dt, n_t, gamma=gamma)
    b = op.rhs()
    fac, fac2 = (alpha_circulant_factor(c, alpha) for c in op.time_columns)
    d1, d2 = fac.eigenvalues, fac2.eigenvalues
    # block coefficients of A^j: (d1 r1_j - d2 r2_j) tau^j
    coeffs = [(d1 * p - d2 * q) * op.tau**j for j, (p, q) in enumerate(zip(*op.polys))]
    if len(coeffs) == 2:  # linear: one batched shift plan, else a solve per mode
        block_solve = sys.shift_plan(coeffs[0], -coeffs[1]).solve
    else:
        def block_solve(Ra):
            return np.stack([solve_poly_in_matrix(sys.A, tuple(c[n] for c in coeffs), Ra[n])
                             for n in range(n_t)])

    def solve(R):
        return fac.from_eigenbasis(block_solve(fac.to_eigenbasis(R.astype(complex))))

    try:
        solve(b)  # fail fast on singular blocks
    except SingularSystemError as exc:
        raise SingularSystemError(
            f"alpha={alpha} preconditioner is singular for this operator") from exc

    def corner(U):
        # C_alpha(c) - T(c) holds alpha c[lag] at row i < lag, column i + n_t - lag
        out = np.full_like(U, -0.0)
        for lag, c, p in op.lag_terms():
            if lag:
                out[:lag] += alpha * c * op.time_rows_poly(p, U[n_t - lag:])
        return out

    return op, b, solve, corner


def dense_preconditioned_operator(sys, integrator: str, alpha: float, dt: float, n_t: int,
                                  gamma: float = 1.0 / 120.0) -> np.ndarray:
    """Dense P_alpha^-1 K from the operator's own ``apply`` and the
    preconditioner solve (:func:`kernels.dense_of`), for spectral checks."""
    op, _, solve, _ = _preconditioned(sys, integrator, alpha, dt, n_t, gamma)
    return dense_of(lambda X: solve(op.apply(X)).real, (n_t, sys.n))


def paradiag2_solve(sys, integrator: str, alpha: float, dt: float, n_t: int,
                    mode: str = "stationary", gamma: float = 1.0 / 120.0,
                    tol: float = 1e-10, max_iter: Optional[int] = None,
                    implementation: str = "increment",
                    reference: Optional[np.ndarray] = None, u_init=None):
    """All-at-once solve with the alpha-circulant preconditioner.

    mode='stationary' iterates P_alpha dU = b - K U; mode='gmres' runs
    right-preconditioned GMRES with the same preconditioner application.
    ``implementation`` picks the increment form (default, roundoff-friendly)
    or the direct form that rebuilds the head-tail right-hand side each
    sweep.  Returns (trajectory including initial row, trace).
    """
    if mode not in ("stationary", "gmres"):
        raise ValueError(f"unknown mode {mode!r}")
    if implementation not in ("increment", "direct"):
        raise ValueError(f"unknown implementation {implementation!r}")
    if max_iter is not None and max_iter < 0:
        raise ValueError(f"need max_iter >= 0, got {max_iter}")
    op, b, solve, corner = _preconditioned(sys, integrator, alpha, dt, n_t, gamma)

    trace = IterationTrace(method=f"paradiag2_{mode}")
    n = b.shape[1]
    if max_iter is None:
        max_iter = 200 if mode == "gmres" else 100
    if mode == "gmres":
        flat_apply = lambda x: op.apply(x.reshape(n_t, n)).ravel()
        flat_prec = lambda x: solve(x.reshape(n_t, n)).ravel()
        x, hist = gmres(flat_apply, b.ravel().astype(complex), apply_right_prec=flat_prec,
                        tol=tol, max_iter=max_iter)
        U = x.reshape(n_t, n).real
        for r in hist:
            trace.record(residual=r)
    else:
        U = np.zeros_like(b) if u_init is None else u_init.copy()
        bnorm = max(np.abs(b).max(), 1e-300)
        for _ in range(max_iter):
            if implementation == "increment":
                r = b - op.apply(U)
                U = U + solve(r).real
                resid = np.abs(r).max()
            else:
                U = solve(corner(U) + b).real
                resid = np.abs(b - op.apply(U)).max()
            err = None if reference is None else np.abs(U - reference).max()
            trace.record(error=err if err is not None else resid / bnorm,
                         residual=resid / bnorm)
            if resid / bnorm <= tol:
                break

    return np.vstack([sys.u0, U]), trace
