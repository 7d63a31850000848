"""Time integrators and the coarse/fine propagator abstraction.

One-step methods (backward Euler, trapezoidal and SDIRK22) step
first-order systems; the Numerov-type method, with
gamma = :data:`NUMEROV_GAMMA`, steps second-order systems directly.  ``Propagator``
bundles a method with a step size and step count and is the building block
every shooting-type method composes.  ``AllAtOnce``, the all-at-once
operator K = T(c1) (x) r1(tau A) - T(c2) (x) r2(tau A) given by its data,
is the theta system that space-time multigrid and ParaDiag II both solve;
``NumerovAllAtOnce`` puts the Numerov pair in the same form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .kernels import EXPM_DENSE_MAX, ConvergenceError, QuadraticPlan, solve_shifted_banded
from .models import CompanionSystem, SemiDiscreteSystem

SQRT2 = np.sqrt(2.0)
NUMEROV_GAMMA = 1.0 / 120.0  # the Numerov-type method's dt^4 A^2 coefficient
NEWTON_TOL = 1e-12  # residual tolerance of every Newton solve, relative to max|y|


@dataclass(frozen=True)
class OneStepMethod:
    name: str
    theta: Optional[float] = None
    # SDIRK data: diagonal gamma, subdiagonal a21, weights (b1, b2)
    gamma: Optional[float] = None
    a21: Optional[float] = None
    b: Optional[tuple] = None

    def __str__(self):
        return self.name


def backward_euler() -> OneStepMethod:
    return OneStepMethod("backward_euler", theta=1.0)


def trapezoidal() -> OneStepMethod:
    return OneStepMethod("trapezoidal", theta=0.5)


def sdirk22() -> OneStepMethod:
    g = (2.0 - SQRT2) / 2.0
    return OneStepMethod("sdirk22", gamma=g, a21=1.0 - g, b=(1.0 - g, g))


METHODS = {
    "backward_euler": backward_euler,
    "trapezoidal": trapezoidal,
    "sdirk22": sdirk22,
}


def named_theta(name: str) -> float:
    """Theta of the one-step method called ``name`` in :data:`METHODS`."""
    theta = METHODS[name]().theta if name in METHODS else None
    if theta is None:
        raise ValueError(f"integrator {name!r} is not a theta method")
    return theta


def stability(method: OneStepMethod, z):
    """Stability function R(z); accepts scalars or arrays."""
    z = np.asarray(z)
    if method.theta is not None:
        th = method.theta
        den = 1.0 - th * z
        if np.any(den == 0):
            raise ZeroDivisionError("stability function pole")
        return (1.0 + (1.0 - th) * z) / den
    g, a21, (b1, b2) = method.gamma, method.a21, method.b
    den = 1.0 - g * z
    if np.any(den == 0):
        raise ZeroDivisionError("stability function pole")
    k1 = z / den
    k2 = z * (1.0 + a21 * k1) / den
    return 1.0 + b1 * k1 + b2 * k2


@dataclass(frozen=True)
class TimeGrid:
    """Window boundaries T_0 < ... < T_{N_t}."""

    boundaries: np.ndarray

    @classmethod
    def uniform(cls, T: float, n_windows: int) -> "TimeGrid":
        for name, value in (("T", T), ("n_windows", n_windows)):
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not isinstance(n_windows, (int, np.integer)):
            raise ValueError(f"n_windows must be an integer, got {n_windows!r}")
        return cls(np.linspace(0.0, T, n_windows + 1))

    @property
    def n_windows(self) -> int:
        return self.boundaries.shape[0] - 1

    def window(self, i: int):
        return float(self.boundaries[i]), float(self.boundaries[i + 1])

    def window_length(self, i: int = 0) -> float:
        return float(self.boundaries[i + 1] - self.boundaries[i])

    def spanned_by(self, prop: Propagator) -> bool:
        """Whether ``prop`` steps across every window (to 1e-12 relative)."""
        spans = np.diff(self.boundaries)
        return bool(np.all(np.abs(spans - prop.span()) <= 1e-12 * np.maximum(1.0, spans)))


@dataclass(frozen=True)
class Propagator:
    """A named one-step integrator applied for ``steps`` steps of size ``dt``."""

    method: OneStepMethod
    dt: float
    steps: int

    def __post_init__(self):
        if not self.dt > 0 or self.steps < 1:
            raise ValueError("need dt > 0 and steps >= 1")
        if not isinstance(self.steps, (int, np.integer)):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")

    def span(self) -> float:
        return self.dt * self.steps


def _newton(sys, c, rhs, ts, guess, max_iter=50):
    """Solve y_j - c*f(y_j, ts[j]) = rhs_j by Newton for every column j of
    an (n, k) block, all columns in step; ``ts`` may be one time for all.
    An (n,) vector is one column, and a block of one is solved as one.

    Each iteration evaluates f and the Jacobians once on the active columns,
    stacks the systems (I - c J_j) into one band with zero coupling and
    solves them by one factorization (:func:`solve_shifted_banded`), so each
    column's iterates equal those of its own Newton, bit for bit.  A column
    that converges is frozen and leaves the active set.  A zero pivot names
    its block by its place among the active columns; a non-finite iterate,
    or a column still active after ``max_iter`` iterations, raises
    ConvergenceError.
    """
    if guess.ndim == 2 and guess.shape[1] == 1:
        return _newton(sys, c, rhs[:, 0], np.ravel(ts)[0], guess[:, 0], max_iter)[:, None]
    Y = y = guess.copy()
    width = Y.shape[1:]  # (k,) for a block, () for a vector
    # the active columns, with their right-hand sides, times and shifts (a, b) = (1, c)
    cols, r, t, a, b = ((np.arange(width[0]), rhs, np.full(width, ts), np.ones(width),
                         np.full(width, c)) if width else (slice(None), rhs, ts, 1.0, c))
    for _ in range(max_iter):
        res = y - c * sys.f(y, t) - r
        done = np.abs(res).max(axis=0) <= NEWTON_TOL * np.abs(y).max(axis=0, initial=1.0)
        n_done = np.count_nonzero(done)
        if n_done:
            Y.T[cols] = y.T  # the converged columns keep these values
            if n_done == done.size:
                return Y
            cols, y, r, t, a, b, res = (v[..., ~done] for v in (cols, y, r, t, a, b, res))
        y = y - solve_shifted_banded(sys.jacobian(y), (a, b), res.T).T
        if not np.isfinite(y).all():
            raise ConvergenceError("Newton iterate became non-finite")
    raise ConvergenceError("Newton did not converge")


def _step_linear_block(method, sys, plan, dt, U, g):
    """One step of ``method`` on the linear system for a block of states.

    ``U`` is (n, k).  ``plan`` is the system's shift plan for the step's
    implicit solves (see :func:`propagate_block`), so one factorization
    serves every column and every step, and the step is a pure map over
    columns.
    ``g`` holds the source values of a theta step, (n, 2, k), or (n, 1, k)
    for backward Euler, at the times :func:`_source_times` gives:
    ``g[:, i, j]`` is time i of column j.  It is None for a system without a
    source.
    """
    if method.theta is not None:
        th = method.theta
        # backward Euler (theta = 1) has no explicit term: skip its 0*A U and
        # its 0*g at the step start
        rhs = U if th == 1.0 else U + (1.0 - th) * dt * sys.matvec(U)
        if g is not None:
            rhs = rhs + dt * (g[:, 0] if th == 1.0 else (1.0 - th) * g[:, 0] + th * g[:, 1])
        return plan.solve(rhs)
    b1, b2 = method.b
    rhs1 = sys.matvec(U)
    k1 = plan.solve(rhs1)
    y2 = U + dt * method.a21 * k1
    rhs2 = sys.matvec(y2)
    k2 = plan.solve(rhs2)
    return U + dt * (b1 * k1 + b2 * k2)


def _source_times(ts, dt, theta):
    """The times at which one linear theta step from ``ts`` reads the
    source, on a new axis after the first: (ts, ts + dt), or ts + dt alone
    for backward Euler (theta = 1), whose step-start weight is 0.  ``ts`` is
    (steps, k), one row per step."""
    end = ts + dt
    return end[:, None] if theta == 1.0 else np.stack([ts, end], axis=1)


def _source_values(sys, t):
    """``sys.g(t)``, or a ValueError naming the source if its values for
    the times ``t`` do not have shape (n,) + t.shape."""
    g = sys.g(t)
    want = (sys.n,) + t.shape
    if np.shape(g) != want:
        raise ValueError(f"source {sys.source!r} gave values of shape {np.shape(g)} "
                         f"for times of shape {t.shape}; expected {want}")
    return g


def _step_nonlinear(method, sys, dt, t0s, U):
    """One step of ``method`` on the nonlinear system for a block of states
    ``U`` (n, k), column j from time t0s[j]; each Newton solve takes the
    whole block."""
    if method.theta is not None:
        th = method.theta
        rhs = U + (1.0 - th) * dt * sys.f(U, t0s)
        return _newton(sys, th * dt, rhs, t0s + dt, U)
    g, a21, (b1, b2) = method.gamma, method.a21, method.b
    t1, t2 = t0s + g * dt, t0s + (a21 + g) * dt
    y1 = _newton(sys, g * dt, U, t1, U)
    k1 = sys.f(y1, t1)
    y2 = _newton(sys, g * dt, U + dt * a21 * k1, t2, y1)
    k2 = sys.f(y2, t2)
    return U + dt * (b1 * k1 + b2 * k2)


def propagate(prop: Propagator, sys, t0: float, t1: float, u: np.ndarray) -> np.ndarray:
    """Advance ``u`` from t0 to t1 with ``prop.steps`` steps of ``prop.method``."""
    span = t1 - t0
    if abs(span - prop.span()) > 1e-12 * max(1.0, abs(span)):
        raise ValueError("propagator steps*dt does not cover the window")
    out = propagate_block(prop, sys, np.array([t0]), u[:, None])
    return out[:, 0]


SOURCE_CHUNK = 16  # steps whose source values one call evaluates


def propagate_block(prop: Propagator, sys, t0s: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Propagate a block of window states over one window each.

    Column j of ``U`` starts at t0s[j]; all windows span prop.steps*prop.dt,
    and step s of column j starts at t0s[j] + s*prop.dt.  Linear systems
    advance all columns through shared factored solves.  Only a theta
    method steps a linear system with a source (a ValueError names any
    other method); the source is evaluated by one call for every
    :data:`SOURCE_CHUNK` steps, at the times of :func:`_source_times`, and
    its values for an array of times must have shape (n,) + t.shape (a
    ValueError otherwise).  Nonlinear systems
    step all columns together, one batched Newton solve (:func:`_newton`)
    per stage.  A column's result does not depend on the other columns or
    on the chunking, bit for bit, as long as the block is at least two
    columns wide: a single column of a periodic linear system rounds
    differently in the Woodbury step.
    Parareal's fine map marches all windows as one block in every
    iteration, or multiplies by the :func:`window_matrix` where it can.
    """
    linear = getattr(sys, "linear", True)
    sourced = linear and sys.source is not None
    if sourced and prop.method.theta is None:
        raise ValueError(f"the {prop.method.name} propagator takes no source term: "
                         "step a system with a source by a theta method")
    # one shift plan, (I - theta dt A) or (I - gamma dt A), for every implicit solve
    c = prop.method.theta if prop.method.theta is not None else prop.method.gamma
    plan = sys.shift_plan(1.0, c * prop.dt) if linear else None
    W = U
    for s0 in range(0, prop.steps, SOURCE_CHUNK):
        steps = np.arange(s0, min(s0 + SOURCE_CHUNK, prop.steps))
        ts = t0s + (steps * prop.dt)[:, None]  # row i: t0s + s*dt for step s = s0 + i
        g = (_source_values(sys, _source_times(ts, prop.dt, prop.method.theta))
             if sourced else None)
        for i in range(steps.size):
            W = (_step_linear_block(prop.method, sys, plan, prop.dt, W,
                                    None if g is None else g[:, i]) if linear
                 else _step_nonlinear(prop.method, sys, prop.dt, ts[i], W))
            if not np.isfinite(W).all():
                raise ConvergenceError("propagation produced non-finite values")
    return W


def window_matrix(prop: Propagator, sys) -> Optional[np.ndarray]:
    """The n x n matrix of ``prop`` over one window of a linear system without
    a source and n <= EXPM_DENSE_MAX (None for any other): one checked step
    of :func:`propagate_block` on the identity, raised to ``prop.steps``."""
    if not getattr(sys, "linear", True) or sys.source is not None or sys.n > EXPM_DENSE_MAX:
        return None
    step = propagate_block(replace(prop, steps=1), sys, np.zeros(sys.n), np.eye(sys.n))
    return np.linalg.matrix_power(step, prop.steps)


def check_counts(**counts):
    """A ValueError naming the first of the iteration, cycle or sweep
    ``counts`` that is negative."""
    for name, value in counts.items():
        if value < 0:
            raise ValueError(f"need {name} >= 0, got {value}")


def finite_u0(sys) -> np.ndarray:
    """``sys.u0`` (or ``sys`` itself, given the initial values), or a
    ValueError if it holds NaN or inf."""
    u0 = sys.u0 if hasattr(sys, "u0") else np.asarray(sys)
    if not np.isfinite(u0).all():
        raise ValueError("initial value u0 has non-finite entries")
    return u0


def _unit_column(nt: int, *rows: int) -> np.ndarray:
    """First column of an nt x nt time matrix: ones at ``rows`` below nt."""
    return sum(np.eye(1, nt, r)[0] for r in rows)


class AllAtOnce:
    """K = T(c1) (x) r1(tau A) - T(c2) (x) r2(tau A), T(c) the lower Toeplitz
    time matrix with first column c in ``time_columns`` and r1, r2 the
    coefficient tuples in tau A of ``polys``.  This class is the theta
    method on u' = A u (c1 = e0, c2 = e1, tau = dt), the system that
    space-time multigrid and ParaDiag II both solve; a system with a source
    term is a ValueError."""

    def __init__(self, sys: SemiDiscreteSystem, theta: float, dt: float, nt: int):
        if sys.source is not None:
            raise ValueError("the all-at-once operator takes systems without a source term")
        self.sys, self.theta, self.dt, self.nt, self.tau = sys, theta, dt, nt, dt
        self.time_columns = (_unit_column(nt, 0), _unit_column(nt, 1))
        self.polys = ((1.0, -theta), (1.0, 1.0 - theta))
        self.r1_plan = sys.A.shift_plan(1.0, theta * dt)

    def poly(self, coeffs, u):
        """r(tau A) u along axis 0 of ``u``, coefficient j scaled by tau^j."""
        return apply_poly(self.sys.A, tuple(c * self.tau**j for j, c in enumerate(coeffs)), u)

    def r1(self, u):
        return self.poly(self.polys[0], u)

    def r2(self, u):
        return self.poly(self.polys[1], u)

    def lag_terms(self):
        """(lag, coefficient, polynomial) for each nonzero time-matrix entry,
        the T(c1) term before the minus-signed T(c2) term at each lag."""
        return [(lag, sign * col[lag], coeffs)
                for lag in range(self.nt)
                for sign, col, coeffs in zip((1.0, -1.0), self.time_columns, self.polys)
                if col[lag] != 0.0]

    def time_rows_poly(self, coeffs, U):
        """r(tau A) applied to each time row of a (m, n) or (m, n, k) block."""
        return self.poly(coeffs, U.swapaxes(0, 1)).swapaxes(0, 1)

    def apply(self, U):
        """K U for (nt, n) or (nt, n, k) blocks, one time lag at a time."""
        out = np.full_like(U, -0.0)  # -0.0 + x == x bit for bit, zeros included
        for lag, c, coeffs in self.lag_terms():
            out[lag:] += c * self.time_rows_poly(coeffs, U[:self.nt - lag])
        return out

    def rhs(self):
        b = np.zeros((self.nt, self.sys.n))
        b[0] = self.r2(finite_u0(self.sys))
        return b

    def solve_r1(self, rhs):
        return self.r1_plan.solve(rhs.T).T

    def forward_substitution(self, b):
        U = np.empty((self.nt, self.sys.n))
        prev = None
        for n in range(self.nt):
            r = b[n] + (self.r2(prev) if prev is not None else 0.0)
            prev = self.r1_plan.solve(r)
            U[n] = prev
        return U

    def sequential_solve(self):
        return self.forward_substitution(self.rhs())


def numerov_matrices(sys: SemiDiscreteSystem, dt: float):
    """Polynomial coefficients (in A) of the Numerov pair r1, r2, with
    gamma = :data:`NUMEROV_GAMMA`."""
    if sys.order != "second":
        raise ValueError("Numerov applies to second-order systems")
    r1 = (1.0, -dt**2 / 12.0, 10.0 * NUMEROV_GAMMA * dt**4 / 12.0)
    r2 = (2.0, 10.0 * dt**2 / 12.0, 20.0 * NUMEROV_GAMMA * dt**4 / 12.0)
    return r1, r2


def apply_poly(A, coeffs, u):
    out = coeffs[0] * u
    power = u
    for c in coeffs[1:]:
        power = A.matvec(power)
        out = out + c * power
    return out


def numerov_bootstrap(sys: SemiDiscreteSystem, dt: float) -> np.ndarray:
    """Second starting value from one trapezoidal step on the companion form."""
    finite_u0(sys)
    comp = CompanionSystem(sys)
    prop = Propagator(trapezoidal(), dt=dt, steps=1)
    w1 = propagate(prop, comp, 0.0, dt, comp.u0)
    return w1[: sys.n]


def numerov_solve(sys: SemiDiscreteSystem, dt: float, n_steps: int,
                  u1: Optional[np.ndarray] = None) -> np.ndarray:
    """Sequential Numerov trajectory (n_steps+1 rows, starting at u0): every
    step solves r1 u_{n+1} = r2 u_n - r1 u_{n-1} with one QuadraticPlan."""
    if n_steps < 1:
        raise ValueError(f"numerov_solve needs n_steps >= 1, got {n_steps}")
    out = np.empty((n_steps + 1, sys.n))
    out[0] = sys.u0
    out[1] = numerov_bootstrap(sys, dt) if u1 is None else u1
    r1, r2 = numerov_matrices(sys, dt)
    plan = QuadraticPlan(sys.A, r1)
    for n in range(1, n_steps):
        rhs = apply_poly(sys.A, r2, out[n]) - apply_poly(sys.A, r1, out[n - 1])
        out[n + 1] = plan.solve(rhs)
    return out


class NumerovAllAtOnce(AllAtOnce):
    """The Numerov pair on u'' = A u: K = T(e0 + e2) (x) r1 - T(e1) (x) r2,
    tau = 1 as :func:`numerov_matrices` carries the powers of dt.  Only its
    right-hand side and sequential solve differ from the theta operator's."""

    def __init__(self, sys: SemiDiscreteSystem, dt: float, nt: int):
        self.sys, self.dt, self.nt, self.tau = sys, dt, nt, 1.0
        self.time_columns = (_unit_column(nt, 0, 2), _unit_column(nt, 1))
        self.polys = numerov_matrices(sys, dt)
        self.u1 = numerov_bootstrap(sys, dt)

    def rhs(self):
        b = np.zeros((self.nt, self.sys.n))
        b[0] = self.r1(self.u1)
        if self.nt > 1:
            b[1] = -self.r1(finite_u0(self.sys))
        return b

    def sequential_solve(self):
        return numerov_solve(self.sys, self.dt, self.nt, self.u1)[1:]
