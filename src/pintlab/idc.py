"""Integral deferred correction and its time-parallel relatives.

IDC sweeps raise the order of backward Euler by integrating the residual
with quadrature built on the window's nodes (the M nodes excluding the
left endpoint, giving exactness degree M-1 and an order ceiling of M).
The two-level PFASST block iteration couples a backward-Euler sweep on fine
collocation nodes with a coarse-node correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrators import finite_u0
from .kernels import apply_blocks, check_counts, check_positive, dense_of
from .trace import IterationTrace

MF = 3  # Radau IIA nodes of the collocation solve and the fine level of the block iteration


def quad_weights(nodes: np.ndarray, a, b) -> np.ndarray:
    """Weights integrating the Lagrange interpolant on ``nodes`` over [a, b].

    Exact for polynomials of degree < m, the node count; computed from a
    Vandermonde system on the nodes scaled to [0, 1], for conditioning at
    small m.  Broadcasts over leading axes: ``nodes`` (..., m) with ``a``
    and ``b`` (...) gives weights (..., m), one system with one right-hand
    side per integral, all in one batched solve.
    """
    nodes = np.asarray(nodes, dtype=float)
    m = nodes.shape[-1]
    ordered = np.sort(nodes, axis=-1)  # not np.unique, which imports numpy.ma
    if not (np.isfinite(ordered).all() and np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("quadrature nodes and bounds must be finite")
    if (ordered[..., 1:] == ordered[..., :-1]).any():
        raise ValueError("quadrature nodes must be distinct")
    shift = ordered[..., 0]
    span = ordered[..., -1] - shift if m > 1 else np.ones_like(shift)
    s = (nodes - shift[..., None]) / span[..., None]
    sa, sb = (a - shift) / span, (b - shift) / span
    p = np.arange(1, m + 1)
    moments = (sb[..., None] ** p - sa[..., None] ** p) / p
    V = np.empty(s.shape + (m,))  # rows 1, s, s^2, ... as np.vander builds them
    V[..., 0] = 1.0
    V[..., 1:] = s[..., None]
    np.multiply.accumulate(V[..., 1:], out=V[..., 1:], axis=-1)
    return np.linalg.solve(V.swapaxes(-1, -2), moments[..., None])[..., 0] * span[..., None]


def idc_weights(window_nodes: np.ndarray) -> np.ndarray:
    """Panel-by-panel correction weights of IDC windows.

    ``window_nodes`` holds each window's M+1 node times t_0..t_M, shape
    (..., M+1); the quadrature interpolates through t_1..t_M, and row m
    integrates over [t_m, t_{m+1}].  Shape (..., M, M).
    """
    t = np.asarray(window_nodes, dtype=float)
    return quad_weights(t[..., None, 1:], t[..., :-1], t[..., 1:])


def radau_iia_nodes(M: int) -> np.ndarray:
    """Right Radau nodes on (0, 1] for M = 2, 3."""
    if M == 2:
        return np.array([1.0 / 3.0, 1.0])
    if M == 3:
        s = np.sqrt(6.0)
        return np.array([(4.0 - s) / 10.0, (4.0 + s) / 10.0, 1.0])
    raise ValueError(f"Radau IIA nodes tabulated for M = 2 and 3, got M={M!r}")


def collocation_matrix(nodes: np.ndarray) -> np.ndarray:
    """Q with q_{m,j} = integral_0^{tau_m} L_j(s) ds on the given nodes."""
    nodes = np.asarray(nodes, dtype=float)
    return quad_weights(nodes, 0.0, nodes)


@dataclass
class SweepState:
    """Node values of one window during correction sweeps."""

    n: int
    t_nodes: np.ndarray  # M+1 node times including the left endpoint
    values: np.ndarray  # (M+1, nx)
    k: int = 0


class _EulerNodes:
    """The backward-Euler node solves y - dtm*f(y, t_next) = rhs of one
    linear system ``sys`` (a nonlinear one is a ValueError).  It keeps the
    shift plan of each step size dtm, so one instance made per run shares
    each factorization among all the run's sweeps."""

    def __init__(self, sys):
        if not sys.linear:
            raise ValueError("IDC sweeps only linear systems")
        self.sys = sys
        self.plans = {}

    def __call__(self, dtm, t_next, rhs):
        sys = self.sys
        plan = self.plans.get(dtm)
        if plan is None:
            plan = self.plans[dtm] = sys.A.shift_plan(1.0, dtm)
        extra = dtm * (sys.source(t_next) if sys.source is not None else 0.0)
        return plan.solve(rhs + extra)


def idc_sweep(state: SweepState, nodes: _EulerNodes, weights: np.ndarray) -> SweepState:
    """One left-to-right backward-Euler correction sweep over the window,
    with the node solves of ``nodes`` (which carries the system)."""
    sys = nodes.sys
    t = state.t_nodes
    M = t.shape[0] - 1
    old = state.values
    f_old = sys.f(old.T, t).T
    dts = t[1:] - t[:-1]
    new = np.empty_like(old)
    new[0] = old[0]
    for m in range(M):
        rhs = new[m] - dts[m] * f_old[m + 1] + weights[m] @ f_old[1:]
        new[m + 1] = nodes(dts[m], t[m + 1], rhs)
    return SweepState(n=state.n, t_nodes=t, values=new, k=state.k + 1)


def idc_run(sys, T, n_windows, M, k_corrections):
    """Windowed IDC of a linear system: a backward-Euler predictor plus
    k_corrections sweeps per window.
    Each window starts from the constant guess at its predecessor's final
    endpoint value (u0 for the first), so the predictor sweep reduces to
    plain backward Euler.

    Returns (window node times, per-window per-sweep node values,
    endpoint array indexed [sweep, boundary])."""
    check_counts(1, n_windows=n_windows, M=M)
    check_counts(0, k_corrections=k_corrections)
    check_positive(T=T)
    finite_u0(sys)
    nodes = _EulerNodes(sys)
    k_sweeps = k_corrections + 1
    boundaries = np.linspace(0.0, T, n_windows + 1)
    windows = []  # windows[n][k] = node values of window n after sweep k+1
    endpoints = np.full((k_sweeps + 1, n_windows + 1, sys.n), np.nan)
    endpoints[:, 0] = sys.u0
    window_nodes = [
        np.linspace(boundaries[n], boundaries[n + 1], M + 1) for n in range(n_windows)
    ]
    weights = idc_weights(np.stack(window_nodes))
    ic = sys.u0
    for n in range(n_windows):
        state = SweepState(n=n, t_nodes=window_nodes[n], values=np.tile(ic, (M + 1, 1)))
        sweeps_here = []
        for k in range(1, k_sweeps + 1):
            state = idc_sweep(state, nodes, weights[n])
            sweeps_here.append(state.values)
            endpoints[k, n + 1] = state.values[-1]
        windows.append(sweeps_here)
        ic = sweeps_here[-1][-1]
    return window_nodes, windows, endpoints


# ---------------------------------------------------------------------------
# two-level PFASST block iteration (linear systems)
# ---------------------------------------------------------------------------


def lagrange_transfer(from_nodes: np.ndarray, to_nodes: np.ndarray) -> np.ndarray:
    """Interpolation matrix evaluating the from-node Lagrange basis at
    to_nodes."""
    out = np.empty((to_nodes.shape[0], from_nodes.shape[0]))
    for j in range(from_nodes.shape[0]):
        others = np.delete(from_nodes, j)
        denom = np.prod(from_nodes[j] - others)
        for i, t in enumerate(to_nodes):
            out[i, j] = np.prod(t - others) / denom
    return out


def _collocation_sources(sys, dt, n_windows, nodes, Q):
    """dt-free source terms (Q (x) I) g of every window, node blocks
    (M, n, n_windows); zero without a source."""
    if sys.source is None:
        return np.zeros((nodes.shape[0], sys.n, n_windows))
    G = sys.source((np.arange(n_windows) + nodes[:, None]) * dt)  # (n, M, n_windows)
    return _mix_nodes(Q, G.swapaxes(0, 1))


def _mix_nodes(P, U):
    """(P (x) I) U for node blocks U of shape (M, n) or (M, n, k)."""
    return (P @ U.reshape(P.shape[1], -1)).reshape((P.shape[0],) + U.shape[1:])


def _node_solver(sys, Q, dt):
    """Solver of (I - dt Q (x) A) U = R for node blocks R, (M, n) or
    (M, n, k): Q = V D V^-1 leaves M shifted solves (I - dt d_m A) y_m =
    (V^-1 R)_m, one complex shift plan, and U = V Y."""
    d, V = np.linalg.eig(Q)
    V_inv = np.linalg.inv(V)
    plan = sys.shift_plan(np.ones(d.shape[0]), dt * d)
    return lambda R: _mix_nodes(V, plan.solve(_mix_nodes(V_inv, R))).real


def _euler_sweeper(sys, nodes, dt):
    """Solver of the implicit-Euler sweep (L (x) I - dt diag(delta) (x) A) U
    = R, L = I - (subdiagonal ones), delta the node spacings: forward
    substitution with one shift plan per node."""
    plans = [sys.shift_plan(1.0, dt * delta) for delta in np.diff(nodes, prepend=0.0)]

    def sweep(R):
        U = np.empty_like(R)
        prev = 0.0
        for m, plan in enumerate(plans):
            U[m] = prev = plan.solve(R[m] + prev)
        return U

    return sweep


def collocation_solve(sys, dt: float, n_windows: int) -> np.ndarray:
    """Sequential Radau-IIA collocation with :data:`MF` nodes per window of
    length dt, the fixed point of the PFASST block iteration.

    Each window solves (I - dt Q (x) A) U = (u_start, ..., u_start) + dt b
    for its node values (by :func:`_node_solver`).  Linear systems only;
    returns the window endpoints, shape (n_windows + 1, n).
    """
    check_positive(dt=dt)
    check_counts(1, n_windows=n_windows)
    if not sys.linear:
        raise ValueError("the collocation solve is assembled for linear systems")
    u0 = finite_u0(sys)
    nodes = radau_iia_nodes(MF)
    Q = collocation_matrix(nodes)
    solve = _node_solver(sys, Q, dt)
    b = dt * _collocation_sources(sys, dt, n_windows, nodes, Q)
    out = np.empty((n_windows + 1, sys.n))
    out[0] = u0
    for w in range(n_windows):
        out[w + 1] = solve(out[w] + b[:, :, w])[-1]
    return out


def _two_level(sys, dt, Mc, identity_transfers, sweeper_exact):
    """The block iteration's maps of node blocks (MF, n) or (MF, n, k) on
    Radau IIA nodes: phi_f, the sweeper's phi~^-1 and the coarse correction
    Tcf phi_c^-1 Tfc (the identity transfers are Mc == MF)."""
    if not sys.linear:
        raise ValueError("the block iteration is assembled for linear systems")
    if identity_transfers and Mc != MF:
        raise ValueError(f"identity transfers need Mf == Mc, and Mf = {MF}")
    nodes_f, nodes_c = radau_iia_nodes(MF), radau_iia_nodes(Mc)
    Qf = collocation_matrix(nodes_f)
    Tcf, Tfc = lagrange_transfer(nodes_c, nodes_f), lagrange_transfer(nodes_f, nodes_c)
    coarse = _node_solver(sys, collocation_matrix(nodes_c), dt)
    sweep = _node_solver(sys, Qf, dt) if sweeper_exact else _euler_sweeper(sys, nodes_f, dt)

    def phi_f(U):
        return U - dt * _mix_nodes(Qf, apply_blocks(sys, U))

    def correct(R):
        return _mix_nodes(Tcf, coarse(_mix_nodes(Tfc, R)))

    return phi_f, sweep, correct


def dense_pfasst_b10(sys, dt: float, Mc: int = 2, identity_transfers: bool = False,
                     sweeper_exact: bool = False) -> np.ndarray:
    """Dense B10: one block iteration on one window with zero right-hand
    sides, by :func:`kernels.dense_of`.  ``identity_transfers`` with Mc ==
    :data:`MF` and ``sweeper_exact`` is the exact-solve case, B10 = 0."""
    phi_f, sweep, correct = _two_level(sys, dt, Mc, identity_transfers, sweeper_exact)

    def iteration(U):
        S = U - sweep(phi_f(U))
        return S - correct(phi_f(S))

    return dense_of(iteration, (MF, sys.n))


def pfasst_two_level(sys, n_windows: int, dt: float, k_max: int,
                     Mc: int = 2, identity_transfers: bool = False,
                     sweeper_exact: bool = False,
                     reference: Optional[np.ndarray] = None):
    """Two-level PFASST block iteration over pipelined windows.

    An iteration is the operational form of U_w <- B10 U_w + B01 rhs_new
    + B00 rhs_old: the fine sweep S_w = U_w + phi~^-1 (rhs_old - phi_f U_w),
    on all windows at once, then U_w = S_w + T_cf phi_c^-1 T_fc (rhs_new -
    phi_f S_w), pipelined, one node solve per window.

    Linear systems only.  Returns (endpoint trajectory, trace); the trace
    records the max window-endpoint error per iteration against
    ``reference`` (falling back to :func:`collocation_solve`, the
    iteration's fixed point).
    """
    check_positive(dt=dt)
    check_counts(1, n_windows=n_windows)
    check_counts(0, k_max=k_max)
    phi_f, sweep, correct = _two_level(sys, dt, Mc, identity_transfers, sweeper_exact)
    u0 = finite_u0(sys)
    nodes_f = radau_iia_nodes(MF)
    b = dt * _collocation_sources(sys, dt, n_windows, nodes_f, collocation_matrix(nodes_f))
    if reference is None:
        reference = collocation_solve(sys, dt, n_windows)

    def ends(U):
        return np.vstack([u0, U[-1].T])

    # node blocks (MF, n, n_windows): U[m, :, w] is node m of window w
    U = np.broadcast_to(u0[:, None], (MF, sys.n, n_windows))
    trace = IterationTrace(method="pfasst_two_level")
    trace.record(error=np.abs(ends(U) - reference).max())
    for _ in range(k_max):
        starts_old = np.column_stack([u0, U[-1, :, :-1]])
        U = U + sweep(starts_old + b - phi_f(U))
        resid = b - phi_f(U)
        start = u0
        for w in range(n_windows):
            U[:, :, w] += correct(resid[:, :, w] + start)
            start = U[-1, :, w]
        trace.record(error=np.abs(ends(U) - reference).max())
    return ends(U), trace
