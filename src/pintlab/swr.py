"""Schwarz waveform relaxation on space-time subdomains.

Advection-diffusion uses backward Euler in time with Dirichlet or
optimized Robin transmission conditions at the interfaces; the wave
equation uses leapfrog at unit CFL (so the discrete domain of dependence
matches the physical cone and convergence is finite), including the
red-black tent-pitching schedule.

All subdomain solves within one sweep read only previous-iterate traces
(Jacobi ordering), so both equations march their subdomains as one stack
(:class:`_Stack`): the subdomains are laid end to end in one vector whose
boundary rows take the interface data.  For advection-diffusion the stack
is one tridiagonal system, factored once and marched with one banded solve
per time step.  That system is linear and time-invariant, so one march on
3 columns gives its free response and the impulse response of every
interface input, and each sweep is a convolution of the interface data
with them (by FFT).  For the wave equation each sweep, and each tent
colour, is one leapfrog march of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .integrators import finite_u0
from .kernels import ConvergenceError, StackedTridiagonalLU, check_counts, check_positive
from .trace import IterationTrace

Y_CRITICAL = 1.618386576
OSWR_TOL = 1e-8  # interface error against the oracle at which oswr_solve_ad stops
OSWR_MAX_SWEEPS = 2000  # sweeps after which oswr_solve_ad gives up short of OSWR_TOL


@dataclass(frozen=True)
class Subdomain:
    lo: int  # global index of the left boundary node
    hi: int  # global index of the right boundary node (inclusive)


@dataclass
class Decomposition1D:
    """Uniform multi-subdomain overlapping decomposition of a 1D grid.

    ``overlap_cells`` is the number of grid cells two neighbours share;
    transmission condition is 'dirichlet' or 'robin' (with a finite
    parameter p > 0).
    """

    subdomains: list
    tc: str = "dirichlet"
    p: float = np.inf

    def __post_init__(self):
        subs = self.subdomains
        if not subs:
            raise ValueError("decomposition has no subdomains")
        if any(sub.hi <= sub.lo for sub in subs):
            raise ValueError("every subdomain needs at least 2 nodes")
        if self.tc not in ("dirichlet", "robin"):
            raise ValueError(f"transmission condition must be 'dirichlet' or 'robin', "
                             f"got {self.tc!r}")
        if self.tc == "robin":
            check_positive(p=self.p)
        if self.tc == "robin" and any(a.hi - b.lo < 2 for a, b in zip(subs[:-1], subs[1:])):
            # the one-sided Robin difference reads 3 nodes of each neighbour
            raise ValueError("Robin transmission needs an overlap of at least 2 cells")

    @classmethod
    def uniform(cls, n_nodes: int, n_sub: int, overlap_cells: int,
                tc: str = "dirichlet", p: float = np.inf) -> "Decomposition1D":
        check_counts(1, overlap_cells=overlap_cells)
        cuts = np.linspace(0, n_nodes - 1, n_sub + 1).round().astype(int)
        half = overlap_cells / 2.0
        subs = []
        for i in range(n_sub):
            lo = max(0, int(cuts[i] - np.floor(half)))
            hi = min(n_nodes - 1, int(cuts[i + 1] + np.ceil(half)))
            subs.append(Subdomain(lo, hi))
        for a, b in zip(subs[:-1], subs[1:]):
            if a.hi - b.lo < overlap_cells:
                raise ValueError("subdomains do not overlap sufficiently")
        return cls(subdomains=subs, tc=tc, p=p)


def robin_p_star(l: float, nu: float, T: float, dt: float):
    """Optimized Robin parameter for two-subdomain advection-diffusion SWR.

    Returns ``(p_star, rho_bound)``: the optimized parameter and the
    convergence-factor bound at the estimated worst frequency.  The scalar
    nonlinear equations are solved by safeguarded bisection to 1e-12.
    """
    check_positive(l=l, nu=nu, T=T, dt=dt)
    y0 = l / nu

    def R0(y, p):
        return ((y - p) ** 2 + y * y - y0 * y0) / ((y + p) ** 2 + y * y - y0 * y0) * np.exp(-y)

    def ybar(p):
        inner = p * (-(p**3) - 4 * p * p + (4 + 2 * y0 * y0) * p + 8 * y0 * y0)
        return np.sqrt((y0 * y0 + 2 * p + np.sqrt(max(inner, 0.0))) / 2.0)

    if y0 < Y_CRITICAL:
        fn = lambda p: R0(y0, p) - R0(ybar(p), p)
    else:
        fn = lambda p: y0 - p * np.sqrt(p / (4.0 + p))
    p_star_t = _bisect(fn, 1e-8, 1e8)
    rho_bound = R0(ybar(p_star_t), p_star_t)
    return p_star_t * nu / l, rho_bound


def _bisect(fn, lo, hi, tol=1e-12, max_iter=200):
    flo, fhi = fn(lo), fn(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise ValueError("bisection bracket failure")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0 or (hi - lo) <= tol * max(1.0, abs(mid)):
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def robin_trace(values, j, p, dx, side):
    """(1/p) du/dx +/- u at node j with the second-order one-sided
    difference; ``side='right'`` uses backward points, 'left' forward."""
    if side == "right":
        d = (1.5 * values[:, j] - 2.0 * values[:, j - 1] + 0.5 * values[:, j - 2]) / dx
        return d / p + values[:, j]
    d = (-1.5 * values[:, j] + 2.0 * values[:, j + 1] - 0.5 * values[:, j + 2]) / dx
    return d / p - values[:, j]


class _Stack:
    """Subdomains laid end to end in one stacked vector.

    Subdomain i holds its global nodes ``subs[i].lo..subs[i].hi`` at the
    stacked rows ``lo[i]..hi[i]``, and ``index`` is the global node of
    every row.  ``rows`` lists every left boundary row, then every right
    one: the order of a march's boundary data ``data[m]``.  ``to_left[i]`` is the
    row, inside subdomain i, of subdomain i+1's left boundary node (the
    trace i+1 reads) and ``to_right[i]`` the row, inside i+1, of i's right
    boundary node; ``nodes`` are their global nodes, to_left's first.
    Where subdomains overlap the later one owns a node, and :meth:`write`
    copies each node of the global trajectory from its owner.
    """

    def __init__(self, subs):
        glo = np.array([sub.lo for sub in subs], dtype=int)
        ghi = np.array([sub.hi for sub in subs], dtype=int)
        sizes = ghi - glo + 1
        self.hi = np.cumsum(sizes) - 1
        self.lo = self.hi - sizes + 1
        self.rows = np.concatenate((self.lo, self.hi))
        self.to_left = self.lo[:-1] + glo[1:] - glo[:-1]
        self.to_right = self.lo[1:] + ghi[:-1] - glo[1:]
        self.nodes = np.concatenate((glo[1:], ghi[:-1]))
        self.index = np.arange(sizes.sum()) + np.repeat(glo - self.lo, sizes)
        # subdomain i owns its nodes left of subdomain i+1's first one
        owned = np.append(np.minimum(glo[1:] - glo[:-1], sizes[:-1]), sizes[-1:])
        self._runs = list(zip(self.lo, self.lo + owned, glo))

    def random_data(self, n_steps, seed):
        """Boundary data for steps 0..n_steps: standard normal (from
        ``seed``) on every interface row after step 0, zero elsewhere."""
        n_sub = len(self.lo)
        rng = np.random.default_rng(seed)
        data = np.zeros((n_steps + 1, 2 * n_sub))
        data[1:, 1:n_sub] = rng.standard_normal((n_sub - 1, n_steps + 1))[:, 1:].T
        data[1:, n_sub:-1] = rng.standard_normal((n_sub - 1, n_steps + 1))[:, 1:].T
        return data

    def write(self, glob, sol):
        """Copy the owned rows of the stacked trajectory ``sol`` into the
        first steps of the global trajectory ``glob``."""
        for a, b, g in self._runs:
            glob[: sol.shape[0], g : g + b - a] = sol[:, a:b]


class _AdSolver(_Stack):
    """Backward-Euler space-time solve on a stack of subdomains with TC rows.

    The interior stencil discretizes u_t + u_x - nu u_xx = 0; interface
    rows carry either a Dirichlet trace or the Robin operator
    (1/p) du/dn + u with a second-order one-sided difference, matched
    against the neighbour's previous trace.  ``robin`` gives each
    subdomain's (left, right) Robin flags; every other boundary row is
    Dirichlet.  A Robin row's third entry lies outside the tridiagonal
    band; one row operation against the neighbouring interior row removes
    it (and is repeated on the right-hand side every step).  All
    subdomain matrices are stacked into one tridiagonal system, factored
    once, so each time step of every subdomain is a single banded solve.
    """

    def __init__(self, subs, nu, dx, dt, p=np.inf, robin=None):
        super().__init__(subs)
        self.dt = dt
        adv = 1.0 / (2 * dx)
        dif = nu / dx**2
        blocks, fac = [], []
        for n, (rob_l, rob_r) in zip(self.hi - self.lo + 1, robin or [(False, False)] * len(subs)):
            lower = np.full(n - 1, -adv - dif)
            diag = np.full(n, 1.0 / dt + 2 * dif)
            upper = np.full(n - 1, adv - dif)
            diag[[0, -1]] = 1.0
            upper[0] = lower[-1] = 0.0
            f_l = f_r = 0.0
            if (rob_l or rob_r) and adv == dif:
                raise ValueError("Robin rows need a nonzero interior coupling (cell Peclet number 2)")
            if rob_l:
                f_l = -0.5 / (p * dx) / upper[1]
                diag[0] = -1.5 / (p * dx) - 1.0 - f_l * lower[0]
                upper[0] = 2.0 / (p * dx) - f_l * diag[1]
            if rob_r:
                f_r = 0.5 / (p * dx) / lower[-2]
                diag[-1] = 1.5 / (p * dx) + 1.0 - f_r * upper[-1]
                lower[-1] = -2.0 / (p * dx) - f_r * diag[-2]
            blocks.append((lower, diag, upper))
            fac.append((f_l, f_r))
        self.nbr = np.concatenate((self.lo + 1, self.hi - 1))
        self.fac = np.array(fac).T.ravel()
        self.robin = bool(self.fac.any())
        self.lu = StackedTridiagonalLU(blocks, label="SWR subdomain system")

    def solve(self, u0, data, cols=None):
        """March BE from the stacked state u0, of shape (N,) or a block
        (N, k).  ``data[m]`` holds the boundary-row values at step m: every
        left row, then every right row (with a trailing k axis for a
        block).  With ``cols``, only those stacked columns are kept."""
        n_steps = data.shape[0] - 1
        keep = slice(None) if cols is None else cols
        fac = self.fac.reshape((-1,) + (1,) * (u0.ndim - 1))
        out = np.empty((n_steps + 1,) + u0[keep].shape)
        out[0] = u0[keep]
        u = u0
        for m in range(1, n_steps + 1):
            rhs = u / self.dt
            if self.robin:
                rhs[self.rows] = data[m] - fac * rhs[self.nbr]
            else:
                rhs[self.rows] = data[m]
            u = self.lu.solve(rhs, overwrite=True)
            out[m] = u[keep]
        return out

    def responses(self, u0, n_steps, cols):
        """The free response of the march from the stacked state u0 (zero
        boundary data), shape (n_steps + 1, len(cols)), and each interface
        input's response to a unit value at step 1, shape
        (n_steps, len(cols), 2 n_sub - 2) over steps 1..n_steps; input j is
        boundary-data row j + 1.  Both are kept only at the stacked columns
        ``cols``.

        One march on 3 columns gives them all: the free response, a unit
        value on every left interface row at once, and on every right one.
        No subdomain has two left or two right inputs, and each block of
        the stack is marched as if alone (bit for bit), so an input's
        response is its colour's column inside its own subdomain and zero
        outside it.
        """
        n_sub = len(self.lo)
        block = np.zeros((u0.shape[0], 3))
        block[:, 0] = u0
        unit = np.zeros((n_steps + 1, 2 * n_sub, 3))
        unit[1, 1:n_sub, 1] = unit[1, n_sub:-1, 2] = 1.0
        packed = self.solve(block, unit, cols)
        # input j excites the left row of subdomain j + 1 for j < n_sub - 1,
        # else the right row of subdomain j - (n_sub - 1)
        own = np.arange(1, 2 * n_sub - 1) % n_sub
        colour = np.repeat([1, 2], n_sub - 1)
        inside = np.searchsorted(self.hi, cols)[:, None] == own
        return packed[:, :, 0].copy(), np.where(inside, packed[1:, :, colour], 0.0)


def _whole_steps(name, h, span_name, span):
    """span / h, which must be a whole number (to a relative 1e-9)."""
    ratio = span / h
    count = round(ratio)
    if abs(ratio - count) > 1e-9 * abs(ratio):
        raise ValueError(f"{name} = {h} does not divide {span_name} = {span} into "
                         f"whole steps ({span_name}/{name} = {ratio})")
    return int(count)


def _ad_grid(nu, L, T, dx, dt):
    """(nodes, time steps) of the space-time grid; ``dx`` must divide L and
    ``dt`` divide T into whole numbers of steps."""
    if not nu >= 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    check_positive(L=L, T=T, dx=dx, dt=dt)
    return _whole_steps("dx", dx, "L", L) + 1, _whole_steps("dt", dt, "T", T)


def _wave_grid(c, L, T, dx):
    """(dt, nodes, time steps) of the unit-CFL leapfrog grid, dt = dx/c.
    ``dx`` must divide L; the run ends at the whole step nearest T, which
    must be at least the first one."""
    check_positive(c=c, L=L, T=T, dx=dx)
    n = _whole_steps("dx", dx, "L", L) + 1
    dt = dx / c
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ValueError(f"T = {T} is shorter than half a time step dt = dx/c = {dt}")
    return dt, n, n_steps


def ad_initial_data(x, L):
    """Advection-diffusion initial data on [0, L]: a Gaussian at the centre."""
    return np.exp(-10.0 * (x - L / 2.0) ** 2)


def wave_initial_data(x, L):
    """Wave initial displacement on [0, L]: sin^2(2 pi x / L)."""
    return np.sin(2 * np.pi * x / L) ** 2


def monodomain_solve_ad(nu, L, T, dx, dt, u0_fn):
    """Single-domain discrete solution (the converged-solution oracle)."""
    n, n_steps = _ad_grid(nu, L, T, dx, dt)
    x = np.linspace(0.0, L, n)
    solver = _AdSolver([Subdomain(0, n - 1)], nu, dx, dt)
    return x, solver.solve(finite_u0(u0_fn(x)), np.zeros((n_steps + 1, 2)))


def oswr_solve_ad(nu, L, T, dx, dt, decs, seed: int = 0):
    """Jacobi Schwarz waveform relaxation for advection-diffusion, run once
    for each decomposition in ``decs`` on one space-time grid, from
    :func:`ad_initial_data`.

    The monodomain solution, marched once, is the oracle of every run.  A
    run starts from random interface traces (``seed``) and stops when the
    maximum interface error against the oracle drops below
    :data:`OSWR_TOL`, or raises ConvergenceError after
    :data:`OSWR_MAX_SWEEPS` sweeps.  Every subdomain reads only its neighbours'
    previous-iterate traces.  A sweep's traces are the free response plus
    the convolution of the interface data with each interface input's
    impulse response (:meth:`_AdSolver.responses`, one march on 3 columns),
    computed with spectra made once per run.  No trajectory is built.  A
    decomposition needs at least two subdomains (one has no interface: a
    ValueError).
    Returns one IterationTrace per decomposition.
    """
    for dec in decs:
        if len(dec.subdomains) < 2:
            raise ValueError(f"Schwarz waveform relaxation needs at least 2 subdomains, "
                             f"got {len(dec.subdomains)}")
    _, mono = monodomain_solve_ad(nu, L, T, dx, dt, partial(ad_initial_data, L=L))
    return tuple(_oswr_sweeps(mono, nu, dx, dt, dec, seed) for dec in decs)


def _oswr_sweeps(mono, nu, dx, dt, dec, seed):
    """The sweeps of :func:`oswr_solve_ad` on one decomposition, against
    the monodomain trajectory ``mono``."""
    subs = dec.subdomains
    n_sub = len(subs)
    trace = IterationTrace(method="oswr_ad")
    n_steps = mono.shape[0] - 1
    rob = dec.tc == "robin"
    solver = _AdSolver(subs, nu, dx, dt, dec.p,
                       [(rob and i > 0, rob and i < n_sub - 1) for i in range(n_sub)])
    data = solver.random_data(n_steps, seed)
    to_left, to_right = solver.to_left, solver.to_right
    # The responses are kept only at the columns the error and the exchange
    # read (j, j+-1, j+-2 for the Robin one-sided difference, kept adjacent
    # since ``cols`` is sorted).  Sorted and deduplicated by hand, since
    # np.unique imports numpy.ma on its first call.
    span = (0, 1, 2) if rob else (0,)
    cols = np.sort(np.concatenate([to_left + s for s in span] + [to_right - s for s in span]))
    cols = cols[np.concatenate(([True], cols[1:] != cols[:-1]))]
    at_left, at_right = np.searchsorted(cols, to_left), np.searchsorted(cols, to_right)
    n_fft = 2 * n_steps
    free, resp = solver.responses(mono[0, solver.index], n_steps, cols)
    spectra = np.fft.rfft(resp, n=n_fft, axis=0)  # (frequency, column, input)
    del resp
    for _ in range(OSWR_MAX_SWEEPS):
        inputs = np.fft.rfft(data[1:, 1:-1], n=n_fft, axis=0)[:, :, None]
        sol = free.copy()
        sol[1:] += np.fft.irfft(spectra @ inputs, n=n_fft, axis=0)[:n_steps, :, 0]
        err = np.abs(sol[:, np.concatenate((at_left, at_right))] - mono[:, solver.nodes]).max()
        trace.record(error=err)
        if err < OSWR_TOL:
            return trace
        # Jacobi exchange of interface traces
        if rob:
            data[:, 1:n_sub] = robin_trace(sol, at_left, dec.p, dx, "left")
            data[:, n_sub:-1] = robin_trace(sol, at_right, dec.p, dx, "right")
        else:
            data[:, 1:n_sub] = sol[:, at_left]
            data[:, n_sub:-1] = sol[:, at_right]
    raise ConvergenceError(f"OSWR did not reach tol={OSWR_TOL} in {OSWR_MAX_SWEEPS} sweeps")


# ---------------------------------------------------------------------------
# wave equation: leapfrog subdomain solves, finite convergence
# ---------------------------------------------------------------------------


def _leapfrog(rows, lam, dt, u0, data):
    """Leapfrog for u_tt = c^2 u_xx from rest on a stack of subdomains
    (``lam`` = c^2/dx^2), from the stacked state u0 of shape (N,).
    ``data[m]`` holds the values of the boundary ``rows`` at step m, as in
    :meth:`_AdSolver.solve`.  The first step is the second-order Taylor
    bootstrap.  No interior row reads across a subdomain, so each block of
    the result is that subdomain marched alone."""
    n_steps = data.shape[0] - 1
    out = np.empty((n_steps + 1,) + u0.shape)
    out[0] = u0
    lap = np.zeros_like(out[0])
    for m in range(1, n_steps + 1):
        uc = out[m - 1]
        lap[1:-1] = lam * (uc[:-2] - 2 * uc[1:-1] + uc[2:])
        if m == 1:
            out[m] = uc + 0.5 * dt * dt * lap
        else:
            out[m] = 2 * uc - out[m - 2] + dt * dt * lap
        out[m, rows] = data[m]
    return out


def monodomain_solve_wave(c, L, T, dx, u0_fn):
    """Single-domain leapfrog at unit CFL (dt = dx/c), from rest."""
    dt, n, n_steps = _wave_grid(c, L, T, dx)
    x = np.linspace(0.0, L, n)
    rows = _Stack([Subdomain(0, n - 1)]).rows
    sol = _leapfrog(rows, c * c / dx**2, dt, finite_u0(u0_fn(x)), np.zeros((n_steps + 1, 2)))
    return x, dt, sol


def swr_solve_wave(c, L, T, dx, dec: Decomposition1D, tol: float = 1e-10,
                   max_iter: int = 200, seed: int = 0):
    """Dirichlet-trace SWR for the wave equation at unit CFL, from rest at
    :func:`wave_initial_data`.

    Interface errors vanish exactly once the iteration count exceeds
    T*c/overlap-width (finite speed of propagation).  Each sweep is one
    leapfrog march of the stacked subdomains.
    """
    if dec.tc != "dirichlet":
        raise ValueError(f"wave SWR exchanges Dirichlet traces only, got tc={dec.tc!r}")
    check_counts(1, max_iter=max_iter)
    _, dt, mono = monodomain_solve_wave(c, L, T, dx, partial(wave_initial_data, L=L))
    stack = _Stack(dec.subdomains)
    n_sub = len(stack.lo)
    u0 = mono[0, stack.index]
    data = stack.random_data(mono.shape[0] - 1, seed)
    reads = np.concatenate((stack.to_left, stack.to_right))
    trace = IterationTrace(method="swr_wave")
    for _ in range(max_iter):
        sol = _leapfrog(stack.rows, c * c / dx**2, dt, u0, data)
        err = np.abs(sol[:, reads] - mono[:, stack.nodes]).max(initial=0.0)
        trace.record(error=err)
        if err < tol:
            break
        data[:, 1:n_sub] = sol[:, stack.to_left]
        data[:, n_sub:-1] = sol[:, stack.to_right]

    stack.write(mono, sol)  # the oracle, no longer read, takes the solution
    return mono, trace


# ---------------------------------------------------------------------------
# red-black SWR (unmapped tent pitching)
# ---------------------------------------------------------------------------


@dataclass
class TentSchedule:
    """Red-black coloring with generous overlap: red subdomains partition
    the domain, black ones span adjacent red halves.  Each sweep advances
    the active color's time slab by overlap/(2c)."""

    n_red: int


def utp_advance(c, L, T, dx, schedule: TentSchedule, sweeps: int, seed=0):
    """Red-black SWR on the wave equation with growing time slabs, from
    :func:`wave_initial_data`.

    The first iterate is random, from the integer ``seed``.  Returns
    (global space-time iterate, trace, residual rows) where the residual
    rows, shape (k, 3), are (x, t, |residual|) samples of the leapfrog
    stencil on the final iterate.
    """
    check_counts(0, seed=seed, sweeps=sweeps)
    check_counts(1, n_red=schedule.n_red)
    dt, n, n_steps = _wave_grid(c, L, T, dx)
    x = np.linspace(0.0, L, n)

    n_red = schedule.n_red
    bounds = np.linspace(0, n - 1, 2 * n_red + 1).round().astype(int)
    red = _Stack([Subdomain(bounds[2 * i], bounds[2 * i + 2]) for i in range(n_red)])
    black = _Stack([Subdomain(bounds[2 * i + 1], bounds[2 * i + 3]) for i in range(n_red - 1)])
    overlap_width = x[bounds[2]] - x[bounds[1]]
    slab = overlap_width / (2.0 * c)

    U = np.random.default_rng(seed).standard_normal((n_steps + 1, n))
    U[0] = wave_initial_data(x, L)
    U[:, 0] = 0.0
    U[:, -1] = 0.0

    trace = IterationTrace(method="utp")
    lam = (c * dt / dx) ** 2

    def residual_field(U):
        R = np.zeros_like(U)
        R[2:, 1:-1] = U[2:, 1:-1] - 2 * U[1:-1, 1:-1] + U[:-2, 1:-1] - lam * (
            U[1:-1, :-2] - 2 * U[1:-1, 1:-1] + U[1:-1, 2:]
        )
        return np.abs(R)

    for k in range(1, sweeps + 1):
        color = red if k % 2 == 1 else black
        m_hi = int(round(min(T, k * slab) / dt))
        # the colour's initial state and boundary traces from the iterate
        G = U[: m_hi + 1, color.index]
        color.write(U, _leapfrog(color.rows, c * c / dx**2, dt, G[0], G[:, color.rows]))
        trace.record(residual=residual_field(U).max())
    # heat map: every (n_steps // 32)-th time row and (n // 32)-th node
    m = np.arange(0, n_steps + 1, max(1, n_steps // 32))
    j = np.arange(0, n, max(1, n // 32))
    rows = np.empty((m.size, j.size, 3))
    rows[..., 0] = x[j]
    rows[..., 1] = (m * dt)[:, None]
    rows[..., 2] = residual_field(U)[np.ix_(m, j)]
    return U, trace, rows.reshape(-1, 3)
