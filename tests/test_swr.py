import numpy as np
import pytest
import scipy.linalg

from pintlab.kernels import ConvergenceError, SingularSystemError
from pintlab.swr import (
    Decomposition1D,
    Subdomain,
    TentSchedule,
    _AdSolver,
    _leapfrog,
    _Stack,
    monodomain_solve_ad,
    monodomain_solve_wave,
    oswr_solve_ad,
    robin_p_star,
    robin_trace,
    swr_solve_wave,
    utp_advance,
)

Y_C = 1.618386576


def R0(y, p, y0):
    return ((y - p) ** 2 + y * y - y0 * y0) / ((y + p) ** 2 + y * y - y0 * y0) * np.exp(-y)


class TestRobinPStar:
    def test_large_y0_branch_residual(self):
        # y0 = 10 >= y_c: p~* solves y0 = p~ sqrt(p~/(4+p~))
        l, nu = 1.0, 0.1  # y0 = 10
        p_star, _ = robin_p_star(l, nu, 5.0, 0.01)
        p_t = p_star * l / nu
        assert abs(10.0 - p_t * np.sqrt(p_t / (4.0 + p_t))) < 1e-12 * max(1.0, p_t)

    def test_small_y0_branch_residual(self):
        l, nu, T, dt = 0.04, 0.1, 5.0, 0.01  # y0 = 0.4 < y_c
        y0 = l / nu
        p_star, _ = robin_p_star(l, nu, T, dt)
        p_t = p_star * l / nu

        def ybar(p):
            inner = p * (-(p**3) - 4 * p * p + (4 + 2 * y0 * y0) * p + 8 * y0 * y0)
            return np.sqrt((y0 * y0 + 2 * p + np.sqrt(max(inner, 0.0))) / 2.0)

        assert abs(R0(y0, p_t, y0) - R0(ybar(p_t), p_t, y0)) < 1e-10

    def test_dirichlet_limit(self):
        # p -> infinity: R0 -> e^{-y}, so rho <= e^{-y_min}
        y0 = 0.4
        for y in (0.5, 1.0, 3.0):
            assert R0(y, 1e9, y0) == pytest.approx(np.exp(-y), rel=1e-6)

    def test_branch_continuity(self):
        nu, T, dt = 0.1, 5.0, 0.01
        eps = 1e-8
        lo = robin_p_star(nu * (Y_C - eps), nu, T, dt)[0] * (Y_C - eps) / 1.0
        hi = robin_p_star(nu * (Y_C + eps), nu, T, dt)[0] * (Y_C + eps) / 1.0
        # compare p~* = p* l / nu across the branch switch
        p_lo = robin_p_star(nu * (Y_C - eps), nu, T, dt)[0] * (Y_C - eps)
        p_hi = robin_p_star(nu * (Y_C + eps), nu, T, dt)[0] * (Y_C + eps)
        assert abs(p_lo - p_hi) / p_lo < 1e-5

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            robin_p_star(-1.0, 0.1, 1.0, 0.01)


class TestOswrAd:
    def test_single_subdomain_converges_immediately(self):
        dec = Decomposition1D(subdomains=[type("S", (), {"lo": 0, "hi": 50})()])
        _, trace = oswr_solve_ad(0.1, 1.0, 0.5, 0.02, 0.01, dec, tol=1e-8)
        assert trace.iterations == 1 and trace.errors[0] == 0.0

    @pytest.mark.slow
    def test_reference_iteration_counts(self):
        # 4 subdomains, nu=0.1, L=8.2, T=5, dt=0.01, dx=0.02, l=2dx, tol 1e-8:
        # about 92 sweeps with Dirichlet TCs and 28 with optimized Robin TCs
        L, T, dt, dx, nu = 8.2, 5.0, 0.01, 0.02, 0.1
        n_nodes = int(round(L / dx)) + 1
        dec_d = Decomposition1D.uniform(n_nodes, 4, 2, tc="dirichlet")
        _, tr_d = oswr_solve_ad(nu, L, T, dx, dt, dec_d, tol=1e-8)
        assert 92 * 0.8 <= tr_d.iterations <= 92 * 1.2
        assert tr_d.iterations == 96  # pint-out/swr-ad-iterations.csv, seed 0

        p_star, _ = robin_p_star(2 * dx, nu, T, dt)
        dec_r = Decomposition1D.uniform(n_nodes, 4, 2, tc="robin", p=p_star)
        _, tr_r = oswr_solve_ad(nu, L, T, dx, dt, dec_r, tol=1e-8)
        assert 28 * 0.8 <= tr_r.iterations <= 28 * 1.2
        assert tr_r.iterations == 32

    def test_iterations_nonincreasing_in_nu(self):
        # advection dominance accelerates SWR (Dirichlet TCs isolate the
        # continuous trend; the discrete Robin operator blurs it at this dx)
        L, T, dt, dx = 4.0, 2.0, 0.02, 0.04
        n_nodes = int(round(L / dx)) + 1
        counts = []
        for nu in (1.0, 0.1, 0.01):
            dec = Decomposition1D.uniform(n_nodes, 2, 2, tc="dirichlet")
            _, tr = oswr_solve_ad(nu, L, T, dx, dt, dec, tol=1e-8, max_iter=2000)
            counts.append(tr.iterations)
        assert counts[0] >= counts[1] >= counts[2]

    def test_monotone_interface_decay_dirichlet(self):
        L, T, dt, dx = 4.0, 2.0, 0.02, 0.04
        n_nodes = int(round(L / dx)) + 1
        dec = Decomposition1D.uniform(n_nodes, 2, 4, tc="dirichlet")
        _, tr = oswr_solve_ad(0.1, L, T, dx, dt, dec, tol=1e-8, max_iter=500)
        e = tr.errors
        assert all(b <= a * (1 + 1e-12) for a, b in zip(e[1:-1], e[2:]))

    def test_stacked_blocks_match_single_subdomain_solves(self):
        # no elimination crosses a block boundary of the stacked system, so
        # each block is bit for bit its subdomain solved alone
        L, T, dt, dx, nu = 4.0, 1.0, 0.02, 0.04, 0.1
        n_nodes = int(round(L / dx)) + 1
        rng = np.random.default_rng(3)
        data = rng.standard_normal((int(round(T / dt)) + 1, 6))
        for rob in (False, True):
            dec = Decomposition1D.uniform(n_nodes, 3, 2, tc="robin" if rob else "dirichlet", p=2.0)
            subs = dec.subdomains
            robin = [(rob and i > 0, rob and i < 2) for i in range(3)]
            u0 = rng.standard_normal(sum(s.hi - s.lo + 1 for s in subs))
            stacked = _AdSolver(subs, nu, dx, dt, dec.p, robin)
            sol = stacked.solve(u0, data)
            for i, sub in enumerate(subs):
                a, b = stacked.lo[i], stacked.hi[i] + 1
                alone = _AdSolver([sub], nu, dx, dt, dec.p, [robin[i]])
                np.testing.assert_array_equal(sol[:, a:b], alone.solve(u0[a:b], data[:, [i, 3 + i]]))

    @pytest.mark.parametrize("tc", ["dirichlet", "robin"])
    def test_matches_dense_reference(self, tc):
        L, T, dt, dx, nu = 4.0, 1.0, 0.02, 0.04, 0.1
        n_nodes = int(round(L / dx)) + 1
        p_star, _ = robin_p_star(2 * dx, nu, T, dt)
        dec = Decomposition1D.uniform(n_nodes, 3, 2, tc=tc, p=p_star)
        glob, tr = oswr_solve_ad(nu, L, T, dx, dt, dec, tol=1e-8)
        glob_ref, errors_ref = dense_oswr_ad(nu, L, T, dx, dt, dec, tol=1e-8)
        assert tr.iterations == len(errors_ref)
        np.testing.assert_allclose(tr.errors, errors_ref, rtol=1e-6, atol=0)
        np.testing.assert_allclose(glob, glob_ref, rtol=0, atol=1e-12)

    def test_no_subdomains_rejected(self):
        with pytest.raises(ValueError, match="no subdomains"):
            Decomposition1D.uniform(51, 0, 2)

    def test_robin_two_node_subdomain_rejected(self):
        with pytest.raises(ValueError, match="Robin .* overlap of at least 2"):
            Decomposition1D.uniform(6, 5, 1, tc="robin", p=1.0)

    def test_robin_at_cell_peclet_two_rejected(self):
        # adv = dif zeroes the interior coupling a Robin row is reduced with
        with pytest.raises(ValueError, match="cell Peclet number 2"):
            _AdSolver([Subdomain(0, 5)], 0.25, 0.5, 0.1, 1.0, [(True, False)])

    @pytest.mark.parametrize("solve", ["oswr", "monodomain"])
    @pytest.mark.parametrize("name, value", [("nu", -0.05), ("T", 0.0), ("dx", 0.0),
                                             ("dt", -0.01), ("L", -1.0)])
    def test_invalid_parameter_named(self, solve, name, value):
        # nu = -dx/2 used to surface as "singular SWR subdomain system 0"
        args = dict(nu=0.05, L=1.0, T=0.1, dx=0.1, dt=0.01)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be"):
            if solve == "oswr":
                oswr_solve_ad(dec=Decomposition1D.uniform(11, 2, 2), **args)
            else:
                monodomain_solve_ad(u0_fn=np.sin, **args)

    @pytest.mark.parametrize("solve", ["oswr", "monodomain"])
    @pytest.mark.parametrize("name, value", [("dx", 0.3), ("dx", 0.1000001),
                                             ("dt", 0.03), ("dt", 0.0100000001)])
    def test_non_integer_grid_rejected(self, solve, name, value):
        # dx = 0.3 used to lay 4 nodes 1/3 apart under a 0.3 stencil, and
        # dt = 0.03 to stop at t = 0.09 instead of T = 0.1; a ratio off by a
        # relative 1e-8 is rejected too
        args = dict(nu=0.1, L=1.0, T=0.1, dx=0.1, dt=0.01)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} = {value} does not divide"):
            if solve == "oswr":
                oswr_solve_ad(dec=Decomposition1D.uniform(11, 2, 2), **args)
            else:
                monodomain_solve_ad(u0_fn=np.sin, **args)

    def test_grid_ratio_within_roundoff_accepted(self):
        # 8.2 / 0.02 = 409.99999999999994 in floating point (the C9 grid)
        x, sol = monodomain_solve_ad(0.1, 8.2, 0.05, 0.02, 0.01, np.sin)
        assert x.shape == (411,) and sol.shape == (6, 411)

    def test_zero_pivot_names_subdomain(self):
        # nu = -dx/2, dt = dx zeroes the interior diagonal and sub-diagonal,
        # so every subdomain of more than 2 nodes has a zero pivot in row 1
        dx = 0.5
        subs = [Subdomain(0, 1), Subdomain(1, 5)]
        with pytest.raises(SingularSystemError, match="subdomain system 1 .*row 1"):
            _AdSolver(subs, -dx / 2, dx, dx)

    def test_too_few_sweeps_raise(self):
        L, T, dt, dx = 4.0, 1.0, 0.02, 0.04
        dec = Decomposition1D.uniform(int(round(L / dx)) + 1, 3, 2, tc="dirichlet")
        with pytest.raises(ConvergenceError, match="^OSWR did not reach tol=1e-08 in 3 sweeps"):
            oswr_solve_ad(0.1, L, T, dx, dt, dec, tol=1e-8, max_iter=3)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("tc", ["dirichlet", "robin"])
    @pytest.mark.parametrize("n_sub", [2, 3, 4])
    def test_convolution_sweeps_match_march(self, n_sub, tc, seed):
        # each sweep's traces come from the impulse responses by FFT
        # convolution; they must follow the sweep that re-marches the system
        L, T, dt, dx, nu = 4.0, 1.0, 0.02, 0.04, 0.1
        p_star, _ = robin_p_star(2 * dx, nu, T, dt)
        dec = Decomposition1D.uniform(int(round(L / dx)) + 1, n_sub, 2, tc=tc, p=p_star)
        glob, tr = oswr_solve_ad(nu, L, T, dx, dt, dec, tol=1e-8, seed=seed)
        glob_ref, errors_ref = march_oswr_ad(nu, L, T, dx, dt, dec, tol=1e-8, seed=seed)
        assert tr.iterations == len(errors_ref)
        np.testing.assert_allclose(tr.errors, errors_ref, rtol=1e-6, atol=0)
        np.testing.assert_allclose(glob, glob_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rob", [False, True])
    def test_block_solve_matches_column_solves(self, rob):
        # the response march solves a block; each column is bit for bit
        # its own march, and ``cols`` only selects what is kept
        L, T, dt, dx, nu = 4.0, 1.0, 0.02, 0.04, 0.1
        n_steps = int(round(T / dt))
        dec = Decomposition1D.uniform(int(round(L / dx)) + 1, 3, 2,
                                      tc="robin" if rob else "dirichlet", p=2.0)
        solver = _AdSolver(dec.subdomains, nu, dx, dt, dec.p,
                           [(rob and i > 0, rob and i < 2) for i in range(3)])
        n = solver.hi[-1] + 1
        rng = np.random.default_rng(5)
        u0 = rng.standard_normal((n, 4))
        data = rng.standard_normal((n_steps + 1, 6, 4))
        cols = np.array([0, 7, 33, 34, 35, n - 1])
        block = solver.solve(u0, data)
        assert block.shape == (n_steps + 1, n, 4)
        np.testing.assert_array_equal(solver.solve(u0, data, cols), block[:, cols])
        for k in range(4):
            np.testing.assert_array_equal(block[:, :, k], solver.solve(u0[:, k], data[:, :, k]))


def dense_oswr_ad(nu, L, T, dx, dt, dec, tol, seed=0, max_iter=500):
    """Reference SWR iteration: each subdomain marched alone with a dense LU
    of its unreduced matrix (Robin rows keep their third entry).  Returns
    the global trajectory and the interface-error history."""
    n_nodes = int(round(L / dx)) + 1
    x = np.linspace(0.0, L, n_nodes)
    n_steps = int(round(T / dt))
    u0_fn = lambda x: np.exp(-10.0 * (x - L / 2.0) ** 2)
    subs, p, rob = dec.subdomains, dec.p, dec.tc == "robin"
    c = 1.0 / (p * dx)

    def march(lo, hi, robin_left, robin_right, left, right):
        n = hi - lo + 1
        A = np.zeros((n, n))
        i = np.arange(1, n - 1)
        A[i, i - 1] = -1.0 / (2 * dx) - nu / dx**2
        A[i, i] = 1.0 / dt + 2 * nu / dx**2
        A[i, i + 1] = 1.0 / (2 * dx) - nu / dx**2
        A[0, 0] = A[-1, -1] = 1.0
        if robin_left:
            A[0, :3] = [-1.5 * c - 1.0, 2.0 * c, -0.5 * c]
        if robin_right:
            A[-1, -3:] = [0.5 * c, -2.0 * c, 1.5 * c + 1.0]
        lu = scipy.linalg.lu_factor(A)
        out = np.empty((n_steps + 1, n))
        out[0] = u0_fn(x[lo : hi + 1])
        for m in range(1, n_steps + 1):
            rhs = out[m - 1] / dt
            rhs[0], rhs[-1] = left[m], right[m]
            out[m] = scipy.linalg.lu_solve(lu, rhs)
        return out

    zeros = np.zeros(n_steps + 1)
    mono = march(0, n_nodes - 1, False, False, zeros, zeros)
    rng = np.random.default_rng(seed)
    left = [zeros] + [rng.standard_normal(n_steps + 1) for _ in subs[1:]]
    right = [rng.standard_normal(n_steps + 1) for _ in subs[:-1]] + [zeros]
    errors = []
    for _ in range(max_iter):
        sols = [march(s.lo, s.hi, rob and i > 0, rob and i < len(subs) - 1, left[i], right[i])
                for i, s in enumerate(subs)]
        pairs = list(zip(subs[:-1], subs[1:], sols[:-1], sols[1:]))
        errors.append(max(max(np.abs(sa[:, b.lo - a.lo] - mono[:, b.lo]).max(),
                              np.abs(sb[:, a.hi - b.lo] - mono[:, a.hi]).max())
                          for a, b, sa, sb in pairs))
        if errors[-1] < tol:
            break
        for i, (a, b, sa, sb) in enumerate(pairs):
            if rob:
                left[i + 1] = robin_trace(sa, b.lo - a.lo, p, dx, "left")
                right[i] = robin_trace(sb, a.hi - b.lo, p, dx, "right")
            else:
                left[i + 1], right[i] = sa[:, b.lo - a.lo], sb[:, a.hi - b.lo]
    glob = mono.copy()
    for s, sol in zip(subs, sols):
        glob[:, s.lo : s.hi + 1] = sol
    return glob, errors


def march_oswr_ad(nu, L, T, dx, dt, dec, tol, seed=0, max_iter=500):
    """Reference SWR iteration that re-marches the stacked subdomain system
    over every time step in each sweep, with the initial guess, error and
    exchange of ``oswr_solve_ad``.  Returns the global trajectory and the
    interface-error history."""
    u0_fn = lambda x: np.exp(-10.0 * (x - L / 2.0) ** 2)
    x, mono = monodomain_solve_ad(nu, L, T, dx, dt, u0_fn)
    n_steps = mono.shape[0] - 1
    subs, rob = dec.subdomains, dec.tc == "robin"
    n_sub = len(subs)
    solver = _AdSolver(subs, nu, dx, dt, dec.p,
                       [(rob and i > 0, rob and i < n_sub - 1) for i in range(n_sub)])
    u0 = np.concatenate([u0_fn(x[s.lo : s.hi + 1]) for s in subs])
    rng = np.random.default_rng(seed)
    data = np.zeros((n_steps + 1, 2 * n_sub))
    data[1:, 1:n_sub] = rng.standard_normal((n_sub - 1, n_steps + 1))[:, 1:].T
    data[1:, n_sub:-1] = rng.standard_normal((n_sub - 1, n_steps + 1))[:, 1:].T
    glo = np.array([s.lo for s in subs])
    ghi = np.array([s.hi for s in subs])
    to_left = solver.lo[:-1] + glo[1:] - glo[:-1]
    to_right = solver.lo[1:] + ghi[:-1] - glo[1:]
    nodes = np.concatenate((glo[1:], ghi[:-1]))
    errors = []
    for _ in range(max_iter):
        sol = solver.solve(u0, data)
        errors.append(np.abs(sol[:, np.concatenate((to_left, to_right))] - mono[:, nodes]).max())
        if errors[-1] < tol:
            break
        if rob:
            data[:, 1:n_sub] = robin_trace(sol, to_left, dec.p, dx, "left")
            data[:, n_sub:-1] = robin_trace(sol, to_right, dec.p, dx, "right")
        else:
            data[:, 1:n_sub] = sol[:, to_left]
            data[:, n_sub:-1] = sol[:, to_right]
    glob = mono.copy()
    for s, a, b in zip(subs, solver.lo, solver.hi):
        glob[:, s.lo : s.hi + 1] = sol[:, a : b + 1]
    return glob, errors


def two_domain_overlap(n_nodes, overlap_frac):
    overlap_cells = int(round(overlap_frac * (n_nodes - 1)))
    return Decomposition1D.uniform(n_nodes, 2, overlap_cells, tc="dirichlet")


def leapfrog_one_subdomain(A_scaled, u0, v0, dt, n_steps, left_trace, right_trace):
    """Reference leapfrog on one subdomain, boundary columns overwritten by
    traces, written as the per-subdomain march (with initial velocity v0
    and a zero source term) that the stacked march replaced."""
    n = u0.shape[0]
    out = np.empty((n_steps + 1, n))
    out[0] = u0

    def lap(u):
        out_ = np.zeros_like(u)
        out_[1:-1] = A_scaled * (u[:-2] - 2 * u[1:-1] + u[2:])
        return out_

    g = 0.0
    u1 = u0 + dt * v0 + 0.5 * dt * dt * (lap(u0) + g)
    u1[0] = left_trace[1]
    u1[-1] = right_trace[1]
    out[1] = u1
    um, uc = u0, u1
    for m in range(2, n_steps + 1):
        un = 2 * uc - um + dt * dt * (lap(uc) + g)
        un[0] = left_trace[m]
        un[-1] = right_trace[m]
        um, uc = uc, un
        out[m] = un
    return out


class TestStackedLeapfrog:
    @pytest.mark.parametrize("sizes", [(2, 9), (7, 2, 5), (4, 6, 2, 8)])
    def test_matches_per_subdomain_march(self, sizes):
        # np.array_equal ignores the sign of zeros, the only bits the
        # dropped zero velocity and source terms can change
        rng = np.random.default_rng(len(sizes))
        lo = np.cumsum((0,) + sizes[:-1]) - np.arange(len(sizes))  # neighbours share a node
        stack = _Stack([Subdomain(a, a + k - 1) for a, k in zip(lo, sizes)])
        c, dx, n_steps = np.sqrt(0.2), 1.0 / 80, 30
        dt, lam = dx / c, c * c / dx**2
        u0 = rng.standard_normal(sum(sizes))
        data = rng.standard_normal((n_steps + 1, 2 * len(sizes)))
        sol = _leapfrog(stack.rows, lam, dt, u0, data)
        for i, (a, b) in enumerate(zip(stack.lo, stack.hi + 1)):
            ref = leapfrog_one_subdomain(lam, u0[a:b], np.zeros(b - a), dt, n_steps,
                                         data[:, i], data[:, len(sizes) + i])
            assert np.array_equal(sol[:, a:b], ref)


class TestWaveSwr:
    C2 = 0.2

    def test_robin_decomposition_rejected(self):
        # the wave exchange is Dirichlet only; a Robin decomposition used to
        # run it silently
        dec = Decomposition1D.uniform(81, 2, 20, tc="robin", p=1.0)
        with pytest.raises(ValueError, match="tc='robin'"):
            swr_solve_wave(np.sqrt(self.C2), 1.0, 1.0, 1.0 / 80, dec)

    def test_tiny_T_converges_in_one_sweep(self):
        c = np.sqrt(self.C2)
        dx = 1.0 / 80
        n_nodes = 81
        dec = two_domain_overlap(n_nodes, 0.25)
        T = 0.5 * 0.25 / c  # T c / overlap = 0.5 < 1
        _, tr = swr_solve_wave(c, 1.0, T, dx, dec, tol=1e-10)
        assert tr.errors[0] < 1e-10

    def test_finite_convergence_threshold(self):
        # interface error < 1e-10 at the first k > T c / (beta - alpha)
        c = np.sqrt(self.C2)
        dx = 1.0 / 80
        n_nodes = 81
        for T, frac in ((2.0, 0.25), (1.0, 0.25)):
            dec = two_domain_overlap(n_nodes, frac)
            k_star = int(np.ceil(T * c / frac)) + 1
            _, tr = swr_solve_wave(c, 1.0, T, dx, dec, tol=0.0, max_iter=k_star)
            assert tr.errors[k_star - 1] < 1e-10

    def test_doubling_overlap_halves_sweeps(self):
        c = np.sqrt(self.C2)
        dx = 1.0 / 80
        n_nodes = 81
        T = 2.0
        counts = []
        for frac in (0.25, 0.5):
            dec = two_domain_overlap(n_nodes, frac)
            _, tr = swr_solve_wave(c, 1.0, T, dx, dec, tol=1e-10, max_iter=40)
            counts.append(tr.converged_at(1e-10) + 1)
        assert abs(counts[0] - 2 * counts[1]) <= 1


class TestWaveGrid:
    @pytest.mark.parametrize("T", [1.0, 0.1])
    def test_non_dividing_dx_rejected(self, T):
        # dx = 0.3 used to lay 4 nodes 1/3 apart under a 0.3 stencil and
        # stop at t = 0.9; with T = 0.1 it raised a raw IndexError
        with pytest.raises(ValueError, match=r"^dx = 0\.3 does not divide L = 1\.0"):
            monodomain_solve_wave(1.0, 1.0, T, 0.3, np.sin)

    def test_T_below_one_step_rejected(self):
        with pytest.raises(ValueError, match=r"^T = 0\.1 is shorter than half a time step"):
            monodomain_solve_wave(1.0, 1.0, 0.1, 0.25, np.sin)

    @pytest.mark.parametrize("name, value", [("c", 0.0), ("L", -1.0), ("T", 0.0), ("dx", -0.1)])
    @pytest.mark.parametrize("solve", ["monodomain", "swr", "utp"])
    def test_invalid_parameter_named(self, solve, name, value):
        args = dict(c=1.0, L=1.0, T=0.5, dx=0.1)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            if solve == "monodomain":
                monodomain_solve_wave(u0_fn=np.sin, **args)
            elif solve == "swr":
                swr_solve_wave(dec=two_domain_overlap(11, 0.25), **args)
            else:
                utp_advance(schedule=TentSchedule(n_red=2), sweeps=1, **args)

    @pytest.mark.parametrize("dx, T", [(1.0 / 80, 2.0), (1.0 / 120, 1.0)])
    def test_c10_grids_accepted(self, dx, T):
        # unit CFL with c = sqrt(0.2): T/dt is not whole, the run ends at
        # the step nearest T
        c = np.sqrt(0.2)
        x, dt, sol = monodomain_solve_wave(c, 1.0, T, dx, np.sin)
        assert x.shape == (round(1.0 / dx) + 1,) and dt == dx / c
        assert sol.shape == (round(T / dt) + 1, x.shape[0])


class TestUtp:
    C = np.sqrt(0.2)

    def test_zero_data_zero_guess_zero_residual(self):
        sched = TentSchedule(n_red=3)
        U, tr, rows = utp_advance(self.C, 1.0, 0.5, 1.0 / 60, sched, sweeps=1,
                                  u0_fn=lambda x: np.zeros_like(x), seed=None)
        assert tr.residuals[0] == 0.0

    def test_first_sweep_exact_inside_tents(self):
        L, dx = 1.0, 1.0 / 120
        sched = TentSchedule(n_red=3)
        U, tr, rows = utp_advance(self.C, L, 1.0, dx, sched, sweeps=1)
        x, dt, mono = monodomain_solve_wave(self.C, L, 1.0, dx,
                                            lambda xx: np.sin(2 * np.pi * xx / L) ** 2)
        n = x.shape[0]
        bounds = np.linspace(0, n - 1, 7).round().astype(int)
        overlap = x[bounds[2]] - x[bounds[1]]
        slab = overlap / (2 * self.C)
        m_hi = int(np.floor(slab / dt))
        err = 0.0
        for i in range(3):
            a, b = x[bounds[2 * i]], x[bounds[2 * i + 2]]
            for m in range(m_hi + 1):
                t = m * dt
                mask = (x >= a + self.C * t + dx / 2) & (x <= b - self.C * t - dx / 2)
                if mask.any():
                    err = max(err, np.abs(U[m, mask] - mono[m, mask]).max())
        assert err < 1e-10

    def test_certified_region_grows_each_sweep(self):
        L, dx = 1.0, 1.0 / 120
        sched = TentSchedule(n_red=3)
        x, dt, mono = monodomain_solve_wave(self.C, L, 1.0, dx,
                                            lambda xx: np.sin(2 * np.pi * xx / L) ** 2)
        n = x.shape[0]
        bounds = np.linspace(0, n - 1, 7).round().astype(int)
        overlap = x[bounds[2]] - x[bounds[1]]
        slab = overlap / (2 * self.C)
        for sweeps in (2, 4, 6):
            U, tr, rows = utp_advance(self.C, L, 1.0, dx, sched, sweeps=sweeps)
            t_cert = (sweeps - 1) * slab
            m_cert = int(np.floor(t_cert / dt))
            err = np.abs(U[: m_cert + 1] - mono[: m_cert + 1]).max()
            assert err < 1e-9

    def test_full_convergence_after_tent_stacking(self):
        L, dx, T = 1.0, 1.0 / 120, 1.0
        sched = TentSchedule(n_red=3)
        x, dt, mono = monodomain_solve_wave(self.C, L, T, dx,
                                            lambda xx: np.sin(2 * np.pi * xx / L) ** 2)
        n = x.shape[0]
        bounds = np.linspace(0, n - 1, 7).round().astype(int)
        overlap = x[bounds[2]] - x[bounds[1]]
        sweeps = int(np.ceil(2 * T * self.C / overlap)) + 2
        U, tr, rows = utp_advance(self.C, L, T, dx, sched, sweeps=sweeps)
        assert np.abs(U - mono).max() < 1e-8

    def test_tent_height_detection_nondecreasing(self):
        sched = TentSchedule(n_red=3, residual_detection=True)
        U, tr, rows = utp_advance(self.C, 1.0, 1.0, 1.0 / 120, sched, sweeps=5)
        h = tr.meta["tent_height"]
        assert all(b >= a for a, b in zip(h[:-1], h[1:]))

    def test_residual_detection_converges_like_default(self):
        L, dx, T = 1.0, 1.0 / 120, 1.0
        x, dt, mono = monodomain_solve_wave(self.C, L, T, dx,
                                            lambda xx: np.sin(2 * np.pi * xx / L) ** 2)
        n = x.shape[0]
        bounds = np.linspace(0, n - 1, 7).round().astype(int)
        overlap = x[bounds[2]] - x[bounds[1]]
        sweeps = int(np.ceil(2 * T * self.C / overlap)) + 2
        sched = TentSchedule(n_red=3, residual_detection=True)
        U, tr, rows = utp_advance(self.C, L, T, dx, sched, sweeps=sweeps)
        assert np.abs(U - mono).max() < 1e-8

    def test_single_red_subdomain_records_every_sweep(self):
        # n_red = 1 has no black subdomain; its sweeps still record a residual
        U, tr, rows = utp_advance(self.C, 1.0, 0.5, 1.0 / 60, TentSchedule(n_red=1), sweeps=3)
        assert len(tr.residuals) == 3 and len(tr.meta["tent_height"]) == 3

    def test_slab_shorter_than_half_a_step(self):
        # the first slab rounds to 0 steps; this used to raise IndexError
        U, tr, rows = utp_advance(1.0, 1.0, 1.0, 0.25, TentSchedule(n_red=2), sweeps=2)
        x = np.linspace(0.0, 1.0, 5)
        assert U.shape == (5, 5) and len(tr.residuals) == 2
        np.testing.assert_array_equal(U[0, 1:-1], np.sin(2 * np.pi * x[1:-1]) ** 2)

    def test_heatmap_rows_format(self):
        sched = TentSchedule(n_red=3)
        U, tr, rows = utp_advance(self.C, 1.0, 0.5, 1.0 / 60, sched, sweeps=2)
        assert len(rows) > 0 and all(len(r) == 3 for r in rows)
