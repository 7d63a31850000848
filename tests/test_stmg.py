from functools import partial

import numpy as np
import pytest

from pintlab.integrators import _newton
from pintlab.models import SourcePulse, build_burgers, build_heat
from pintlab.stmg import (
    AllAtOnce,
    NonlinearAllAtOnce,
    SmootherConfig,
    SpaceTimeGrid,
    _two_level,
    block_jacobi_smooth,
    lfa_max_high_frequency,
    lfa_rho,
    prolongation_matrix,
    stmg_fas_nonlinear,
    stmg_two_level,
)


def heat_grid(lx=4, lt=5, ratio=8.0, nu=1.0):
    nx = 2**lx - 1
    dx = 1.0 / (nx + 1)
    dt = ratio * dx**2
    sys = build_heat(nx, dx, nu, "dirichlet")
    sys.u0[:] = np.sin(np.pi * sys.x)
    return sys, SpaceTimeGrid(lx=lx, lt=lt, dx=dx, dt=dt)


class TestLfa:
    def test_eta_zero_no_smoothing(self):
        assert lfa_rho(3.0, 5.0, 0.0, 0.1, 0.1) == pytest.approx(1.0)

    def test_smooth_mode_untouched(self):
        # omega = xi = 0: the symbol equals one (coarse grid's job)
        assert lfa_rho(0.0, 0.0, 0.5, 0.1, 0.1) == pytest.approx(1.0)

    def test_high_frequency_bound_heat(self):
        dx = 1.0 / 32
        for ratio in (1.0 / np.sqrt(2.0), 2.0, 50.0):
            dt = ratio * dx**2
            worst = lfa_max_high_frequency(0.5, dt, dx)
            assert worst <= 1.0 / np.sqrt(2.0) + 1e-10

    @pytest.mark.parametrize("ratio", [1.0 / np.sqrt(2.0), 2.0, 50.0])
    def test_high_frequency_max_equals_scalar_loop(self, ratio):
        # the one grid evaluation returns the maximum of the scalar loop
        # over the same modes, bit for bit
        dx = 1.0 / 32
        dt = ratio * dx**2
        thetas = np.linspace(-np.pi, np.pi, 2 * 96 + 1)
        worst = 0.0
        for wt in thetas:
            for xd in thetas:
                if abs(wt) > np.pi / 2 or abs(xd) > np.pi / 2:
                    worst = max(worst, abs(lfa_rho(wt / dt, xd / dx, 0.5, dt, dx)))
        got = lfa_max_high_frequency(0.5, dt, dx)
        assert np.float64(got).tobytes() == np.float64(worst).tobytes()

    def test_mode_injection_matches_symbol(self):
        # periodic problem: smoothing one Fourier mode multiplies its
        # amplitude by the symbol, up to the time-boundary rows
        nx, nt = 32, 64
        dx = 1.0 / nx
        dt = 2.0 * dx**2
        sys = build_heat(nx, dx, 1.0, "periodic")
        op = AllAtOnce(sys, 1.0, dt, nt)
        eta = 0.5
        k_x, k_t = 5, 7
        xi = 2 * np.pi * k_x
        omega = 2 * np.pi * k_t / (nt * dt)
        n_idx = np.arange(1, nt + 1)[:, None]
        m_idx = np.arange(nx)[None, :]
        mode = np.exp(1j * omega * n_idx * dt) * np.exp(1j * xi * m_idx * dx)
        smoothed = mode + eta * op.solve_r1(0.0 - op.apply(mode))
        rho = lfa_rho(omega, xi, eta, dt, dx)
        interior = smoothed[1:] / mode[1:]  # first row misses the u_{n-1} term
        np.testing.assert_allclose(interior, rho, atol=1e-8)


class TestLfaAdvection:
    def test_ad_cycle_converges_with_more_smoothing(self):
        from pintlab.models import build_advection_diffusion

        lx, lt = 4, 5
        nx = 2**lx - 1
        dx = 1.0 / (nx + 1)
        sys = build_advection_diffusion(nx, dx, 0.1, "dirichlet")
        sys.u0[:] = np.sin(np.pi * sys.x)
        grid = SpaceTimeGrid(lx=lx, lt=lt, dx=dx, dt=8 * dx**2)
        out, tr = stmg_two_level(sys, grid, SmootherConfig(eta=0.5, s1=3, s2=3),
                                 cycles=15)
        assert tr.errors[-1] <= 1e-8 * tr.errors[0]


class TestSmoother:
    def test_eta_zero_identity(self):
        sys, grid = heat_grid()
        op = AllAtOnce(sys, 1.0, grid.dt, grid.nt)
        rng = np.random.default_rng(0)
        U = rng.standard_normal((grid.nt, sys.n))

        class _Zero(SmootherConfig):
            pass

        out = block_jacobi_smooth(op, op.rhs(), U.copy(), 1e-30, 1)
        np.testing.assert_allclose(out, U, atol=1e-12)

    def test_single_block_exact_solve(self):
        sys, grid = heat_grid(lt=2)
        op = AllAtOnce(sys, 1.0, grid.dt, 1)
        b = op.rhs()[:1]
        U = block_jacobi_smooth(op, b, np.zeros_like(b), 1.0, 1)
        resid = b - op.apply(U)
        assert np.abs(resid).max() <= 1e-12

    def test_high_frequency_damping_measured(self):
        # inject a high-time-frequency mode and smooth once with eta=1/2
        nx, nt = 32, 64
        dx = 1.0 / nx
        dt = 2.0 * dx**2
        sys = build_heat(nx, dx, 1.0, "periodic")
        op = AllAtOnce(sys, 1.0, dt, nt)
        omega = np.pi / dt * 0.9  # |w dt| = 0.9 pi
        n_idx = np.arange(1, nt + 1)[:, None]
        mode = np.exp(1j * omega * n_idx * dt) * np.ones((1, nx))
        smoothed = mode + 0.5 * op.solve_r1(-op.apply(mode))
        ratio = np.abs(smoothed[1:] / mode[1:]).max()
        assert ratio <= 1.0 / np.sqrt(2.0) + 1e-10


class TestTransfers:
    def test_duality_and_interpolation(self):
        P = prolongation_matrix(7)
        assert P.shape == (15, 7)
        # R = P^T/2 entrywise by construction; prolongation reproduces
        # linear functions at fine interior points
        x_c = np.arange(1, 8) / 8.0
        x_f = np.arange(1, 16) / 16.0
        lin = 2.0 * x_c + 0.3
        got = P @ lin
        want = 2.0 * x_f + 0.3
        interior = slice(1, -1)
        np.testing.assert_allclose(got[interior], want[interior], atol=1e-13)

    def test_time_only_coarsening_flag(self):
        sys, grid = heat_grid(ratio=0.5)  # dt/dx^2 < 1/sqrt(2)
        ops = _two_level(sys, grid, partial(AllAtOnce, theta=1.0))
        assert not ops.coarsen_space and ops.Px is None
        sys2, grid2 = heat_grid(ratio=8.0)
        ops2 = _two_level(sys2, grid2, partial(AllAtOnce, theta=1.0))
        assert ops2.coarsen_space and ops2.Px is not None

    @pytest.mark.parametrize("lx, coarsen", [(2, False), (3, True)])
    def test_space_coarsened_only_to_three_points(self, lx, coarsen):
        # dt = 8 dx^2 asks for space coarsening, but lx = 2 would leave one
        # coarse point: that level coarsens in time only
        sys, grid = heat_grid(lx=lx, lt=4, ratio=8.0)
        assert _two_level(sys, grid, partial(AllAtOnce, theta=1.0)).coarsen_space == coarsen
        out, tr = stmg_two_level(sys, grid, SmootherConfig(eta=0.5), cycles=4)
        assert tr.meta["coarsen_space"] == coarsen
        assert np.isfinite(out).all() and tr.errors[-1] < tr.errors[0]


class TestTwoLevelCycle:
    def test_zero_rhs_zero_guess_stays_zero(self):
        sys, grid = heat_grid()
        sys.u0[:] = 0.0
        out, tr = stmg_two_level(sys, grid, SmootherConfig(eta=0.5), cycles=3)
        np.testing.assert_array_equal(out, 0.0)

    def test_heat_contraction_s1(self):
        # one pre/post sweep at eta=1/2: measured factor sits near 0.43
        sys, grid = heat_grid(ratio=8.0)
        out, tr = stmg_two_level(sys, grid, SmootherConfig(eta=0.5), cycles=12)
        rates = [b / a for a, b in zip(tr.errors[3:-1], tr.errors[4:])
                 if a > 1e-12 and b > 1e-14]
        assert rates and 0.3 <= max(rates) <= 0.55

    def test_heat_contraction_quarter_with_more_smoothing(self):
        sys, grid = heat_grid(ratio=8.0)
        out, tr = stmg_two_level(sys, grid, SmootherConfig(eta=0.5, s1=4, s2=4),
                                 cycles=10)
        rates = [b / a for a, b in zip(tr.errors[3:-1], tr.errors[4:])
                 if a > 1e-12 and b > 1e-14]
        assert rates and max(rates) <= 0.25

    def test_matches_forward_substitution(self):
        sys, grid = heat_grid()
        out, tr = stmg_two_level(sys, grid, SmootherConfig(eta=0.5, s1=2, s2=2),
                                 cycles=25)
        assert tr.errors[-1] <= 1e-10

    def test_trapezoidal_stalls_for_all_eta(self):
        # heat + trapezoidal: the two-level cycle stalls or diverges for
        # every sampled damping, even with many smoothing steps
        sys, grid = heat_grid(lx=4, lt=5, ratio=8.0)
        for eta in np.arange(0.1, 1.11, 0.2):
            for s in (1, 5, 10):
                try:
                    out, tr = stmg_two_level(
                        sys, grid, SmootherConfig(eta=float(eta), s1=s, s2=s),
                        integrator="trapezoidal", cycles=10,
                    )
                    e = tr.errors
                    rate = (e[-1] / e[3]) ** (1.0 / (len(e) - 4)) if e[3] > 0 else 0.0
                    assert rate >= 0.9  # stalled
                except Exception:
                    pass  # divergence guards also count as failure to converge


class TestFas:
    def burgers_grid(self, lx=5, lt=5, nu=0.1):
        nx = 2**lx - 1
        dx = 1.0 / (nx + 1)
        dt = 1.0 * dx**2 * 8
        sys = build_burgers(nx, dx, nu, "dirichlet")
        sys.u0[:] = np.sin(2 * np.pi * sys.x) ** 2
        return sys, SpaceTimeGrid(lx=lx, lt=lt, dx=dx, dt=dt)

    def test_linear_system_rejected(self):
        sys, grid = heat_grid()
        with pytest.raises(ValueError, match="nonlinear system.*stmg_two_level"):
            stmg_fas_nonlinear(sys, grid, SmootherConfig(eta=0.5, s1=1, s2=1), cycles=4)

    def test_fas_fixed_point(self):
        sys, grid = self.burgers_grid()
        from pintlab.stmg import NonlinearAllAtOnce

        op = NonlinearAllAtOnce(sys, grid.dt, grid.nt)
        U_star = op.forward_substitution(op.rhs())
        out, tr = stmg_fas_nonlinear(sys, grid, SmootherConfig(eta=0.25, s1=2, s2=2),
                                     cycles=1, U0=U_star)
        assert np.abs(out[1:] - U_star).max() <= 1e-11 * max(np.abs(U_star).max(), 1)

    def test_burgers_monotone_decay(self):
        sys, grid = self.burgers_grid(nu=0.1)
        out, tr = stmg_fas_nonlinear(sys, grid, SmootherConfig(eta=0.25, s1=2, s2=2),
                                     cycles=25)
        e = tr.errors
        assert all(b <= a * (1 + 1e-12) for a, b in zip(e[:-1], e[1:]))
        assert e[-1] <= 1e-6 * e[0]

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_time_rows_batched_bitwise(self, bc):
        # f_rows is one evaluation and a smoothing step one Newton solve for
        # all time rows; both equal their per-row loops bit for bit
        nx, nt = 31, 15
        dx = 1.0 / (nx + 1 if bc == "dirichlet" else nx)
        sys = build_burgers(nx, dx, 0.05, bc, source=SourcePulse(50.0))
        op = NonlinearAllAtOnce(sys, 8 * dx**2, nt)
        U = np.random.default_rng(5).standard_normal((nt, nx))
        F = np.stack([sys.f(U[n], (n + 1) * op.dt) for n in range(nt)])
        np.testing.assert_array_equal(op.f_rows(U), F)
        b = op.rhs()
        res = 0.25 * (b - op.apply(U))
        dU = np.stack([_newton(sys, op.dt, res[n], 0.0, res[n]) for n in range(nt)])
        np.testing.assert_array_equal(op.smooth(b, U, 0.25, 1), U + dU)

    def test_small_nu_degrades(self):
        # weaker diffusion more than doubles the cycles needed for 1e-6
        sm = SmootherConfig(eta=0.25, s1=2, s2=2)
        counts = {}
        for nu in (0.1, 0.01):
            sys, grid = self.burgers_grid(nu=nu)
            out, tr = stmg_fas_nonlinear(sys, grid, sm, cycles=60)
            e0 = tr.errors[0]
            counts[nu] = next(
                k for k, e in enumerate(tr.errors) if e <= 1e-6 * e0
            )
        assert counts[0.01] >= 2 * counts[0.1]


class TestOneCyclePath:
    @pytest.mark.parametrize("lx,lt", [(4, 2), (2, 4)])
    def test_small_grids_two_level_converges(self, lx, lt):
        # a coarse level of one time step, or of one spatial point
        sys, grid = heat_grid(lx=lx, lt=lt, ratio=0.5)
        _, tr = stmg_two_level(sys, grid, SmootherConfig(eta=0.5, s1=2, s2=2), cycles=4)
        assert tr.errors[-1] < tr.errors[0]

    def test_two_level_records_residuals(self):
        sys, grid = heat_grid(lx=5, lt=6, ratio=8.0)
        sm = SmootherConfig(eta=0.5, s1=2, s2=2)
        _, tr = stmg_two_level(sys, grid, sm, cycles=6)
        assert len(tr.residuals) == len(tr.errors) == 7
        assert tr.residuals[-1] < 1e-2 * tr.residuals[0]


class TestEntryValidation:
    @pytest.mark.parametrize("name", ["sdirk22", "exact", "bogus"])
    def test_non_theta_integrator_named(self, name):
        sys, grid = heat_grid()
        with pytest.raises(ValueError, match=repr(name)):
            stmg_two_level(sys, grid, SmootherConfig(eta=0.5), integrator=name)

    def test_non_finite_u0_two_level(self):
        sys, grid = heat_grid()
        sys.u0[2] = np.inf
        with pytest.raises(ValueError, match="u0"):
            stmg_two_level(sys, grid, SmootherConfig(eta=0.5), cycles=2)

    def test_non_finite_u0_fas(self):
        sys, grid = TestFas().burgers_grid(lx=4, lt=3)
        sys.u0[2] = np.nan
        with pytest.raises(ValueError, match="u0"):
            stmg_fas_nonlinear(sys, grid, SmootherConfig(eta=0.25), cycles=2)
