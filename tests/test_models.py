import numpy as np
import pytest

from pintlab.integrators import Propagator, TimeGrid, backward_euler
from pintlab.kernels import expm_action, solve_shifted_banded
from pintlab.models import (
    CompanionSystem,
    InvalidBoundaryError,
    SourcePulse,
    build_advection_diffusion,
    build_burgers,
    build_heat,
    build_wave,
)
from pintlab.parareal import fine_sequential


def sequential(sys, T, n_steps):
    """Backward Euler at every step: fine_sequential on a grid of one step
    per window."""
    prop = Propagator(backward_euler(), dt=T / n_steps, steps=1)
    return fine_sequential(TimeGrid.uniform(T, n_steps), prop, sys)


class TestHeat:
    def test_periodic_interior_row_and_corners(self):
        sys = build_heat(5, 0.2, 1.0, "periodic")
        scaled = sys.A.scaled(0.2**2 / 1.0)
        # interior row of dx^2 * A / nu is (1, -2, 1)
        np.testing.assert_allclose(scaled.lower, np.ones(4))
        np.testing.assert_allclose(scaled.diag, -2 * np.ones(5))
        np.testing.assert_allclose(scaled.upper, np.ones(4))
        assert scaled.corner_top == pytest.approx(1.0)
        assert scaled.corner_bottom == pytest.approx(1.0)

    def test_dirichlet_decay_is_monotone(self):
        nx = 16
        sys = build_heat(nx, 1.0 / (nx + 1), 1.0, "dirichlet")
        sys.u0[:] = 1.0
        traj = sequential(sys, 0.1, 40)
        norms = np.abs(traj).max(axis=1)
        assert np.all(np.diff(norms) <= 1e-14)
        assert norms[-1] < norms[0]

    def test_invalid_bc(self):
        with pytest.raises(InvalidBoundaryError):
            build_heat(5, 0.1, 1.0, "robin")
        with pytest.raises(InvalidBoundaryError):
            build_heat(5, 0.1, 1.0, "neumann")


class TestAdvectionDiffusion:
    def test_zero_viscosity_spectrum_imaginary(self):
        sys = build_advection_diffusion(5, 0.2, 0.0, "periodic")
        lam = np.linalg.eigvals(sys.A.to_dense())
        np.testing.assert_allclose(lam.real, 0.0, atol=1e-12)

    def test_visc_dominant_spectral_abscissa_negative(self):
        sys = build_advection_diffusion(16, 1.0 / 17, 1.0, "dirichlet")
        lam = np.linalg.eigvals(sys.A.to_dense())
        assert lam.real.max() < 0

    def test_zero_data_zero_trajectory(self):
        sys = build_advection_diffusion(8, 1.0 / 8, 0.1, "periodic")
        traj = sequential(sys, 0.5, 10)
        np.testing.assert_array_equal(traj, 0.0)

    def test_row_sums_vanish_periodic(self):
        sys = build_advection_diffusion(12, 1.0 / 12, 0.3, "periodic")
        np.testing.assert_allclose(sys.A.to_dense().sum(axis=1), 0.0, atol=1e-12)


class TestBurgers:
    def test_zero_state_zero_rhs(self):
        sys = build_burgers(8, 1.0 / 8, 0.1, "periodic")
        np.testing.assert_array_equal(sys.f(np.zeros(8), 0.0), 0.0)

    def test_jacobian_matches_finite_differences(self):
        nx = 16
        sys = build_burgers(nx, 1.0 / nx, 0.1, "periodic")
        rng = np.random.default_rng(0)
        u = rng.standard_normal(nx)
        J = sys.jacobian(u).to_dense()
        eps = 1e-6
        J_fd = np.empty_like(J)
        for j in range(nx):
            e = np.zeros(nx)
            e[j] = eps
            J_fd[:, j] = (sys.f(u + e, 0.0) - sys.f(u - e, 0.0)) / (2 * eps)
        np.testing.assert_allclose(J, J_fd, rtol=1e-6, atol=1e-6)

    def test_jacobian_of_a_linear_system_rejected(self):
        sys = build_heat(8, 1.0 / 9, 1.0, "dirichlet")
        with pytest.raises(ValueError, match="nonlinear system; a linear system's Jacobian is A"):
            sys.jacobian(np.ones(8))

    def test_conservation_of_discrete_integral(self):
        nx = 12
        sys = build_burgers(nx, 1.0 / nx, 0.1, "periodic")
        # conservative form: column sums of both assembled operators vanish
        np.testing.assert_allclose(sys.A.to_dense().sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(sys.B.to_dense().sum(axis=0), 0.0, atol=1e-12)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(nx)
        assert abs(sys.f(u, 0.0).sum()) <= 1e-12 * np.abs(u).max()

    def test_neumann_rejected(self):
        with pytest.raises(InvalidBoundaryError):
            build_burgers(8, 0.1, 0.1, "neumann")


class TestWave:
    def test_zero_speed_keeps_initial_data(self):
        nx = 10
        sys = build_wave(nx, 1.0 / (nx + 1), 0.0, "dirichlet")
        sys.u0[:] = np.sin(np.pi * sys.x)
        traj = sequential(sys, 1.0, 20)
        np.testing.assert_allclose(traj[-1][:nx], sys.u0, atol=1e-12)

    def test_trapezoidal_conserves_wave_energy(self):
        # the trapezoidal rule preserves the quadratic invariant
        # -u'Au + |v|^2 of the companion system exactly (discrete energy;
        # the plain Euclidean norm is this quantity only when -A = I)
        from pintlab.integrators import propagate, trapezoidal

        nx = 12
        sys = build_wave(nx, 1.0 / (nx + 1), np.sqrt(0.2), "dirichlet")
        sys.u0[:] = np.sin(2 * np.pi * sys.x)
        comp = CompanionSystem(sys)

        def energy(w):
            u, v = w[:nx], w[nx:]
            return float(-u @ sys.A.matvec(u) + v @ v)

        w = comp.u0.copy()
        e0 = energy(w)
        prop = Propagator(trapezoidal(), dt=0.05, steps=1)
        for k in range(40):
            w = propagate(prop, comp, k * 0.05, (k + 1) * 0.05, w)
        assert abs(energy(w) - e0) <= 1e-10 * e0

    def test_companion_spectrum_imaginary_periodic(self):
        sys = build_wave(8, 1.0 / 8, 1.0, "periodic")
        lam = np.linalg.eigvals(CompanionSystem(sys).to_dense())
        np.testing.assert_allclose(lam.real, 0.0, atol=1e-10)


    def test_companion_batched_shifts_match_scalar_schur_step(self):
        # the batched Schur step must round exactly like the one-shift
        # formula written out below with scalar (here complex) shifts
        rng = np.random.default_rng(7)
        sys = build_wave(12, 1.0 / 12, 1.0, "periodic")
        comp = CompanionSystem(sys)
        J, m = 32, sys.n
        a = 1.0 + rng.random(J) + 1j * rng.standard_normal(J)
        b = 0.05 * (rng.random(J) + 1j * rng.standard_normal(J))
        R = rng.standard_normal((J, 2 * m)) + 1j * rng.standard_normal((J, 2 * m))
        W = comp.shift_plan(a, b).solve(R)
        for j in range(J):
            aj, bj = a[j], b[j]
            ru, rv = R[j, :m], R[j, m:]
            u = solve_shifted_banded(sys.A, (aj, bj * bj / aj), ru + (bj / aj) * rv)
            v = (rv + bj * sys.A.matvec(u)) / aj
            assert np.array_equal(W[j], np.concatenate([u, v]))
            # and like a one-shot plan for that shift alone
            assert np.array_equal(W[j], comp.shift_plan(aj, bj).solve(R[j]))


class TestSourcePulse:
    def test_peak_values(self):
        sigma = 200.0
        pulse = SourcePulse(sigma)
        x = np.array([0.5])
        for tj in (0.1, 0.6, 1.35, 1.85):
            val = pulse(x, tj)[0]
            # the firing term contributes exactly 10; the rest decay fast
            others = sum(
                10 * np.exp(-sigma * (tj - tk) ** 2) for tk in pulse.centers if tk != tj
            )
            assert val == pytest.approx(10.0 + others)
            assert others <= 3 * 10 * np.exp(-sigma * 0.0625)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            SourcePulse(0.0)

    def test_array_of_times_matches_each_time(self):
        # one call on an array of times equals one call per time, bit for
        # bit: the time term is squared as a Python float squares (libm pow),
        # not as numpy's array square, which rounds a few in 1e3 differently
        pulse = SourcePulse(100.0)
        x = np.linspace(0.0, 1.0, 33)
        ts = np.random.default_rng(0).uniform(0.0, 2.0, (4, 500))
        each = np.stack([[pulse(x, float(t)) for t in row] for row in ts])
        np.testing.assert_array_equal(pulse(x[:, None, None], ts), np.moveaxis(each, 2, 0))
        sys = build_heat(33, 1.0 / 34, 1.0, "dirichlet", source=pulse)
        each = np.stack([sys.g(t) for t in ts[0]], axis=1)
        np.testing.assert_array_equal(sys.g(ts[0]), each)


@pytest.mark.parametrize("build", [build_heat, build_advection_diffusion, build_burgers,
                                   build_wave])
@pytest.mark.parametrize("dx", [0.0, -0.1])
def test_builders_reject_nonpositive_dx(build, dx):
    # dx = 0 used to raise ZeroDivisionError
    with pytest.raises(ValueError, match="dx must be positive"):
        build(8, dx, 1.0, "dirichlet")


class TestReferenceSolve:
    def test_single_be_step_definition(self):
        nx = 6
        sys = build_heat(nx, 1.0 / (nx + 1), 1.0, "dirichlet")
        sys.u0[:] = np.sin(np.pi * sys.x)
        traj = sequential(sys, 0.01, 1)
        expected = np.linalg.solve(np.eye(nx) - 0.01 * sys.A.to_dense(), sys.u0)
        np.testing.assert_allclose(traj[1], expected, atol=1e-13)

    def test_backward_euler_first_order_richardson(self):
        nx = 8
        sys = build_heat(nx, 1.0 / (nx + 1), 1.0, "dirichlet")
        sys.u0[:] = np.sin(np.pi * sys.x)
        ref = sequential(sys, 0.1, 160)[-1]
        e1 = np.abs(sequential(sys, 0.1, 10)[-1] - ref).max()
        e2 = np.abs(sequential(sys, 0.1, 20)[-1] - ref).max()
        assert e1 / e2 == pytest.approx(2.0, rel=0.25)

    def test_matches_exponential_for_linear_heat(self):
        nx = 8
        sys = build_heat(nx, 1.0 / (nx + 1), 1.0, "dirichlet")
        sys.u0[:] = np.sin(np.pi * sys.x)
        n_steps = 200
        traj = sequential(sys, 0.1, n_steps)
        exact = expm_action(sys.A, 0.1, sys.u0)
        err = np.abs(traj[-1] - exact).max()
        a_norm = np.linalg.norm(sys.A.to_dense(), np.inf)
        assert err <= 5.0 * (0.1 / n_steps) * np.abs(exact).max() * a_norm
