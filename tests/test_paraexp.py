import numpy as np
import pytest

import pintlab.paraexp as paraexp_module
from pintlab.integrators import (SOURCE_CHUNK, Propagator, TimeGrid, backward_euler, propagate,
                                 trapezoidal)
from pintlab.kernels import expm_action
from pintlab.models import SourcePulse, build_burgers, build_heat, build_wave
from pintlab.paraexp import (
    ParaExpPlan,
    linear_g_parareal,
    paraexp_linear_solve,
    paraexp_nonlinear_iterate,
)
from pintlab.parareal import fine_sequential


def heat_with_pulse(nx=32, nu=1.0, sigma=200.0):
    dx = 1.0 / (nx + 1)
    return build_heat(nx, dx, nu, "dirichlet", source=SourcePulse(sigma))


def make_plan(T, n_w, J, method=None):
    grid = TimeGrid.uniform(T, n_w)
    dT = grid.window_length()
    red = Propagator(method or trapezoidal(), dt=dT / J, steps=J)
    return ParaExpPlan(grid=grid, red=red)


def oracle(plan, sys):
    """The sequential fine solution the iterative solvers measure against."""
    return fine_sequential(plan.grid, plan.red, sys)


class TestLinearParaExp:
    def test_single_window_homogeneous_is_expm(self):
        sys = build_heat(16, 1.0 / 17, 1.0, "dirichlet")
        sys.u0[:] = np.sin(np.pi * sys.x)
        plan = make_plan(0.3, 1, 8)
        out = paraexp_linear_solve(plan, sys)
        np.testing.assert_allclose(out[-1], expm_action(sys.A, 0.3, sys.u0), atol=1e-11)

    def test_zero_source_any_windows_telescopes(self):
        sys = build_heat(16, 1.0 / 17, 1.0, "dirichlet")
        sys.u0[:] = np.sin(np.pi * sys.x)
        plan = make_plan(0.3, 5, 4)
        out = paraexp_linear_solve(plan, sys)
        for j, t in enumerate(plan.grid.boundaries):
            np.testing.assert_allclose(out[j], expm_action(sys.A, t, sys.u0), atol=1e-10)

    def test_pulse_source_matches_sequential_oracle(self):
        # endpoint error is the red integrator's discretization error; the
        # superposition itself adds only ~1e-10 slack
        sys = heat_with_pulse()
        T, n_w, J = 2.0, 4, 64
        plan = make_plan(T, n_w, J)
        out = paraexp_linear_solve(plan, sys)

        # sequential oracle with the same red integrator
        from pintlab.parareal import fine_sequential

        seq = fine_sequential(plan.grid, plan.red, sys)
        disc_err_scale = np.abs(seq).max()
        # superposition residual: compare against a 4x finer红 reference
        plan_fine = make_plan(T, n_w, 4 * J)
        ref = paraexp_linear_solve(plan_fine, sys)
        red_disc_error = np.abs(seq - ref).max()
        assert np.abs(out - seq).max() <= red_disc_error + 1e-10 * disc_err_scale

    def test_source_superposition_linearity(self):
        nx = 24
        dx = 1.0 / (nx + 1)
        p1 = SourcePulse(100.0, centers=(0.1, 0.6))
        p2 = SourcePulse(100.0, centers=(1.35, 1.85))
        both = lambda x, t: p1(x, t) + p2(x, t)
        sys12 = build_heat(nx, dx, 1.0, "dirichlet", source=both)
        sys1 = build_heat(nx, dx, 1.0, "dirichlet", source=p1)
        sys2 = build_heat(nx, dx, 1.0, "dirichlet", source=p2)
        plan = make_plan(2.0, 4, 32)
        out12 = paraexp_linear_solve(plan, sys12)
        out1 = paraexp_linear_solve(plan, sys1)
        out2 = paraexp_linear_solve(plan, sys2)
        # u0 contributes to both runs; subtract one homogeneous trajectory
        sys0 = build_heat(nx, dx, 1.0, "dirichlet")
        out0 = paraexp_linear_solve(make_plan(2.0, 4, 32), sys0)
        np.testing.assert_allclose(out12, out1 + out2 - out0, atol=1e-10)

    def test_window_count_invariance(self):
        sys = heat_with_pulse(nx=16)
        ref = None
        for n_w, J in ((2, 96), (4, 48), (8, 24)):
            plan = make_plan(2.0, n_w, J)
            out = paraexp_linear_solve(plan, sys)
            if ref is None:
                ref = (plan.grid.boundaries, out)
            else:
                idx = np.searchsorted(plan.grid.boundaries, ref[0])
                # compare at the shared boundaries (coarsest set)
                shared = [np.where(np.isclose(plan.grid.boundaries, t))[0][0]
                          for t in ref[0]]
                diff = np.abs(out[shared] - ref[1]).max()
                # fine step dt is identical across decompositions, so the
                # differences are pure red-discretization rearrangement
                assert diff <= 2e-4

    def test_endpoints_match_per_window_propagate_bitwise(self):
        # the red windows run as the columns of one block march; on
        # Dirichlet heat each column equals its own window's run bit for bit
        sys = heat_with_pulse(nx=16)
        plan = make_plan(2.0, 4, 2 * SOURCE_CHUNK + 5)
        out = paraexp_linear_solve(plan, sys)
        ref = np.empty((plan.grid.n_windows + 1, sys.n))
        ref[0] = sys.u0
        for j in range(plan.grid.n_windows):
            t0, t1 = plan.grid.window(j)
            red = propagate(plan.red, sys, t0, t1, np.zeros(sys.n))
            ref[j + 1] = red + expm_action(sys, plan.grid.window_length(j), ref[j])
        assert out.tobytes() == ref.tobytes()

    def test_wave_companion_supported(self):
        sys = build_wave(16, 1.0 / 17, 1.0, "dirichlet")
        sys.u0[:] = np.sin(np.pi * sys.x)
        plan = make_plan(0.5, 4, 16)
        out = paraexp_linear_solve(plan, sys)
        from pintlab.models import CompanionSystem

        comp = CompanionSystem(sys)
        np.testing.assert_allclose(
            out[-1], expm_action(comp, 0.5, comp.u0), atol=1e-10
        )


class TestNonlinearParaExp:
    def burgers(self, nu=1.0, nx=50):
        sys = build_burgers(nx, 1.0 / nx, nu, "periodic")
        sys.u0[:] = np.sin(2 * np.pi * sys.x) ** 2
        return sys

    @pytest.mark.parametrize("method", [backward_euler(), trapezoidal()], ids=str)
    def test_linear_problem_converges_quickly(self, method):
        # on a linear problem (B = 0) a theta window integrator converges to
        # its own sequential limit in a few iterations
        sys = build_heat(16, 1.0 / 17, 1.0, "dirichlet")
        sys.u0[:] = np.sin(np.pi * sys.x)
        plan = make_plan(0.5, 4, 8, method=method)
        _, trace = paraexp_nonlinear_iterate(plan, sys, oracle(plan, sys))
        assert trace.errors[0] > 1e-10  # exponential stitching vs theta windows
        assert trace.errors[3] <= 1e-10  # but convergence is rapid

    def test_finite_termination(self):
        sys = self.burgers(nu=1.0, nx=32)
        n_w = 5
        plan = make_plan(1.0, n_w, 10, method=backward_euler())
        plan.tol = 0.0
        plan.max_iter = n_w
        U, trace = paraexp_nonlinear_iterate(plan, sys, oracle(plan, sys))
        assert trace.errors[n_w - 1] <= 1e-10

    def test_bitwise_equality_with_linear_g_parareal(self):
        sys = self.burgers(nu=1.0, nx=50)
        plan = make_plan(1.0, 5, 10, method=backward_euler())
        plan.max_iter = 4
        plan.tol = 0.0
        U1, tr1 = paraexp_nonlinear_iterate(plan, sys, oracle(plan, sys))
        U2, tr2 = linear_g_parareal(plan, sys, oracle(plan, sys))
        np.testing.assert_array_equal(U1, U2)
        assert tr1.errors == tr2.errors


class TestCoarseCache:
    @pytest.mark.parametrize("solver", [paraexp_nonlinear_iterate, linear_g_parareal])
    def test_n_w_exponentials_per_iteration(self, monkeypatch, solver):
        # exp(dT A) of the previous iterate is reused: the stitching sweep of
        # each iteration makes n_w expm_action calls, the initial sweep too
        nx, n_w = 16, 4
        sys = build_burgers(nx, 1.0 / nx, 1.0, "periodic")
        sys.u0[:] = np.sin(2 * np.pi * sys.x) ** 2
        plan = make_plan(0.5, n_w, 5, method=backward_euler())
        plan.max_iter = 3
        plan.tol = 0.0
        real = paraexp_module.expm_action
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(paraexp_module, "expm_action", counting)
        _, trace = solver(plan, sys, oracle(plan, sys))
        assert trace.iterations == 3
        assert len(calls) == n_w * trace.iterations
