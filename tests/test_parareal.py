import dataclasses

import numpy as np
import pytest

from pintlab.integrators import (
    Propagator,
    TimeGrid,
    backward_euler,
    propagate_block,
    sdirk22,
    trapezoidal,
    window_matrix,
)
import pintlab.parareal as parareal_module
from pintlab import experiments
from pintlab.kernels import EXPM_DENSE_MAX, ShiftPlan
from pintlab.models import (
    SourcePulse,
    build_advection_diffusion,
    build_burgers,
    build_heat,
    build_wave,
    first_order_form,
)
from pintlab.paradiag import alpha_circulant_factor
from pintlab.paraexp import ParaExpPlan
from pintlab.parareal import (
    PararealConfig,
    fine_sequential,
    max_rho_negative_axis,
    mgrit_fcf_solve,
    mgrit_rho_linear,
    parareal_diag_cgc_solve,
    parareal_diag_coarse_solve,
    parareal_solve,
    rho_linear,
    stability_function,
)


def heat_system(nx=32, nu=0.1, bc="dirichlet", mode=1):
    dx = 1.0 / (nx + 1) if bc == "dirichlet" else 1.0 / nx
    sys = build_heat(nx, dx, nu, bc)
    sys.u0[:] = np.sin(mode * np.pi * sys.x) if bc == "dirichlet" else np.sin(
        2 * np.pi * sys.x
    )
    return sys


def make_cfg(T, n_w, J, fine_method=None, coarse_method=None, **kw):
    grid = TimeGrid.uniform(T, n_w)
    dT = grid.window_length()
    fine = Propagator(fine_method or backward_euler(), dt=dT / J, steps=J)
    coarse = Propagator(coarse_method or backward_euler(), dt=dT, steps=1)
    return PararealConfig(grid=grid, fine=fine, coarse=coarse, **kw)


class TestClassicParareal:
    def test_g_equals_f_converges_first_iteration(self):
        sys = heat_system()
        grid = TimeGrid.uniform(1.0, 8)
        dT = grid.window_length()
        prop = Propagator(backward_euler(), dt=dT, steps=1)
        cfg = PararealConfig(grid=grid, fine=prop, coarse=prop, max_iter=3)
        U, trace = parareal_solve(cfg, sys)
        assert trace.errors[1] <= 1e-12

    @pytest.mark.parametrize("model", ["heat", "ad", "wave"])
    def test_finite_termination(self, model):
        n_w = 10
        if model == "heat":
            sys = heat_system(nx=16)
        elif model == "ad":
            sys = build_advection_diffusion(16, 1.0 / 16, 0.1, "periodic")
            sys.u0[:] = np.sin(2 * np.pi * sys.x)
        else:
            sys = build_wave(16, 1.0 / 17, np.sqrt(0.2), "dirichlet")
            sys.u0[:] = np.sin(np.pi * sys.x)
        cfg = make_cfg(1.0, n_w, 4, fine_method=trapezoidal(), max_iter=n_w, tol=0.0)
        U, trace = parareal_solve(cfg, sys)
        scale = max(np.abs(fine_sequential(cfg.grid, cfg.fine, sys)).max(), 1.0)
        assert trace.errors[n_w] <= 1e-10 * scale

    def test_heat_contraction_factor(self):
        # BE coarse / BE fine on heat contracts by <= 0.35 per iteration
        sys = heat_system(nx=64, nu=0.1, bc="periodic")
        cfg = make_cfg(4.0, 40, 10, max_iter=12, tol=1e-13)
        U, trace = parareal_solve(cfg, sys)
        e = trace.errors
        factors = [b / a for a, b in zip(e[2:-1], e[3:]) if a > 1e-11]
        assert factors and max(factors) <= 0.35

    def test_rho_linear_is_upper_envelope(self):
        # Dahlquist sweep: measured contraction never exceeds max rho_l by
        # more than 5 percent once asymptotic
        from pintlab.kernels import BandedMatrix
        from pintlab.models import SemiDiscreteSystem

        lams = -np.array([0.5, 2.0, 8.0, 32.0])
        J, dT = 10, 0.25
        A = BandedMatrix(lams.copy(), np.zeros(3), np.zeros(3))
        sys = SemiDiscreteSystem(A=A, u0=np.ones(4), dx=1.0, bc="dirichlet",
                                 kind="heat", x=np.zeros(4))
        cfg = make_cfg(8.0, 32, J, max_iter=14, tol=1e-14)
        U, trace = parareal_solve(cfg, sys)
        Rg = stability_function(backward_euler())
        bound = float(np.max(rho_linear(Rg, Rg, J, lams * dT)))
        e = trace.errors
        factors = [b / a for a, b in zip(e[3:-1], e[4:]) if a > 1e-12]
        assert factors and max(factors) <= bound * 1.05

    def test_advection_degradation_monotone(self):
        J, dT = 32, 0.1
        Rg = stability_function(backward_euler())
        Rf = stability_function(sdirk22())
        maxima = []
        for nu in (1.0, 0.1, 0.01):
            sys = build_advection_diffusion(128, 1.0 / 128, nu, "periodic")
            z = np.linalg.eigvals(sys.A.to_dense()) * dT
            z = z[np.abs(1 - np.abs(Rg(z))) > 1e-14]
            maxima.append(float(np.max(rho_linear(Rg, Rf, J, z))))
        assert maxima[0] <= maxima[1] <= maxima[2]


class TestWindowSpan:
    def test_window_the_propagator_does_not_span_rejected(self):
        # one window matrix serves every window, so every window must be the
        # propagator's span: the oracle and the configurations refuse a
        # non-uniform grid and a uniform one of another window length
        sys = heat_system(nx=8)
        prop = Propagator(backward_euler(), dt=0.125, steps=2)
        for grid in (TimeGrid(np.array([0.0, 0.25, 0.6])), TimeGrid.uniform(1.0, 3)):
            with pytest.raises(ValueError, match="fine propagator does not span every window"):
                fine_sequential(grid, prop, sys)
            with pytest.raises(ValueError, match="fine propagator does not span every window"):
                PararealConfig(grid=grid, fine=prop, coarse=prop)
            with pytest.raises(ValueError, match="red propagator does not span every window"):
                ParaExpPlan(grid=grid, red=prop)


class TestInputValidation:
    @pytest.mark.parametrize("build, field", [
        (lambda: make_cfg(1.0, 4, 2, initial_guess="rand"), "initial_guess"),
        (lambda: TimeGrid.uniform(1.0, 2.5), "n_windows"),
        (lambda: Propagator(backward_euler(), dt=0.1, steps=2.5), "steps"),
    ], ids=["initial_guess", "n_windows", "steps"])
    def test_bad_input_names_its_field(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()


class TestRhoPredictors:
    def test_identical_solvers_give_zero(self):
        # identical propagators means R_g(z) = R_f^J(z/J), i.e., J = 1
        Rg = stability_function(backward_euler())
        assert rho_linear(Rg, Rg, 1, -3.0) == 0.0

    def test_be_exact_parareal_ceiling(self):
        Rg = stability_function(backward_euler())
        got = max_rho_negative_axis(lambda z: rho_linear(Rg, np.exp, 1, z))
        assert got == pytest.approx(0.2984, abs=0.002)

    def test_be_exact_mgrit_ceiling(self):
        Rg = stability_function(backward_euler())
        got = max_rho_negative_axis(lambda z: mgrit_rho_linear(Rg, np.exp, 1, z))
        assert got == pytest.approx(0.1115, abs=0.002)

    def test_be_sdirk22_heat_spectrum_near_03(self):
        sys = heat_system(nx=128, nu=0.1, bc="periodic")
        dT, J = 0.1, 50
        z = np.linalg.eigvals(sys.A.to_dense()).real * dT
        z = z[z < -1e-12]
        Rg = stability_function(backward_euler())
        Rf = stability_function(sdirk22())
        got = float(np.max(rho_linear(Rg, Rf, J, z)))
        assert got == pytest.approx(0.3, abs=0.05)

    def test_pole_guard(self):
        Rg = stability_function(trapezoidal())
        with pytest.raises(ZeroDivisionError):
            rho_linear(Rg, Rg, 2, 0.0)  # |Rg(0)| = 1


class TestMgrit:
    def test_g_equals_f_converges_first_iteration(self):
        sys = heat_system()
        grid = TimeGrid.uniform(1.0, 8)
        dT = grid.window_length()
        prop = Propagator(backward_euler(), dt=dT, steps=1)
        cfg = PararealConfig(grid=grid, fine=prop, coarse=prop, max_iter=3)
        U, trace = mgrit_fcf_solve(cfg, sys)
        assert trace.errors[1] <= 1e-12

    def test_finite_termination_half_nt(self):
        n_w = 10
        sys = heat_system(nx=16)
        cfg = make_cfg(1.0, n_w, 4, max_iter=n_w, tol=0.0)
        U, trace = mgrit_fcf_solve(cfg, sys)
        k = -(-n_w // 2)
        assert trace.errors[k] <= 1e-10

    def test_two_fine_solves_per_window_counted(self):
        sys = heat_system(nx=8)
        cfg = make_cfg(1.0, 6, 2, max_iter=2, tol=0.0)
        _, trace = mgrit_fcf_solve(cfg, sys)
        assert trace.fine_solves == 2 * 6 * 2

    def test_contracts_faster_than_parareal(self):
        sys = heat_system(nx=32, nu=0.1, bc="periodic")
        cfg = make_cfg(4.0, 20, 10, fine_method=sdirk22(), max_iter=8, tol=1e-13)
        _, tr_p = parareal_solve(cfg, sys)
        _, tr_m = mgrit_fcf_solve(cfg, sys)
        k = 4
        assert tr_m.errors[k] < tr_p.errors[k]


class TestDiagCgc:
    def test_alpha_limit_matches_classic(self):
        sys = heat_system()
        cfg_c = make_cfg(2.0, 10, 10, fine_method=sdirk22(), max_iter=1, tol=0.0)
        Uc, _ = parareal_solve(cfg_c, sys)
        best = None
        for alpha, tol in ((1e-3, None), (1e-8, 1e-7)):
            cfg_d = make_cfg(2.0, 10, 10, fine_method=sdirk22(), max_iter=1, tol=0.0,
                             alpha=alpha)
            Ud, _ = parareal_diag_cgc_solve(cfg_d, sys)
            diff = np.abs(Ud - Uc).max()
            if tol is not None:
                assert diff <= tol
                assert best / diff >= 100  # small alpha recovers the classic CGC
            best = diff

    def test_threshold_alpha_matches_classic_rate(self):
        # heat: classic rho ~ 0.22; alpha below rho/(1+rho) ~ 0.18 matches it
        sys = heat_system(nx=64, nu=0.1, bc="periodic")
        cfg_c = make_cfg(4.0, 40, 10, fine_method=sdirk22(), max_iter=10, tol=1e-12)
        _, tr_c = parareal_solve(cfg_c, sys)
        cfg_d = make_cfg(4.0, 40, 10, fine_method=sdirk22(), max_iter=10, tol=1e-12,
                         alpha=0.18)
        _, tr_d = parareal_diag_cgc_solve(cfg_d, sys)

        def rate(tr):
            e = tr.errors
            fs = [b / a for a, b in zip(e[2:-1], e[3:]) if a > 1e-10 and b > 1e-12]
            return np.exp(np.mean(np.log(fs)))

        assert rate(tr_d) == pytest.approx(rate(tr_c), rel=0.10)

    def test_large_alpha_slows_contraction(self):
        # the head-tail coupling degrades the rate once alpha exceeds the
        # threshold; visible when a slow mode keeps the tail error alive
        from pintlab.kernels import BandedMatrix
        from pintlab.models import SemiDiscreteSystem

        lams = np.array([-2.0, -30.0])
        A = BandedMatrix(lams.copy(), np.zeros(1), np.zeros(1))
        sys = SemiDiscreteSystem(A=A, u0=np.ones(2), dx=1.0, bc="dirichlet",
                                 kind="heat", x=np.zeros(2))

        def late_rate(alpha):
            cfg = make_cfg(2.0, 20, 10, fine_method=sdirk22(), alpha=alpha, max_iter=25, tol=1e-13)
            _, tr = parareal_diag_cgc_solve(cfg, sys)
            e = tr.errors
            fs = [b / a for a, b in zip(e[4:-1], e[5:]) if a > 1e-12 and b > 1e-13]
            return np.exp(np.mean(np.log(fs)))

        assert late_rate(0.5) >= 1.05 * late_rate(0.05)

    @pytest.mark.parametrize("coarse", ["trapezoidal", "two_be_steps"])
    def test_other_coarse_propagators_rejected(self, coarse):
        # the all-at-once correction inverts one backward-Euler step per
        # window; any other coarse propagator would be mixed with it
        cfg = make_cfg(1.0, 4, 2, alpha=0.1)
        dT = cfg.grid.window_length()
        cfg = dataclasses.replace(cfg, coarse={
            "trapezoidal": Propagator(trapezoidal(), dt=dT, steps=1),
            "two_be_steps": Propagator(backward_euler(), dt=dT / 2, steps=2),
        }[coarse])
        with pytest.raises(ValueError, match="one backward-Euler step per window"):
            parareal_diag_cgc_solve(cfg, heat_system(nx=8))

    @pytest.mark.parametrize("solve", [parareal_diag_cgc_solve, parareal_diag_coarse_solve])
    @pytest.mark.parametrize("alpha", [1.0, 0.0])
    def test_alpha_outside_unit_interval_rejected(self, solve, alpha, monkeypatch):
        # each diagonalized solver checks alpha itself, before any oracle work
        def no_oracle(*args):
            raise AssertionError("oracle computed before alpha was checked")

        monkeypatch.setattr(parareal_module, "fine_sequential", no_oracle)
        cfg = make_cfg(1.0, 4, 2, fine_method=trapezoidal(), alpha=alpha)
        with pytest.raises(ValueError, match="alpha"):
            solve(cfg, heat_system(nx=8))

    @pytest.mark.parametrize("solve", [parareal_diag_cgc_solve, parareal_diag_coarse_solve])
    def test_nonlinear_system_rejected_before_any_solve(self, solve, monkeypatch):
        # both diagonalized solvers factor one linear operator for all
        # windows, so a Burgers system is named and refused up front
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the nonlinear system was rejected")

        for name in ("fine_sequential", "propagate", "propagate_block"):
            monkeypatch.setattr(parareal_module, name, no_solve)
        sys = build_burgers(16, 1.0 / 16, 0.5, "periodic")
        sys.u0[:] = np.sin(2 * np.pi * sys.x) ** 2
        cfg = make_cfg(1.0, 4, 2, fine_method=trapezoidal(), alpha=0.1)
        with pytest.raises(ValueError, match="linear systems only, got the nonlinear 'burgers'"):
            solve(cfg, sys)

    def test_source_rejected_before_any_solve(self, monkeypatch):
        # the all-at-once correction carries no source, so a sourced system
        # converged to a wrong fixed point: on this heat system the error
        # stalled at 1.1 where classic Parareal reaches 3.3e-16 in 8 iterations
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the source was rejected")

        for name in ("fine_sequential", "propagate", "propagate_block", "alpha_circulant_factor"):
            monkeypatch.setattr(parareal_module, name, no_solve)
        cfg = make_cfg(1.0, 8, 4, fine_method=trapezoidal(), alpha=0.01)
        with pytest.raises(ValueError, match="diag CGC takes systems without a source term"):
            parareal_diag_cgc_solve(cfg, sourced_heat())


class TestFiniteTerminationAllVariants:
    def test_diag_coarse_terminates_like_classic(self):
        sys = heat_system(nx=12)
        n_w = 6
        cfg = make_cfg(0.5, n_w, 4, fine_method=trapezoidal(),
                       coarse_method=trapezoidal(), alpha=0.05, max_iter=n_w, tol=0.0)
        _, tr = parareal_diag_coarse_solve(cfg, sys)
        assert tr.errors[n_w] <= 1e-10 * tr.errors[0]

    def test_diag_cgc_linear_convergence_only(self):
        # the head-tail coupling trades exact finite termination for a
        # parallel CGC; convergence is linear at the classic rate instead
        sys = heat_system(nx=12)
        n_w = 6
        cfg = make_cfg(0.5, n_w, 4, fine_method=sdirk22(), alpha=0.1, max_iter=3 * n_w, tol=0.0)
        _, tr = parareal_diag_cgc_solve(cfg, sys)
        assert tr.errors[n_w] > 1e-10 * tr.errors[0]  # no finite cutoff
        assert tr.errors[-1] <= 1e-10  # but it converges well past it


def head_tail_reference(cfg, target):
    """The coarse map of :func:`parareal_diag_coarse_solve` as one all-at-once
    head-tail theta solve per call (DFT in time, J shifted solves, inverse
    DFT): the reference for the matrix the solver forms once."""
    theta, J, dt, alpha = cfg.fine.method.theta, cfg.fine.steps, cfg.fine.dt, cfg.alpha
    c1 = np.zeros(J)
    c1[0] = 1.0
    if J > 1:
        c1[1] = -1.0
    fac_c = alpha_circulant_factor(c1, alpha)
    ctheta = np.zeros(J)
    ctheta[0] = theta
    if J > 1:
        ctheta[1] = 1.0 - theta
    fac_t = alpha_circulant_factor(ctheta, alpha)
    star_plan = target.shift_plan(fac_c.eigenvalues, dt * fac_t.eigenvalues)

    def coarse_star(n, u_n):
        rhs = np.zeros((J, u_n.shape[0]))
        v0 = (1.0 - alpha) * u_n
        rhs[0] = v0 + dt * (1.0 - theta) * target.matvec(v0)
        return fac_c.solve(star_plan, rhs)[-1].real

    return coarse_star


def c14_heat(alpha):
    """C14's diag-coarse heat system and configuration."""
    sys = build_heat(50, 1.0 / 51, 0.05, "dirichlet")
    sys.u0[:] = np.sin(2 * np.pi * sys.x) ** 2
    cfg = experiments._parareal_cfg(8.0, 96, 10, fine="trapezoidal", coarse="trapezoidal",
                                    max_iter=7, tol=1e-13, alpha=alpha)
    return sys, cfg


class TestDiagCoarse:
    @pytest.mark.parametrize("model, alpha", [("heat", 1e-2), ("heat", 1e-3), ("wave", 1e-4)])
    def test_coarse_matrix_matches_per_call_solve(self, monkeypatch, model, alpha):
        # C14's systems and alphas: M u equals the per-call head-tail solve up
        # to the roundoff of the alpha-scaled transforms both make (up to
        # 2.0e-13 relative, wave at alpha = 1e-4)
        if model == "heat":
            sys, cfg = c14_heat(alpha)
        else:
            sys = build_wave(32, 1.0 / 32, 1.0, "periodic")
            sys.u0[:] = np.sin(2 * np.pi * sys.x) ** 2
            cfg = make_cfg(2.0, 24, 10, fine_method=trapezoidal(),
                           coarse_method=trapezoidal(), alpha=alpha)
        cfg = dataclasses.replace(cfg, max_iter=0)
        target = first_order_form(sys)
        seen = record_sweep(monkeypatch)
        parareal_diag_coarse_solve(cfg, sys, oracle=np.zeros((cfg.grid.n_windows + 1, target.n)))
        reference = head_tail_reference(cfg, target)
        rng = np.random.default_rng(3)
        for n in range(8):
            u = rng.standard_normal(target.n)
            ref = reference(n, u)
            assert np.linalg.norm(seen["coarse"](n, u) - ref) <= 5e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("alpha", [1e-2, 1e-3])
    def test_c14_heat_rate_matches_per_call_solve(self, alpha):
        # C14's heat `rate` cells are ratios of errors down to ~1e-13, so the
        # roundoff of the coarse matrix moves them (2.7e-3 relative at
        # alpha = 1e-3); they stay within 1% of the per-call solve's
        sys, cfg = c14_heat(alpha)
        oracle = fine_sequential(cfg.grid, cfg.fine, sys)
        _, trace = parareal_diag_coarse_solve(cfg, sys, oracle=oracle)
        _, trace_ref = parareal_module._iterate(cfg, sys, head_tail_reference(cfg, sys), oracle,
                                                "reference")

        def rate(tr):
            return experiments._geo_mean(tr.contraction_factors(skip=1))

        assert rate(trace) == pytest.approx(rate(trace_ref), rel=0.01)

    @pytest.mark.parametrize("model, message", [
        ("heat", "systems without a source term"),
        ("wave", "second-order system takes no source term"),
    ], ids=["heat", "wave"])
    def test_source_rejected_before_any_solve(self, monkeypatch, model, message):
        # a source would make the coarse map affine and different on every
        # window, not one matrix: it is named and refused up front, and a
        # second-order system refuses one when it is made
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the source was rejected")

        for name in ("fine_sequential", "propagate", "propagate_block", "alpha_circulant_factor"):
            monkeypatch.setattr(parareal_module, name, no_solve)
        heat = build_heat(12, 1.0 / 13, 0.2, "dirichlet", source=SourcePulse(50.0))
        make = {"heat": lambda: heat,
                "wave": lambda: dataclasses.replace(build_wave(12, 1.0 / 13, 0.2, "dirichlet"),
                                                    source=heat.source)}[model]
        cfg = make_cfg(1.0, 4, 2, fine_method=trapezoidal(), alpha=0.1)
        with pytest.raises(ValueError, match=message):
            parareal_diag_coarse_solve(cfg, make())

    def test_alpha_zero_limit_one_iteration(self):
        # alpha -> 0: the head-tail coarse solver IS the fine solver
        sys = heat_system(nx=24)
        cfg = make_cfg(1.0, 8, 10, fine_method=trapezoidal(),
                       coarse_method=trapezoidal(), alpha=1e-10, max_iter=2, tol=0.0)
        U, trace = parareal_diag_coarse_solve(cfg, sys)
        # floored by the eps/alpha roundoff of the scaled-Fourier transform
        assert trace.errors[1] <= 1e-6

    @pytest.mark.parametrize("alpha", [1e-2, 1e-3])
    def test_heat_contraction_equals_alpha(self, alpha):
        # rate = alpha holds on the slow end of the spectrum in the linear
        # regime: small diffusion plus enough windows
        sys = heat_system(nx=50, nu=0.05)
        sys.u0[:] = np.sin(2 * np.pi * sys.x) ** 2
        cfg = make_cfg(8.0, 96, 10, fine_method=trapezoidal(),
                       coarse_method=trapezoidal(), alpha=alpha, max_iter=7, tol=1e-13)
        U, trace = parareal_diag_coarse_solve(cfg, sys)
        e = trace.errors
        factors = [b / a for a, b in zip(e[1:-1], e[2:]) if a > 1e-11 and b > 1e-13]
        mean = np.exp(np.mean(np.log(factors)))
        assert mean == pytest.approx(alpha, rel=0.3)

    def test_wave_error_bounded_by_linear_factor(self):
        # companion wave: trace errors bounded by (2 alpha N_t/(1+alpha))^k
        nx = 32
        sys = build_wave(nx, 1.0 / nx, 1.0, "periodic")
        sys.u0[:] = np.sin(2 * np.pi * sys.x) ** 2
        n_w, alpha = 24, 1e-4
        cfg = make_cfg(2.0, n_w, 10, fine_method=trapezoidal(),
                       coarse_method=trapezoidal(), alpha=alpha, max_iter=6, tol=1e-12)
        U, trace = parareal_diag_coarse_solve(cfg, sys)
        rho = 2 * alpha * n_w / (1 + alpha)
        e0 = trace.errors[0]
        for k, e in enumerate(trace.errors):
            # 1e-10 absolute floor: eps/alpha roundoff of the transforms
            assert e <= 1.5 * e0 * rho**k + 1e-10


def full_sweeps(cfg, target, coarse, U, iterations):
    """Parareal iterates with every fine and coarse window solved in every
    iteration, written out apart from the solver: the reference its sweep
    must match bit for bit.  A system with a fine window matrix multiplies
    all windows by it, one without steps them all."""
    n_w = cfg.grid.n_windows
    G_old = np.stack([coarse(n, U[n]) for n in range(n_w)])
    F_matrix = window_matrix(cfg.fine, target)
    for _ in range(iterations):
        F = (U[:-1] @ F_matrix.T if F_matrix is not None else
             propagate_block(cfg.fine, target, cfg.grid.boundaries[:-1], U[:-1].T.copy()).T)
        U_new = np.empty_like(U)
        U_new[0] = U[0]
        for n in range(n_w):
            g_new = coarse(n, U_new[n])
            U_new[n + 1] = F[n] + g_new - G_old[n]
            G_old[n] = g_new
        U = U_new
    return U


def record_sweep(monkeypatch):
    """Capture the target, the coarse map and U^0 a solver starts its sweeps from."""
    seen = {}
    real = parareal_module._initial_iterate

    def recording(cfg, target, coarse):
        U = real(cfg, target, coarse)
        seen.update(target=target, coarse=coarse, U0=U.copy())
        return U

    monkeypatch.setattr(parareal_module, "_initial_iterate", recording)
    return seen


def sourced_heat(nx=12, bc="dirichlet"):
    """A heat system with a source: it has no window matrix and steps."""
    dx = 1.0 / (nx + 1) if bc == "dirichlet" else 1.0 / nx
    sys = build_heat(nx, dx, 0.2, bc, source=SourcePulse(50.0))
    sys.u0[:] = np.sin(2 * np.pi * sys.x) + 0.3 * np.cos(6 * np.pi * sys.x)
    return sys


class TestCoarseCache:
    """A correction sweep solves every window, fine and coarse, in every
    iteration, and keeps G(U^k[n]) from the sweep before: a coarse initial
    sweep already holds G(U^0[n]) as U^0[n+1], and a random guess makes one
    coarse pass over U^0.  The iterates are bit for bit those of
    :func:`full_sweeps`."""

    @pytest.mark.parametrize("guess", ["coarse", "random"])
    def test_classic_n_w_coarse_propagations_per_iteration(self, monkeypatch, guess):
        sys = sourced_heat()
        n_w = 6
        cfg = make_cfg(1.0, n_w, 4, max_iter=3, tol=0.0, initial_guess=guess)
        oracle = fine_sequential(cfg.grid, cfg.fine, sys)
        real, real_block = parareal_module.propagate, parareal_module.propagate_block
        calls, fine_cols = [], []

        def counting(prop, *args, **kwargs):
            calls.append(prop is cfg.coarse)
            return real(prop, *args, **kwargs)

        def counting_block(prop, sys, t0s, U, **kwargs):
            fine_cols.append(U.shape[1])
            return real_block(prop, sys, t0s, U, **kwargs)

        monkeypatch.setattr(parareal_module, "propagate", counting)
        monkeypatch.setattr(parareal_module, "propagate_block", counting_block)
        seen = record_sweep(monkeypatch)
        U, trace = parareal_solve(cfg, sys, oracle=oracle)
        assert trace.iterations == 4
        assert sum(calls) == n_w * trace.iterations
        assert fine_cols == [n_w] * 3
        ref = full_sweeps(cfg, sys, seen["coarse"], seen["U0"], 3)
        assert U.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("guess", ["coarse", "random"])
    def test_diag_coarse_n_w_coarse_star_calls_per_iteration(self, monkeypatch, guess):
        # the coarse matrix is formed first, by one batched shifted solve (a
        # plan solve over the J eigenvalue shifts) per identity column; every
        # coarse call after that is a matvec and solves nothing
        sys = heat_system(nx=12)
        n_w = 6
        cfg = make_cfg(0.5, n_w, 4, fine_method=trapezoidal(),
                       coarse_method=trapezoidal(), alpha=0.05, max_iter=3, tol=0.0,
                       initial_guess=guess)
        oracle = fine_sequential(cfg.grid, cfg.fine, sys)
        real, real_iterate = ShiftPlan.solve, parareal_module._iterate
        events = []

        def counting(self, rhs):
            if not self.single:
                events.append("solve")
            return real(self, rhs)

        def counting_iterate(cfg, target, coarse, oracle, method):
            def counted(n, u):
                events.append("coarse")
                return coarse(n, u)

            return real_iterate(cfg, target, counted, oracle, method)

        monkeypatch.setattr(ShiftPlan, "solve", counting)
        monkeypatch.setattr(parareal_module, "_iterate", counting_iterate)
        seen = record_sweep(monkeypatch)
        U, trace = parareal_diag_coarse_solve(cfg, sys, oracle=oracle)
        assert trace.iterations == 4
        assert events == ["solve"] * sys.n + ["coarse"] * (n_w * trace.iterations)
        ref = full_sweeps(cfg, sys, seen["coarse"], seen["U0"], 3)
        assert U.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("model", ["burgers", "wave", "advection_diffusion", "heat_source",
                                       "heat_periodic_one_left", "heat_large"])
    def test_reuse_matches_full_sweeps_bitwise(self, monkeypatch, model):
        # stepped: nonlinear Newton columns, a time-dependent source (on a
        # periodic run too) and a system too large for a window
        # matrix; window matrices: the companion wave and SDIRK on
        # advection-diffusion.  The coarse values kept from the sweep before
        # equal fresh ones.
        n_w = 8
        if model == "heat_large":
            sys = heat_system(nx=EXPM_DENSE_MAX + 8, bc="periodic")
            cfg = make_cfg(1.0, n_w, 4, fine_method=trapezoidal(), max_iter=4, tol=0.0)
        elif model == "heat_periodic_one_left":
            n_w = 3
            sys = sourced_heat(16, "periodic")
            cfg = make_cfg(1.0, n_w, 4, fine_method=trapezoidal(), max_iter=n_w, tol=0.0)
        elif model == "heat_source":
            sys = build_heat(12, 1.0 / 13, 0.2, "dirichlet", source=SourcePulse(50.0))
            cfg = make_cfg(2.0, n_w, 4, fine_method=trapezoidal(), max_iter=6, tol=0.0)
        elif model == "burgers":
            sys = build_burgers(16, 1.0 / 16, 0.05, "periodic")
            sys.u0[:] = np.sin(2 * np.pi * sys.x)
            cfg = make_cfg(0.4, n_w, 3, max_iter=6, tol=0.0)
        elif model == "wave":
            sys = build_wave(12, 1.0 / 13, 1.0, "dirichlet")
            sys.u0[:] = np.sin(np.pi * sys.x)
            cfg = make_cfg(1.0, n_w, 4, fine_method=trapezoidal(),
                           coarse_method=trapezoidal(), max_iter=6, tol=0.0)
        else:
            sys = build_advection_diffusion(16, 1.0 / 16, 0.05, "periodic")
            sys.u0[:] = np.sin(2 * np.pi * sys.x)
            cfg = make_cfg(1.0, n_w, 5, fine_method=sdirk22(), max_iter=6, tol=0.0,
                           initial_guess="random")
        seen = record_sweep(monkeypatch)
        U, trace = parareal_solve(cfg, sys)
        ref = full_sweeps(cfg, seen["target"], seen["coarse"], seen["U0"], trace.iterations - 1)
        assert U.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("solver, model", [
        (mgrit_fcf_solve, "burgers"), (mgrit_fcf_solve, "heat_source"),
        (mgrit_fcf_solve, "heat_large"), (parareal_diag_cgc_solve, "heat_large")])
    def test_stepped_fine_map_solves_every_window(self, monkeypatch, solver, model):
        # with no fine window matrix, every fine pass is one block march over
        # all its windows; MGRiT still terminates after n_w / 2 iterations,
        # and diag-CGC (linear, sourceless systems only) contracts
        n_w = 4
        if model == "burgers":
            sys = build_burgers(16, 1.0 / 16, 0.05, "periodic")
            sys.u0[:] = np.sin(2 * np.pi * sys.x)
            cfg = make_cfg(0.4, n_w, 3, max_iter=2, tol=0.0)
        elif model == "heat_source":
            sys = sourced_heat()
            cfg = make_cfg(1.0, n_w, 4, fine_method=trapezoidal(), max_iter=2, tol=0.0)
        else:
            sys = heat_system(nx=EXPM_DENSE_MAX + 8, bc="periodic")
            cfg = make_cfg(1.0, n_w, 4, fine_method=trapezoidal(), max_iter=2, tol=0.0,
                           alpha=0.01)
        real_block = parareal_module.propagate_block
        widths = []

        def counting_block(prop, sys, t0s, U, **kwargs):
            widths.append(U.shape[1])
            return real_block(prop, sys, t0s, U, **kwargs)

        monkeypatch.setattr(parareal_module, "propagate_block", counting_block)
        _, trace = solver(cfg, sys)
        if solver is mgrit_fcf_solve:
            assert widths == [n_w, n_w - 1] * 2
            assert trace.fine_solves == 2 * n_w * 2
            assert trace.errors[2] <= 1e-12 * max(1.0, trace.errors[0])
        else:
            assert widths == [n_w] * 2
            assert trace.fine_solves == n_w * 2
            assert trace.errors[2] < trace.errors[1] < trace.errors[0]

    @pytest.mark.parametrize("solver", [parareal_solve, mgrit_fcf_solve, parareal_diag_cgc_solve,
                                        parareal_diag_coarse_solve])
    def test_one_window_matrix_per_propagator_per_run(self, monkeypatch, solver):
        # the oracle and the iterations share the fine matrix, and the
        # coarse map (for all but the head-tail coarse solver) is formed once
        real = parareal_module.window_matrix
        formed = []

        def counting(prop, sys):
            F = real(prop, sys)
            formed.append("fine" if prop is cfg.fine else "coarse")
            return F

        monkeypatch.setattr(parareal_module, "window_matrix", counting)
        cfg = make_cfg(1.0, 6, 4, fine_method=trapezoidal(), coarse_method=trapezoidal()
                       if solver is parareal_diag_coarse_solve else backward_euler(),
                       max_iter=3, tol=0.0, alpha=0.1)
        _, trace = solver(cfg, heat_system(nx=12))
        assert trace.iterations == 4
        expected = ["fine"] if solver is parareal_diag_coarse_solve else ["coarse", "fine"]
        assert sorted(formed) == expected
