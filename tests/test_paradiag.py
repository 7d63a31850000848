import numpy as np
import pytest
import scipy.linalg
from test_kernels import quadratic_band

import pintlab.paradiag as paradiag_module
from pintlab import experiments, kernels
from pintlab.integrators import AllAtOnce, apply_poly, named_theta, numerov_matrices
from pintlab.kernels import (BandedMatrix, SingularSystemError, dense_of, expm_action,
                             solve_shifted_banded)
from pintlab.models import CompanionSystem, build_advection_diffusion, build_heat, build_wave
from pintlab.paradiag import (
    GeometricTimeMesh,
    alpha_circulant_factor,
    be_time_matrix,
    bvm_time_matrix,
    dense_preconditioned_operator,
    make_all_at_once,
    optimal_curvature_point,
    paradiag1_bvm_solve,
    paradiag1_direct_solve,
    paradiag2_solve,
    rho_opt_first_order,
    sequential_variable_step_solve,
)


def heat_sine(nx=16, nu=1.0, bc="dirichlet", mode=2):
    dx = 1.0 / (nx + 1) if bc == "dirichlet" else 1.0 / nx
    sys = build_heat(nx, dx, nu, bc)
    sys.u0[:] = np.sin(mode * np.pi * sys.x)
    return sys


def wave_sine(nx=20, c2=1.0, bc="dirichlet"):
    dx = 1.0 / (nx + 1) if bc == "dirichlet" else 1.0 / nx
    sys = build_wave(nx, dx, np.sqrt(c2), bc)
    sys.u0[:] = np.sin(2 * np.pi * sys.x)
    return sys


def alpha_circulant_dense(first_column, alpha):
    """Reference: the dense alpha-circulant matrix (wrap-around entries
    scaled by alpha)."""
    c1 = np.asarray(first_column, dtype=float)
    n = c1.shape[0]
    C = np.zeros((n, n))
    for j in range(n):
        col = np.roll(c1, j)
        col[:j] *= alpha
        C[:, j] = col
    return C


def circulant_of(fac):
    """V D V^-1 of an alpha-circulant factorization, by its own transforms."""
    return dense_of(lambda X: fac.from_eigenbasis(fac.eigenvalues[:, None] * fac.to_eigenbasis(X)),
                    fac.eigenvalues.shape)


def closed_form_direct_solve(sys, mesh):
    """Reference: the direct backward-Euler solve with the closed-form
    eigenvectors of the geometric time matrix, V = T(p) and V^-1 = T(q)
    unit lower Toeplitz with p_k = 1/prod_{j<=k}(1 - mu^j) and
    q_k = (-1)^k mu^(k(k-1)/2) p_k, the ones the roundoff bound assumes."""
    mu, n_t = mesh.mu, mesh.n_t
    p, prod = [], 1.0
    for k in range(1, n_t):
        prod *= 1.0 - mu**k
        p.append(1.0 / prod)
    q = [(-1) ** k * mu ** (k * (k - 1) / 2.0) * p[k - 1] for k in range(1, n_t)]

    def toeplitz_apply(coeffs, X):  # T(1, coeffs) X, one convolution per column
        return np.stack([np.convolve(np.r_[1.0, coeffs], x)[:n_t] for x in X.T], axis=1)

    rhs = np.zeros((n_t, sys.n))
    rhs[0] = sys.u0 / mesh.dts[0]
    U = toeplitz_apply(p, sys.shift_plan(1.0 / mesh.dts, np.ones(n_t)).solve(toeplitz_apply(q, rhs)))
    return np.vstack([sys.u0, U])


def measured_optimal_rho(sys, T, n_t, rhos):
    """Reference: the step-ratio parameter minimizing the two rho-dependent
    error contributions the balancing formula models, the geometric-vs-
    uniform truncation gap at t = T plus the closed-form diagonalization
    roundoff against the sequential solve on the same mesh."""
    u_uniform = sys.u0.copy()
    step = sys.shift_plan(1.0, T / n_t)
    for _ in range(n_t):
        u_uniform = step.solve(u_uniform)

    def error(rho):
        mesh = GeometricTimeMesh(T=T, n_t=n_t, rho=float(rho))
        seq = sequential_variable_step_solve(sys, mesh)
        return (np.abs(seq[-1] - u_uniform).max()
                + np.abs(closed_form_direct_solve(sys, mesh) - seq).max())

    return float(min(rhos, key=error))


def kron_pair(sys, integrator, dt, n_t, gamma=1.0 / 120.0):
    """Reference: ((c1, r1), (c2, r2)), the first columns of the two time
    matrices and the dense r1, r2 of the theta pair or the Numerov pair
    written out in A."""
    n = sys.n
    A = sys.A.to_dense()
    if integrator == "numerov":
        Z = dt**2 * A
        r1 = np.eye(n) - Z / 12.0 + 10.0 * gamma / 12.0 * (Z @ Z)
        r2 = 2.0 * np.eye(n) + 10.0 / 12.0 * Z + 20.0 * gamma / 12.0 * (Z @ Z)
        c_tilde = np.zeros(n_t)
        c_tilde[[0, 2]] = 1.0
    else:
        theta = named_theta(integrator)
        r1 = np.eye(n) - theta * dt * A
        r2 = np.eye(n) + (1 - theta) * dt * A
        c_tilde = np.eye(n_t)[0]
    return (c_tilde, r1), (np.eye(n_t)[1], r2)


def kron_operators(sys, integrator, alpha, dt, n_t, gamma=1.0 / 120.0):
    """Reference: dense (K, P_alpha) assembled by Kronecker products from
    :func:`kron_pair`."""
    (c_tilde, r1), (c_b, r2) = kron_pair(sys, integrator, dt, n_t, gamma)

    def assemble(a):
        return (np.kron(alpha_circulant_dense(c_tilde, a), r1)
                - np.kron(alpha_circulant_dense(c_b, a), r2))

    # alpha = 0 drops the wrap-around: the Toeplitz time matrices of K
    return assemble(0.0), assemble(alpha)


class TestGeometricMesh:
    def test_steps_sum_to_T(self):
        mesh = GeometricTimeMesh(T=2.0, n_t=9, rho=0.3)
        assert mesh.dts.sum() == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(mesh.dts[1:] / mesh.dts[:-1], 1.3)

    def test_near_uniform_limit(self):
        mesh = GeometricTimeMesh(T=1.0, n_t=2, rho=1e-8)
        np.testing.assert_allclose(mesh.dts, 0.5, rtol=1e-7)


class TestParaDiag1Direct:
    def test_matches_sequential_heat(self):
        sys = heat_sine(nx=16)
        mesh = GeometricTimeMesh(T=0.2, n_t=8, rho=0.3)
        direct = paradiag1_direct_solve(sys, mesh)
        seq = sequential_variable_step_solve(sys, mesh)
        scale = np.abs(seq).max()
        assert np.abs(direct - seq).max() <= 1e-8 * scale

    @pytest.mark.parametrize("v_mode", ["numeric", "closed_form"])
    def test_both_v_modes(self, v_mode):
        # numeric: the solver's own eigendecomposition; closed_form: the
        # closed-form eigenvectors the measured optimum below uses
        solve = paradiag1_direct_solve if v_mode == "numeric" else closed_form_direct_solve
        sys = heat_sine(nx=10)
        mesh = GeometricTimeMesh(T=0.1, n_t=6, rho=0.4)
        direct = solve(sys, mesh)
        seq = sequential_variable_step_solve(sys, mesh)
        assert np.abs(direct - seq).max() <= 1e-8 * np.abs(seq).max()

    def test_roundoff_envelope_all_models(self):
        # diagonalized trajectory stays within ~100*eps*cond(V) of sequential
        from pintlab.models import build_advection_diffusion

        mesh = GeometricTimeMesh(T=0.2, n_t=12, rho=0.25)
        B = be_time_matrix(mesh)
        _, V = np.linalg.eig(B)
        envelope = 100 * 2.22e-16 * np.linalg.cond(V)
        for sys in [heat_sine(12), build_advection_diffusion(12, 1 / 13, 0.1, "dirichlet")]:
            if np.all(sys.u0 == 0):
                sys.u0[:] = np.sin(np.pi * sys.x)
            direct = paradiag1_direct_solve(sys, mesh)
            seq = sequential_variable_step_solve(sys, mesh)
            assert np.abs(direct - seq).max() <= envelope * max(np.abs(seq).max(), 1.0)

    def test_transforms_are_inverse(self):
        mesh = GeometricTimeMesh(T=1.0, n_t=10, rho=0.3)
        B = be_time_matrix(mesh)
        lam, V = np.linalg.eig(B)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((10, 4))
        back = (V @ np.linalg.solve(V, X.astype(complex))).real
        assert np.abs(back - X).max() <= 1e-12 * np.linalg.cond(V)

    def test_cond_V_reference_row(self):
        # the balanced eigendecomposition at the rho~0.15 operating point
        # reproduces the known conditioning growth-then-plateau of the
        # backward-Euler time matrix (1.7e3, 8.4e4, ..., 4.8e6); order of
        # magnitude check, eigenvector scaling conventions differ
        expected = {5: 1.7e3, 10: 8.4e4, 20: 1.3e6, 30: 2.8e6, 60: 4.4e6, 100: 4.8e6}
        for n_t, want in expected.items():
            mesh = GeometricTimeMesh(T=0.2, n_t=n_t, rho=0.15)
            _, V = np.linalg.eig(be_time_matrix(mesh))
            cond = np.linalg.cond(V)
            assert want / 3 <= cond <= want * 3

    def test_distinct_steps_required(self):
        with pytest.raises(ValueError):
            GeometricTimeMesh(T=1.0, n_t=4, rho=0.0)


class TestRhoOpt:
    def test_log_domain_matches_direct_small_nt(self):
        n_t, T, lam_max = 6, 0.5, 40.0
        eps = 2.22e-16
        x_star = optimal_curvature_point(n_t)
        r = (x_star / (1 + x_star)) ** 2 * (1 + x_star) ** (-n_t)
        C = n_t * (n_t**2 - 1) / 24.0 * r
        import math

        phi = math.factorial(3) * math.factorial(2)  # n_t=6 even
        direct = (eps * n_t**2 * (2 * n_t + 1) * (n_t + lam_max * T) / (phi * C)) ** (
            1.0 / (n_t + 1)
        )
        assert rho_opt_first_order(n_t, T, lam_max) == pytest.approx(direct, rel=1e-12)

    def test_curvature_point_matches_analytic(self):
        # maximizer of (x/(1+x))^2 (1+x)^(-n) is x = 2/n
        for n_t in (4, 8, 16):
            x = optimal_curvature_point(n_t)
            assert x == pytest.approx(2.0 / n_t, rel=1e-6)
            r = lambda y: (y / (1 + y)) ** 2 * (1 + y) ** (-n_t)
            assert r(x) > max(r(0.999 * x), r(1.001 * x))

    # the prediction is tight from N_t=16 up; at N_t=8 it overshoots the
    # measured optimum (small-N_t looseness of the roundoff bound constants)
    @pytest.mark.parametrize("n_t,factor", [(8, 4.0), (16, 2.0)])
    def test_first_order_marker_near_measured_optimum(self, n_t, factor):
        sys = heat_sine(nx=49, mode=2)
        lam_max = float(np.abs(np.linalg.eigvals(sys.A.to_dense())).max())
        T = 0.2
        measured = measured_optimal_rho(sys, T, n_t, np.geomspace(5e-3, 1.0, 50))
        predicted = rho_opt_first_order(n_t, T, lam_max)
        assert 1.0 / factor <= predicted / measured <= factor

    def test_first_order_marker_advection_diffusion(self):
        sys = build_advection_diffusion(49, 1.0 / 50, 0.01, "dirichlet")
        sys.u0[:] = np.sin(2 * np.pi * sys.x)
        lam_max = float(np.abs(np.linalg.eigvals(sys.A.to_dense())).max())
        measured = measured_optimal_rho(sys, 0.2, 16, np.geomspace(5e-3, 1.0, 50))
        predicted = rho_opt_first_order(16, 0.2, lam_max)
        assert 0.5 <= predicted / measured <= 2.0

    def test_roundoff_blowup_at_balanced_rho(self):
        # error vs the exact flow explodes (>= 10x) from N_t=32 to N_t=256
        # when the step ratio follows the balanced parameter per N_t
        sys = heat_sine(nx=49, mode=2)
        lam_max = float(np.abs(np.linalg.eigvals(sys.A.to_dense())).max())
        T = 0.5
        errs = {}
        for n_t in (32, 256):
            rho = rho_opt_first_order(n_t, T, lam_max)
            mesh = GeometricTimeMesh(T=T, n_t=n_t, rho=rho)
            direct = paradiag1_direct_solve(sys, mesh)
            w, err, tprev = sys.u0.copy(), 0.0, 0.0
            for n, t in enumerate(mesh.times[1:], start=1):
                w = expm_action(sys.A, t - tprev, w)
                tprev = t
                err = max(err, np.abs(direct[n] - w).max())
            errs[n_t] = err
        assert errs[256] >= 10 * errs[32]


class TestBVM:
    def test_second_order_matches_dense_lu(self):
        nx, n_t, dt = 8, 8, 0.05
        sys = wave_sine(nx=nx)
        B = bvm_time_matrix(n_t, dt)
        K = np.kron(B @ B, np.eye(nx)) - np.kron(np.eye(n_t), sys.A.to_dense())
        b = np.zeros(n_t * nx)
        b[:nx] = sys.u0_deriv / (2 * dt)
        b[nx : 2 * nx] = -sys.u0 / (4 * dt**2)
        expected = np.linalg.solve(K, b).reshape(n_t, nx)
        got = paradiag1_bvm_solve(sys, dt, n_t)[1:]
        assert np.abs(got - expected).max() <= 1e-10 * max(np.abs(expected).max(), 1.0)

    def test_wave_second_order_slope_no_blowup(self):
        nx = 39
        sys = wave_sine(nx=nx, c2=1.0)
        comp = CompanionSystem(sys)
        T = 0.5
        errs, nts = [], [2**k for k in range(4, 8)]
        for n_t in nts:
            dt = T / n_t
            traj = paradiag1_bvm_solve(sys, dt, n_t)
            w = comp.u0.copy()
            err = 0.0
            for n in range(1, n_t + 1):
                w = expm_action(comp, dt, w)
                err = max(err, np.abs(traj[n] - w[:nx]).max())
            errs.append(err)
        slope = np.polyfit(np.log([T / n for n in nts]), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)
        assert errs[-1] < errs[0]  # no roundoff deterioration through N_t = 2^7

    def test_eigenvector_conditioning_quadratic_in_nt(self):
        nts = [8, 16, 32, 64, 128]
        ratios = []
        for n_t in nts:
            B = bvm_time_matrix(n_t, 0.01)
            _, V = np.linalg.eig(B)
            ratios.append(np.linalg.cond(V) / n_t**2)
        assert max(ratios) <= 10 * min(ratios)


class TestAlphaCirculant:
    def test_alpha_one_shift_eigenvalues_are_roots_of_unity(self):
        n = 6
        c = np.zeros(n)
        c[1] = 1.0
        fac = alpha_circulant_factor(c, 1.0)
        dense = alpha_circulant_dense(c, 1.0)
        got = np.sort_complex(np.round(fac.eigenvalues, 12))
        want = np.sort_complex(np.round(np.linalg.eigvals(dense), 12))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal(8)
        for alpha in (1.0, 0.3, 0.05):
            fac = alpha_circulant_factor(c, alpha)
            dense = alpha_circulant_dense(c, alpha)
            np.testing.assert_allclose(circulant_of(fac), dense, atol=1e-9 / alpha)

    def test_reconstruction_error_grows_like_eps_over_alpha(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(32)
        errs = []
        for alpha in (1e-1, 1e-3, 1e-5):
            fac = alpha_circulant_factor(c, alpha)
            dense = alpha_circulant_dense(c, alpha)
            errs.append(np.abs(circulant_of(fac) - dense).max())
        r1 = errs[1] / errs[0]
        r2 = errs[2] / errs[1]
        # each alpha drop of 100x should scale the error by ~100x (within 10x)
        assert 10 <= r1 <= 1000
        assert 10 <= r2 <= 1000

    def test_size_one(self):
        fac = alpha_circulant_factor(np.array([3.0]), 0.5)
        np.testing.assert_allclose(fac.eigenvalues, [3.0])

    def test_transforms_invert(self):
        rng = np.random.default_rng(6)
        c = rng.standard_normal(16)
        fac = alpha_circulant_factor(c, 0.05)
        X = rng.standard_normal((16, 3))
        np.testing.assert_allclose(fac.from_eigenbasis(fac.to_eigenbasis(X)).real, X, atol=1e-11)


class TestParaDiag2:
    def test_fixed_point(self):
        sys = heat_sine(nx=10)
        n_t, dt = 12, 0.02
        op = make_all_at_once(sys, "trapezoidal", dt, n_t)
        U_star = op.sequential_solve()
        traj, trace = paradiag2_solve(
            sys, "trapezoidal", 0.2, dt, n_t, max_iter=1, u_init=U_star
        )
        assert np.abs(traj[1:] - U_star).max() <= 1e-12 * np.abs(U_star).max()

    def test_heat_tr_contraction_bounded(self):
        sys = heat_sine(nx=12, mode=1)
        n_t, dt = 16, 0.02
        op = make_all_at_once(sys, "trapezoidal", dt, n_t)
        ref = op.sequential_solve()
        alpha = 0.1
        traj, trace = paradiag2_solve(
            sys, "trapezoidal", alpha, dt, n_t, reference=ref, tol=1e-13, max_iter=25
        )
        errs = trace.errors
        factors = [
            b / a for a, b in zip(errs[1:-1], errs[2:]) if a > 1e-12 and b > 1e-14
        ]
        assert factors
        assert max(factors) <= alpha / (1 - alpha) + 0.02

    def test_wave_numerov_iteration_matrix_in_circle(self):
        for T in (0.5, 10.0):
            n_t = 16
            dt = T / n_t
            sys = wave_sine(nx=7)
            PK = dense_preconditioned_operator(sys, "numerov", 0.02, dt, n_t)
            M = np.eye(PK.shape[0]) - PK
            lam = np.linalg.eigvals(M)
            assert np.abs(lam).max() <= 0.02 / 0.98 + 1e-8

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("integrator", ["backward_euler", "trapezoidal", "numerov"])
    def test_dense_operators_match_kron_assembly(self, integrator, bc):
        # dense_of of the solver's own maps against the Kronecker build
        sys = wave_sine(nx=8, bc=bc) if integrator == "numerov" else heat_sine(nx=8, bc=bc)
        n_t, dt, alpha = 12, 0.05, 0.1
        K, P = kron_operators(sys, integrator, alpha, dt, n_t)
        op = make_all_at_once(sys, integrator, dt, n_t)
        np.testing.assert_allclose(dense_of(op.apply, (n_t, sys.n)), K,
                                   rtol=0, atol=1e-14 * np.abs(K).max())
        if integrator == "numerov" and bc == "periodic":
            # its preconditioner solves by a QuadraticPlan, which takes no periodic A
            with pytest.raises(ValueError, match="non-periodic A"):
                dense_preconditioned_operator(sys, integrator, alpha, dt, n_t)
            return
        PK = np.linalg.solve(P, K)
        np.testing.assert_allclose(dense_preconditioned_operator(sys, integrator, alpha, dt, n_t),
                                   PK, rtol=0, atol=1e-12 * np.abs(PK).max())

    def test_alpha1_clustering_symmetric_negative_definite(self):
        sys = heat_sine(nx=6)
        n_t, dt = 8, 0.05
        lam = np.linalg.eigvals(
            dense_preconditioned_operator(sys, "backward_euler", 1.0, dt, n_t))
        n_off = int(np.sum(np.abs(lam - 1.0) > 1e-8))
        assert n_off <= 6

    def test_spectral_radius_bound_three_models(self):
        from pintlab.models import build_advection_diffusion

        n_t, dt, alpha = 12, 0.02, 0.1
        systems = [
            heat_sine(nx=8),
            build_advection_diffusion(8, 1.0 / 9.0, 0.5, "dirichlet"),
        ]
        for integ in ("backward_euler", "trapezoidal"):
            for sys in systems:
                PK = dense_preconditioned_operator(sys, integ, alpha, dt, n_t)
                M = np.eye(PK.shape[0]) - PK
                assert np.abs(np.linalg.eigvals(M)).max() <= alpha / (1 - alpha) + 1e-8
        # wave with the Numerov pair
        sysw = wave_sine(nx=8)
        PK = dense_preconditioned_operator(sysw, "numerov", alpha, 0.05, n_t)
        M = np.eye(PK.shape[0]) - PK
        assert np.abs(np.linalg.eigvals(M)).max() <= alpha / (1 - alpha) + 1e-8

    def test_alpha_one_periodic_singular(self):
        sys = build_heat(8, 1.0 / 8.0, 1.0, "periodic")
        sys.u0[:] = np.sin(2 * np.pi * sys.x)
        with pytest.raises(SingularSystemError):
            paradiag2_solve(sys, "backward_euler", 1.0, 0.05, 8)


def per_eigenvalue_eig_solve(op, V, a, b, R):
    """Reference for the diagonalized solve: one single-shift banded solve
    per eigenvalue, as the solvers did before the batched call."""
    A = getattr(op, "A", op)
    Ra = np.linalg.solve(V, R.astype(complex))
    Rb = np.empty_like(Ra)
    for n in range(Ra.shape[0]):
        Rb[n] = solve_shifted_banded(A, (a[n], b[n]), Ra[n])
    return (V @ Rb).real


def use_per_eigenvalue_solve(monkeypatch):
    """Swap the batched eigenbasis solve for the per-eigenvalue loop and
    return the list that counts the calls made through it."""
    calls = []

    def solve(*args):
        calls.append(1)
        return per_eigenvalue_eig_solve(*args)

    monkeypatch.setattr(paradiag_module, "_eig_solve", solve)
    return calls


class TestBatchedSolveBitwise:
    """The batched eigenbasis solves equal the per-eigenvalue loops bit for bit."""

    def test_bvm_solve(self, monkeypatch):
        sys = wave_sine(nx=12)
        batched = paradiag1_bvm_solve(sys, 0.01, 64)
        calls = use_per_eigenvalue_solve(monkeypatch)
        ref = paradiag1_bvm_solve(sys, 0.01, 64)
        assert calls == [1]
        assert batched.tobytes() == ref.tobytes()

    def test_bvm_second_order_shifts_squared_one_at_a_time(self, monkeypatch):
        # the vectorized lam**2 may round some shifts differently (at
        # n_t = 64 it can), so each is squared as a scalar, as the loop did
        lam, _ = np.linalg.eig(bvm_time_matrix(64, 0.01))
        shifts = []
        monkeypatch.setattr(paradiag_module, "_eig_solve",
                            lambda op, V, a, b, R: shifts.append(a)
                            or per_eigenvalue_eig_solve(op, V, a, b, R))
        paradiag1_bvm_solve(wave_sine(nx=12), 0.01, 64)
        assert shifts[0].tobytes() == np.array([l**2 for l in lam]).tobytes()

    @pytest.mark.parametrize("integrator", ["backward_euler", "trapezoidal"])
    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_first_order_precond_solve(self, integrator, bc):
        dx = 1.0 / 17 if bc == "dirichlet" else 1.0 / 16
        sys = build_advection_diffusion(16, dx, 0.05, bc)
        n_t, dt = 12, 0.01
        op, _, precond_solve = paradiag_module._preconditioned(
            sys, integrator, 0.05, dt, n_t)
        fac_I, fac_B = (alpha_circulant_factor(c, 0.05) for c in op.time_columns)
        R = np.random.default_rng(3).standard_normal((n_t, sys.n))
        got = precond_solve(R)
        # the loop with its shifts formed one scalar at a time
        Ra = fac_I.to_eigenbasis(R.astype(complex))
        d1, d2 = fac_I.eigenvalues, fac_B.eigenvalues
        Rb = np.empty_like(Ra)
        for n in range(n_t):
            bcoef = dt * (d1[n] * op.theta + d2[n] * (1.0 - op.theta))
            Rb[n] = solve_shifted_banded(sys.A, (d1[n] - d2[n], bcoef), Ra[n])
        ref = fac_I.from_eigenbasis(Rb)
        assert got.dtype == np.complex128
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_numerov_precond_solve(self, alpha):
        # C6's wave system: one solve_banded per Fourier mode, each band
        # built from that mode's scalar coefficients, is the reference
        wave = build_wave(8, 1.0 / 9, 1.0, "dirichlet")
        wave.u0[:] = np.sin(2 * np.pi * wave.x)
        n_t = 16
        op, b, precond_solve = paradiag_module._preconditioned(
            wave, "numerov", alpha, 0.05, n_t)
        fac, fac2 = (alpha_circulant_factor(c, alpha) for c in op.time_columns)
        d1, d2 = fac.eigenvalues, fac2.eigenvalues
        coeffs = [(d1 * p - d2 * q) * op.tau**j for j, (p, q) in enumerate(zip(*op.polys))]

        def per_mode(R):
            Ra = fac.to_eigenbasis(R.astype(complex))
            return fac.from_eigenbasis(np.stack([
                scipy.linalg.solve_banded((2, 2), quadratic_band(wave.A, *(c[n] for c in coeffs)),
                                          Ra[n]) for n in range(n_t)]))

        N = n_t * wave.n
        residual = b - op.apply(np.random.default_rng(4).standard_normal(b.shape))
        for R in (b, residual, op.apply(np.eye(N).reshape(n_t, wave.n, N))):
            assert precond_solve(R).tobytes() == per_mode(R).tobytes()

    @pytest.mark.parametrize("max_iter", [1, 12])
    def test_numerov_precond_factors_once(self, max_iter, gbtrf_calls):
        _, trace = paradiag2_solve(wave_sine(nx=8), "numerov", 0.1, 0.05, 16, tol=0.0,
                                   max_iter=max_iter)
        assert trace.iterations == max_iter and len(gbtrf_calls) == 1
        dense_preconditioned_operator(wave_sine(nx=8), "numerov", 0.1, 0.05, 16)
        assert len(gbtrf_calls) == 2


class _RowByRowAllAtOnce(AllAtOnce):
    """Reference: ParaDiag II's own per-row theta operator (r1, r2, apply,
    rhs and sequential solve), from before it shared the vectorized
    AllAtOnce."""

    def r1(self, u):
        return u - self.theta * self.dt * self.sys.A.matvec(u)

    def r2(self, u):
        return u + (1.0 - self.theta) * self.dt * self.sys.A.matvec(u)

    def apply(self, U):
        out = np.empty_like(U)
        for n in range(self.nt):
            out[n] = self.r1(U[n])
            if n > 0:
                out[n] -= self.r2(U[n - 1])
        return out

    def rhs(self):
        b = np.zeros((self.nt, self.sys.n))
        b[0] = self.r2(self.sys.u0)
        return b

    def sequential_solve(self):
        U = np.empty((self.nt, self.sys.n))
        b = self.rhs()
        prev = None
        for n in range(self.nt):
            r = b[n] + (self.r2(prev) if prev is not None else 0.0)
            prev = solve_shifted_banded(self.sys.A, (1.0, self.theta * self.dt), r)
            U[n] = prev
        return U


def theta_system(bc):
    nx = 12
    dx = 1.0 / (nx + 1) if bc == "dirichlet" else 1.0 / nx
    sys = build_advection_diffusion(nx, dx, 0.05, bc)
    sys.u0[:] = np.sin(2 * np.pi * sys.x)
    return sys


@pytest.mark.parametrize("integrator", ["backward_euler", "trapezoidal"])
@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
class TestSharedThetaOperator:
    """ParaDiag II's theta operator is integrators.AllAtOnce, bit for bit
    equal to the per-row operator it replaced."""

    def test_matches_per_row_operator(self, bc, integrator):
        sys = theta_system(bc)
        op = make_all_at_once(sys, integrator, 0.02, 10)
        ref = _RowByRowAllAtOnce(sys, op.theta, 0.02, 10)
        rng = np.random.default_rng(5)
        U = rng.standard_normal((10, sys.n))
        Uc = U + 1j * rng.standard_normal((10, sys.n))
        assert op.apply(U).tobytes() == ref.apply(U).tobytes()
        assert op.apply(Uc).tobytes() == ref.apply(Uc).tobytes()
        assert op.rhs().tobytes() == ref.rhs().tobytes()
        assert op.sequential_solve().tobytes() == ref.sequential_solve().tobytes()

    @pytest.mark.parametrize("form", ["increment"])  # the one ParaDiag II form
    def test_paradiag2_iterates_match_per_row_operator(self, monkeypatch, bc, integrator, form):
        sys = theta_system(bc)
        ref_U = make_all_at_once(sys, integrator, 0.02, 10).sequential_solve()
        args = (sys, integrator, 0.1, 0.02, 10)
        kw = dict(tol=1e-13, max_iter=15, reference=ref_U)
        traj, tr = paradiag2_solve(*args, **kw)
        monkeypatch.setattr(
            paradiag_module, "make_all_at_once",
            lambda sys, integrator, dt, n_t: _RowByRowAllAtOnce(
                sys, named_theta(integrator), dt, n_t),
        )
        traj_ref, tr_ref = paradiag2_solve(*args, **kw)
        assert tr.iterations > 2
        assert traj.tobytes() == traj_ref.tobytes()
        assert (tr.errors, tr.residuals) == (tr_ref.errors, tr_ref.residuals)


def second_order_apply_by_row(op, U):
    """Reference: the Numerov all-at-once K U one row at a time,
    r1 U[n] - r2 U[n-1] + r1 U[n-2], each term applied to its own row."""
    r1, r2 = numerov_matrices(op.sys, op.dt)
    out = np.empty_like(U)
    for n in range(op.nt):
        out[n] = apply_poly(op.sys.A, r1, U[n])
        if n >= 1:
            out[n] -= apply_poly(op.sys.A, r2, U[n - 1])
        if n >= 2:
            out[n] += apply_poly(op.sys.A, r1, U[n - 2])
    return out


@pytest.mark.parametrize("n_t", [1, 2, 16])
@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
def test_second_order_apply_matches_per_row_operator(bc, n_t):
    op = make_all_at_once(wave_sine(nx=12, bc=bc), "numerov", 0.01, n_t)
    rng = np.random.default_rng(6)
    U = rng.standard_normal((n_t, 12))
    for data in (U, U + 1j * rng.standard_normal(U.shape)):
        assert op.apply(data).tobytes() == second_order_apply_by_row(op, data).tobytes()


class TestEntryValidation:
    def test_unknown_integrator_named(self):
        with pytest.raises(ValueError, match="'bogus'"):
            paradiag2_solve(heat_sine(nx=8), "bogus", 0.1, 0.02, 8)

    def test_non_theta_integrator_named(self):
        with pytest.raises(ValueError, match="'sdirk22'"):
            make_all_at_once(heat_sine(nx=8), "sdirk22", 0.02, 8)

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_non_finite_u0(self, order):
        sys = heat_sine(nx=8) if order == "first" else wave_sine(nx=8)
        sys.u0[3] = np.nan
        integrator = "backward_euler" if order == "first" else "numerov"
        with pytest.raises(ValueError, match="u0"):
            paradiag2_solve(sys, integrator, 0.1, 0.02, 8)

    @pytest.mark.parametrize("kwargs, name", [
        pytest.param(dict(max_iter=-3), "max_iter", id="kwargs3-max_iter"),
        pytest.param(dict(n_t=0), "n_t", id="n_t"),
        pytest.param(dict(dt=0.0), "dt", id="dt-zero"),
        pytest.param(dict(dt=-0.02), "dt", id="dt-negative"),
    ])
    def test_bad_solver_parameters_rejected_first(self, monkeypatch, kwargs, name):
        def no_operator(*args, **kw):
            raise AssertionError("operator built before the parameters were checked")

        monkeypatch.setattr(paradiag_module, "make_all_at_once", no_operator)
        args = dict(alpha=0.1, dt=0.02, n_t=8) | kwargs
        with pytest.raises(ValueError, match=name):
            paradiag2_solve(heat_sine(nx=8), "backward_euler", **args)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(n_t=0), "n_t"), (dict(n_t=2.5), "n_t"), (dict(T=-1.0), "T"), (dict(T=0.0), "T"),
    ])
    def test_bad_geometric_mesh_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} "):
            GeometricTimeMesh(**(dict(T=1.0, n_t=4, rho=0.3) | kwargs))

    @pytest.mark.parametrize("system, n_t, dt, message", [
        pytest.param(wave_sine, 1, 0.02, "n_t >= 2", id="1"),
        pytest.param(wave_sine, 0, 0.02, "n_t >= 2", id="0"),
        pytest.param(wave_sine, 8, 0.0, "dt must be positive", id="dt-zero"),
        pytest.param(wave_sine, 8, -0.1, "dt must be positive", id="dt-negative"),
        pytest.param(heat_sine, 8, 0.02, "expects a second-order system, got order='first'",
                     id="first-order"),
    ])
    def test_bvm_needs_two_time_steps(self, monkeypatch, system, n_t, dt, message):
        # a second-order system, n_t >= 2 and dt > 0 are all checked before
        # the time matrix is built
        monkeypatch.setattr(paradiag_module, "bvm_time_matrix", None)
        with pytest.raises(ValueError, match=message):
            paradiag1_bvm_solve(system(nx=8), dt, n_t)


def c6_operators():
    """C6's six iteration matrices M = I - P_alpha^-1 K with their systems."""
    heat = build_heat(12, 1.0 / 13, 1.0, "dirichlet")
    wave = build_wave(8, 1.0 / 9, 1.0, "dirichlet")
    for alpha in (0.05, 0.1, 0.2):
        for sys, integ, dt in ((heat, "trapezoidal", 0.02), (wave, "numerov", 0.05)):
            PK = dense_preconditioned_operator(sys, integ, alpha, dt, 16)
            yield sys, np.eye(PK.shape[0]) - PK


class TestModeSplit:
    """C4's exact reference and C6's spectral radii, computed per eigenmode
    of the symmetric spatial matrix A (``experiments._modes``)."""

    def test_spectral_radius_by_mode_matches_dense_eigvals(self):
        for sys, M in c6_operators():
            dense = np.abs(np.linalg.eigvals(M)).max()
            assert experiments._spectral_radius_by_mode(M, sys.A) == pytest.approx(dense, rel=1e-12)

    def test_coupled_or_non_symmetric_modes_raise(self):
        sys, M = next(c6_operators())
        A = sys.A
        bump = 1 + 1e-6 * (np.arange(A.n - 1) == 3)
        # symmetric, but its eigenmodes are not those M was built from
        coupled = BandedMatrix(A.diag, A.lower * bump, A.upper * bump)
        with pytest.raises(ValueError, match="couples the eigenmodes"):
            experiments._spectral_radius_by_mode(M, coupled)
        skew = BandedMatrix(A.diag, A.lower, A.upper * bump)
        with pytest.raises(ValueError, match="symmetric"):
            experiments._spectral_radius_by_mode(M, skew)

    def test_c4_modal_reference_matches_expm_chain(self):
        # C4's err_vs_exact at N_t = 32 moves by at most the distance between
        # its modal reference and the step-by-step expm chain
        sys = build_heat(49, 1.0 / 50, 1.0, "dirichlet")
        sys.u0[:] = np.sin(2 * np.pi * sys.x)
        A = sys.A.to_dense()
        lam_max = float(np.abs(np.linalg.eigvals(A)).max())
        mesh = GeometricTimeMesh(T=0.5, n_t=32, rho=rho_opt_first_order(32, 0.5, lam_max))
        direct = paradiag1_direct_solve(sys, mesh)
        chain = [sys.u0]
        for dt in np.diff(mesh.times):
            chain.append(scipy.linalg.expm(dt * A) @ chain[-1])
        chain = np.array(chain[1:])
        err_chain = np.abs(direct[1:] - chain).max()
        row = experiments.run_paradiag1_geometric().rows[2]
        assert row["n_t"] == 32
        assert abs(row["err_vs_exact"] - err_chain) <= 1e-12 * np.abs(chain).max()

    def test_c4_and_c6_make_no_large_dense_decomposition(self, monkeypatch):
        # C4 makes no dense expm (the expm_action chain made 288); C6 hands
        # eig/eigvals nothing larger than one mode's 16 x 16 time block
        expms, orders = [], []
        real_expm, real_eig, real_eigvals = kernels._expm, np.linalg.eig, np.linalg.eigvals
        monkeypatch.setattr(kernels, "_expm", lambda M: expms.append(1) or real_expm(M))
        experiments.run_paradiag1_geometric()
        assert not expms
        monkeypatch.setattr(np.linalg, "eig", lambda M: orders.append(M.shape[-1]) or real_eig(M))
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda M: orders.append(M.shape[-1]) or real_eigvals(M))
        result = experiments.run_paradiag2_contraction()
        assert result.passed and orders and max(orders) <= 16
