import numpy as np
import pytest

from pintlab import kernels
from pintlab.idc import (
    SweepState,
    _EulerNodes,
    collocation_matrix,
    collocation_solve,
    dense_pfasst_b10,
    idc_run,
    idc_sweep,
    idc_weights,
    lagrange_transfer,
    pfasst_two_level,
    quad_weights,
    radau_iia_nodes,
)
from pintlab.kernels import BandedMatrix
from pintlab.models import (
    SemiDiscreteSystem,
    SourcePulse,
    build_advection_diffusion,
    build_burgers,
    build_heat,
)


def scalar_decay():
    A = BandedMatrix(np.array([-1.0]), np.zeros(0), np.zeros(0))
    return SemiDiscreteSystem(A=A, u0=np.ones(1), dx=1.0, bc="dirichlet",
                              kind="heat", x=np.zeros(1))


def dense_block_form(sys, dt, Mf=3, Mc=2, identity_transfers=False, sweeper_exact=False):
    """Reference: the block iteration's per-window matrices (B10, B01, B00),
    assembled densely by Kronecker products and dense solves."""
    nodes_f, nodes_c = radau_iia_nodes(Mf), radau_iia_nodes(Mc)
    A = sys.A.to_dense()
    n = A.shape[0]
    If = np.eye(Mf * n)
    phi_f = If - dt * np.kron(collocation_matrix(nodes_f), A)
    phi_c = np.eye(Mc * n) - dt * np.kron(collocation_matrix(nodes_c), A)
    Tcf = np.kron(lagrange_transfer(nodes_c, nodes_f), np.eye(n))
    Tfc = np.kron(lagrange_transfer(nodes_f, nodes_c), np.eye(n))
    if sweeper_exact:
        phi_tilde = phi_f.copy()
    else:
        lower = np.eye(Mf) - np.eye(Mf, k=-1)
        deltas = np.diff(np.concatenate([[0.0], nodes_f]))
        phi_tilde = np.kron(lower, np.eye(n)) - dt * np.kron(np.diag(deltas), A)
    phi_c_inv_Tfc = np.linalg.solve(phi_c, Tfc)
    bracket = If - Tcf @ phi_c_inv_Tfc @ phi_f
    B10 = bracket @ (If - np.linalg.solve(phi_tilde, phi_f))
    B01 = Tcf @ phi_c_inv_Tfc
    B00 = bracket @ np.linalg.solve(phi_tilde, If)
    return B10, B01, B00


class TestQuadWeights:
    def test_row_sums_are_panel_widths(self):
        t = np.linspace(0.3, 0.9, 3)  # M=2 window
        w = idc_weights(t)
        np.testing.assert_allclose(w.sum(axis=1), np.diff(t), atol=1e-13)

    def test_monomial_exactness(self):
        rng = np.random.default_rng(0)
        for M in (2, 3, 4, 5):
            t = np.sort(rng.random(M + 1))
            w = idc_weights(t)
            for q in range(M):  # degree < M
                exact = (t[1:] ** (q + 1) - t[:-1] ** (q + 1)) / (q + 1)
                got = w @ (t[1:] ** q)
                np.testing.assert_allclose(got, exact, atol=1e-12)

    def test_cubic_exact_on_uniform_m4(self):
        t = np.linspace(0.0, 1.0, 5)
        w = idc_weights(t)
        got = w @ (t[1:] ** 3)
        exact = (t[1:] ** 4 - t[:-1] ** 4) / 4
        np.testing.assert_allclose(got, exact, atol=1e-12)

    def test_duplicate_nodes_raise(self):
        with pytest.raises(ValueError):
            quad_weights(np.array([0.1, 0.1, 0.5]), 0.0, 1.0)


class TestQuadratureRule:
    def test_uniform_rule_row_sums(self):
        weights = idc_weights(np.linspace(0.0, 1.0, 5))
        assert weights.shape == (4, 4)
        np.testing.assert_allclose(weights.sum(axis=1), 0.25, atol=1e-13)

    def test_radau_rule_integrates_constants(self):
        nodes = radau_iia_nodes(3)
        # collocation row m integrates 1 over [0, tau_m]
        np.testing.assert_allclose(collocation_matrix(nodes) @ np.ones(3), nodes, atol=1e-13)


class TestIdcSweep:
    def test_zero_rhs_keeps_initial_value(self):
        A = BandedMatrix(np.zeros(1), np.zeros(0), np.zeros(0))
        sys = SemiDiscreteSystem(A=A, u0=np.array([2.5]), dx=1.0, bc="dirichlet",
                                 kind="heat", x=np.zeros(1))
        t = np.linspace(0.0, 1.0, 5)
        state = SweepState(n=0, t_nodes=t, values=np.full((5, 1), 2.5))
        out = idc_sweep(state, _EulerNodes(sys), idc_weights(t))
        np.testing.assert_allclose(out.values, 2.5, atol=1e-14)

    @pytest.mark.parametrize("k,expected_order", [(0, 1), (1, 2), (2, 3), (3, 4)])
    def test_order_lift_backward_euler(self, k, expected_order):
        # order after k corrections with BE sweeps is min(M, k+1), M=5
        sys = scalar_decay()
        M = 5
        errs, hs = [], []
        for n_w in (8, 16, 32):
            _, _, endpoints = idc_run(sys, 1.0, n_w, M, k)
            errs.append(abs(endpoints[k + 1, -1, 0] - np.exp(-1.0)))
            hs.append(1.0 / (n_w * M))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(expected_order, abs=0.3)

    def test_order_ceiling_at_M(self):
        # with M=3 nodes, corrections beyond M-1 stop raising the order
        sys = scalar_decay()
        M, k = 3, 4
        errs, hs = [], []
        for n_w in (8, 16, 32):
            _, _, endpoints = idc_run(sys, 1.0, n_w, M, k)
            errs.append(abs(endpoints[-1, -1, 0] - np.exp(-1.0)))
            hs.append(1.0 / (n_w * M))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(M, abs=0.3)

    def test_collocation_fixed_point(self):
        # feeding the dense collocation solution through a sweep changes
        # nothing (M=3, scalar linear problem)
        sys = scalar_decay()
        t = np.linspace(0.0, 0.5, 4)
        nodes = t[1:]
        Q = collocation_matrix(nodes) * (t[-1] - t[0]) / (t[-1] - t[0])
        # dense collocation on the window [0, 0.5]: u = u0 + int f
        M = 3
        lam = -1.0
        Qmat = np.stack([quad_weights(nodes, t[0], tm) for tm in nodes])
        U = np.linalg.solve(np.eye(M) - lam * Qmat, np.ones(M))
        vals = np.concatenate([[1.0], U])[:, None]
        state = SweepState(n=0, t_nodes=t, values=vals.copy())
        out = idc_sweep(state, _EulerNodes(sys), idc_weights(t))
        assert np.abs(out.values - vals).max() < 1e-12

    @pytest.mark.parametrize("kwargs, name", [
        (dict(k_corrections=-1), "k_corrections"),
        (dict(M=0), "M"),
        (dict(M=2.5), "M"),
        (dict(n_windows=0), "n_windows"),
        (dict(T=-1.0), "T"),
        (dict(sys=build_burgers(8, 1.0 / 8, 0.1, "periodic")), "linear"),
    ])
    def test_idc_run_rejects_bad_parameters(self, kwargs, name):
        args = dict(sys=build_heat(8, 1.0 / 9, 1.0, "dirichlet"), T=0.5, n_windows=2, M=3,
                    k_corrections=1) | kwargs
        with pytest.raises(ValueError, match=f" {name} "):
            idc_run(**args)

    def test_run_factors_once_per_step_size(self, monkeypatch):
        # one set of node solves per run: every sweep of every window reuses
        # the factorization of its step size
        built = []
        real = kernels._factor_shifted
        monkeypatch.setattr(kernels, "_factor_shifted",
                            lambda *args: built.append(args[2]) or real(*args))
        sys = build_heat(8, 1.0 / 9, 1.0, "dirichlet")
        n_windows, M = 4, 3
        idc_run(sys, 1.0, n_windows, M, k_corrections=2)
        bounds = np.linspace(0.0, 1.0, n_windows + 1)
        steps = {dtm for n in range(n_windows)
                 for dtm in np.diff(np.linspace(bounds[n], bounds[n + 1], M + 1))}
        assert len(built) == len(steps) < n_windows * M


class TestPfasst:
    def test_radau_data_matches_reference_values(self):
        s = np.sqrt(6.0)
        Qf = collocation_matrix(radau_iia_nodes(3))
        np.testing.assert_allclose(
            Qf[0],
            [(88 - 7 * s) / 360, (296 - 169 * s) / 1800, (-2 + 3 * s) / 225],
            atol=1e-13,
        )
        Qc = collocation_matrix(radau_iia_nodes(2))
        np.testing.assert_allclose(Qc, [[5 / 12, -1 / 12], [3 / 4, 1 / 4]], atol=1e-13)

    def test_transfer_matrices_reference_values(self):
        Tcf = lagrange_transfer(radau_iia_nodes(2), radau_iia_nodes(3))
        np.testing.assert_allclose(
            Tcf, [[1.2674, -0.2674], [0.5325, 0.4674], [0.0, 1.0]], atol=5e-4
        )
        Tfc = lagrange_transfer(radau_iia_nodes(3), radau_iia_nodes(2))
        np.testing.assert_allclose(
            Tfc, [[0.5018, 0.6833, -0.1851], [0.0, 0.0, 1.0]], atol=5e-4
        )

    def test_transfer_consistency(self):
        Tcf = lagrange_transfer(radau_iia_nodes(2), radau_iia_nodes(3))
        Tfc = lagrange_transfer(radau_iia_nodes(3), radau_iia_nodes(2))
        np.testing.assert_allclose(Tfc @ Tcf, np.eye(2), atol=1e-10)

    def test_identity_case_exact_in_one_pass(self):
        nx = 16
        sys = build_heat(nx, 1.0 / (nx + 1), 1.0, "dirichlet")
        sys.u0[:] = np.sin(np.pi * sys.x)
        B10 = dense_pfasst_b10(sys, 0.05, Mf=3, Mc=3,
                               identity_transfers=True, sweeper_exact=True)
        assert np.abs(B10).max() <= 1e-10
        ends, trace = pfasst_two_level(sys, 6, 0.05, k_max=1, Mf=3, Mc=3,
                                       identity_transfers=True, sweeper_exact=True)
        assert trace.errors[1] <= 1e-10

    def test_collocation_solve_satisfies_collocation_equations(self):
        # each window's endpoint is the last stage of the three-stage
        # Radau IIA step from the previous endpoint; the stages solve the
        # collocation equations built from the tabulated Butcher matrix
        # (by a dense Kronecker solve), for Dirichlet heat and for periodic
        # advection-diffusion, whose shifted solves take the Woodbury path
        nx, dt, n_w = 15, 0.05, 8
        s = np.sqrt(6.0)
        c = np.array([(4 - s) / 10, (4 + s) / 10, 1.0])
        a = np.array([
            [(88 - 7 * s) / 360, (296 - 169 * s) / 1800, (-2 + 3 * s) / 225],
            [(296 + 169 * s) / 1800, (88 + 7 * s) / 360, (-2 - 3 * s) / 225],
            [(16 - s) / 36, (16 + s) / 36, 1 / 9],
        ])
        for sys in (
            build_heat(nx, 1.0 / (nx + 1), 1.0, "dirichlet", source=SourcePulse(100.0)),
            build_advection_diffusion(nx, 1.0 / nx, 0.05, "periodic", source=SourcePulse(100.0)),
        ):
            sys.u0[:] = np.sin(np.pi * sys.x)
            ends = collocation_solve(sys, dt, n_w)
            A = sys.A.to_dense()
            assert ends.shape == (n_w + 1, nx)
            np.testing.assert_array_equal(ends[0], sys.u0)
            scale = np.abs(ends).max()
            for w in range(n_w):
                g = np.concatenate([sys.source((w + cj) * dt) for cj in c])
                stages = np.linalg.solve(np.eye(3 * nx) - dt * np.kron(a, A),
                                         np.tile(ends[w], 3) + dt * np.kron(a, np.eye(nx)) @ g)
                assert np.abs(stages[-nx:] - ends[w + 1]).max() <= 1e-12 * scale

    def test_default_reference_is_collocation_solve(self):
        nx, dt, n_w = 15, 0.05, 6
        sys = build_heat(nx, 1.0 / (nx + 1), 1.0, "dirichlet", source=SourcePulse(100.0))
        sys.u0[:] = np.sin(np.pi * sys.x)
        _, tr_default = pfasst_two_level(sys, n_w, dt, k_max=4)
        _, tr_ref = pfasst_two_level(sys, n_w, dt, k_max=4,
                                     reference=collocation_solve(sys, dt, n_w))
        assert tr_default.errors == tr_ref.errors
        assert tr_default.errors[-1] < tr_default.errors[0]

    def test_collocation_solve_rejects_nonlinear(self):
        sys = build_burgers(8, 1.0 / 8, 0.1, "periodic")
        with pytest.raises(ValueError, match="linear systems"):
            collocation_solve(sys, 0.05, 2)

    @pytest.mark.parametrize("flags", [
        dict(),
        dict(Mc=3, identity_transfers=True, sweeper_exact=True),
        dict(sweeper_exact=True),
    ])
    @pytest.mark.parametrize("build", ["heat", "ad_periodic"])
    def test_iterates_match_dense_block_form(self, flags, build):
        # k iterations of the matrix-free iteration give the endpoints of
        # the dense recursion U <- B10 U + B01 rhs_new + B00 rhs_old, and
        # dense_pfasst_b10 gives its B10
        nx, dt, n_w = 16, 0.05, 5
        if build == "heat":
            sys = build_heat(nx, 1.0 / (nx + 1), 1.0, "dirichlet", source=SourcePulse(100.0))
        else:
            sys = build_advection_diffusion(nx, 1.0 / nx, 0.05, "periodic",
                                            source=SourcePulse(100.0))
        sys.u0[:] = np.sin(np.pi * sys.x)
        B10, B01, B00 = dense_block_form(sys, dt, **flags)
        np.testing.assert_allclose(dense_pfasst_b10(sys, dt, **flags), B10,
                                   rtol=0, atol=1e-12 * max(np.abs(B10).max(), 1.0))
        QI = np.kron(collocation_matrix(radau_iia_nodes(3)), np.eye(nx))
        b = [QI @ np.concatenate([sys.source((w + tau) * dt) for tau in radau_iia_nodes(3)])
             for w in range(n_w)]
        U = [np.tile(sys.u0, 3)] * n_w
        for k in range(1, 4):
            prev_new, U_new = np.tile(sys.u0, 3), []
            for w in range(n_w):
                prev_old = np.tile(sys.u0, 3) if w == 0 else U[w - 1]
                U_new.append(B10 @ U[w]
                             + B01 @ (np.tile(prev_new[-nx:], 3) + dt * b[w])
                             + B00 @ (np.tile(prev_old[-nx:], 3) + dt * b[w]))
                prev_new = U_new[w]
            U = U_new
            dense = np.vstack([sys.u0] + [u[-nx:] for u in U])
            ends, trace = pfasst_two_level(sys, n_w, dt, k_max=k, **flags)
            assert len(trace.errors) == k + 1
            assert np.abs(ends - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("kwargs, name", [
        (dict(dt=0.0), "dt"),
        (dict(dt=-0.05), "dt"),
        (dict(dt=float("nan")), "dt"),
        (dict(n_windows=0), "n_windows"),
        (dict(k_max=-1), "k_max"),
    ])
    def test_pfasst_rejects_bad_parameters(self, kwargs, name):
        sys = build_heat(8, 1.0 / 9, 1.0, "dirichlet")
        args = dict(n_windows=3, dt=0.05, k_max=1) | kwargs
        with pytest.raises(ValueError, match=f"need {name} "):
            pfasst_two_level(sys, **args)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(dt=0.0), "dt"),
        (dict(dt=-0.05), "dt"),
        (dict(dt=float("nan")), "dt"),
        (dict(n_windows=0), "n_windows"),
    ])
    def test_collocation_solve_rejects_bad_parameters(self, kwargs, name):
        sys = build_heat(8, 1.0 / 9, 1.0, "dirichlet")
        args = dict(dt=0.05, n_windows=3) | kwargs
        with pytest.raises(ValueError, match=f"need {name} "):
            collocation_solve(sys, **args)

    def test_identity_transfers_need_equal_node_counts(self):
        sys = build_heat(8, 1.0 / 9, 1.0, "dirichlet")
        with pytest.raises(ValueError, match="Mf == Mc"):
            pfasst_two_level(sys, 3, 0.05, k_max=1, Mf=3, Mc=2, identity_transfers=True)

    def test_matrix_free(self, monkeypatch):
        # neither the iteration, its reference nor B10 forms a dense operator
        def no_dense(self):
            raise AssertionError("dense operator formed")

        monkeypatch.setattr(BandedMatrix, "to_dense", no_dense)
        sys = build_heat(16, 1.0 / 17, 1.0, "dirichlet", source=SourcePulse(100.0))
        sys.u0[:] = np.sin(np.pi * sys.x)
        for flags in (dict(), dict(Mc=3, identity_transfers=True, sweeper_exact=True)):
            _, trace = pfasst_two_level(sys, 4, 0.05, k_max=2, **flags)
            assert trace.errors[-1] < trace.errors[0]
            assert dense_pfasst_b10(sys, 0.05, **flags).shape == (3 * sys.n, 3 * sys.n)

    def test_operational_cycle_matches_block_matrices(self):
        # one explicit sweep + coarse correction step reproduces the
        # assembled block-matrix update
        import scipy.linalg

        nx = 8
        sys = build_heat(nx, 1.0 / (nx + 1), 1.0, "dirichlet")
        sys.u0[:] = np.sin(np.pi * sys.x)
        dt = 0.05
        A = sys.A.to_dense()
        nf, nc = radau_iia_nodes(3), radau_iia_nodes(2)
        Qf, Qc = collocation_matrix(nf), collocation_matrix(nc)
        phi_f = np.eye(3 * nx) - dt * np.kron(Qf, A)
        phi_c = np.eye(2 * nx) - dt * np.kron(Qc, A)
        Tcf = np.kron(lagrange_transfer(nc, nf), np.eye(nx))
        Tfc = np.kron(lagrange_transfer(nf, nc), np.eye(nx))
        lower = np.eye(3) - np.eye(3, k=-1)
        phi_t = np.kron(lower, np.eye(nx)) - dt * np.kron(
            np.diag(np.diff(np.concatenate([[0.0], nf]))), A
        )
        rng = np.random.default_rng(3)
        u_old = rng.standard_normal(3 * nx)
        chi_small = np.zeros((3, 3))
        chi_small[:, -1] = 1.0
        chi = np.kron(chi_small, np.eye(nx))
        rhs_new = chi @ np.tile(sys.u0, 3)
        rhs_old = rhs_new.copy()
        # operational: sweep from the old iterate, then coarse-correct
        u_sweep = u_old + np.linalg.solve(phi_t, rhs_old - phi_f @ u_old)
        resid = rhs_new - phi_f @ u_sweep
        u_new = u_sweep + Tcf @ np.linalg.solve(phi_c, Tfc @ resid)
        B10, B01, B00 = dense_block_form(sys, dt)
        u_mat = B10 @ u_old + B01 @ rhs_new + B00 @ rhs_old
        np.testing.assert_allclose(u_new, u_mat, atol=1e-10)

    def test_heat_monotone_decay_to_discretization_level(self):
        # decays monotonically and reaches the truncation line
        # max(dt^2, dx^2) within 10 iterations
        nx = 127
        sys = build_heat(nx, 1.0 / 128, 1.0, "dirichlet", source=SourcePulse(1000.0))
        dt, n_w = 1.0 / 64, 64
        ref_half = collocation_solve(sys, dt / 2, 2 * n_w)[::2]
        ends, trace = pfasst_two_level(sys, n_w, dt, k_max=10,
                                       reference=ref_half)
        e = trace.errors
        assert all(b <= a * (1 + 1e-10) for a, b in zip(e[:-1], e[1:]))
        truncation_line = max(dt**2, (1.0 / 128) ** 2)
        assert e[10] <= truncation_line

    def test_weak_diffusion_slower(self):
        nx = 127
        heat = build_heat(nx, 1.0 / 128, 1.0, "dirichlet", source=SourcePulse(1000.0))
        ad = build_advection_diffusion(nx, 1.0 / 128, 1e-3, "dirichlet",
                                       source=SourcePulse(1000.0))
        dt, n_w, k = 1.0 / 64, 64, 10
        ref_h = collocation_solve(heat, dt / 2, 2 * n_w)[::2]
        ref_a = collocation_solve(ad, dt / 2, 2 * n_w)[::2]
        _, tr_h = pfasst_two_level(heat, n_w, dt, k_max=k, reference=ref_h)
        _, tr_a = pfasst_two_level(ad, n_w, dt, k_max=k, reference=ref_a)
        truncation_line = max(dt**2, (1.0 / 128) ** 2)
        # heat is below the truncation line by k=10; weak diffusion is not
        assert tr_h.errors[k] <= truncation_line < tr_a.errors[k]

