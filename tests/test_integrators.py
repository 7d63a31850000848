from dataclasses import replace

import numpy as np
import pytest

from pintlab import paradiag, paraexp, parareal, stmg
from pintlab.integrators import (
    METHODS,
    SOURCE_CHUNK,
    Propagator,
    TimeGrid,
    _newton,
    backward_euler,
    named_theta,
    numerov_solve,
    propagate,
    propagate_block,
    sdirk22,
    stability,
    trapezoidal,
    window_matrix,
)
from pintlab.kernels import (EXPM_DENSE_MAX, BandedMatrix, ConvergenceError,
                             SingularSystemError, solve_shifted_banded)
from pintlab.models import (CompanionSystem, SemiDiscreteSystem, SourcePulse,
                            build_advection_diffusion, build_burgers, build_heat, build_wave)

ALL_ONE_STEP = [backward_euler(), trapezoidal(), sdirk22()]
ORDER = {"backward_euler": 1, "trapezoidal": 2, "sdirk22": 2}


def scalar_system(lam=-1.0):
    A = BandedMatrix(np.array([lam]), np.zeros(0), np.zeros(0))
    return SemiDiscreteSystem(A=A, u0=np.ones(1), dx=1.0, bc="dirichlet", kind="heat",
                              x=np.zeros(1))


class TestStability:
    @pytest.mark.parametrize("method", ALL_ONE_STEP)
    def test_consistency_at_zero(self, method):
        assert stability(method, 0.0) == pytest.approx(1.0)

    def test_backward_euler_l_stability_limit(self):
        assert abs(stability(backward_euler(), -1e6)) < 2e-6

    def test_sdirk22_tableau_value(self):
        # gamma = (2 - sqrt(2))/2; check R against direct tableau algebra
        g = (2 - np.sqrt(2)) / 2
        A = np.array([[g, 0.0], [1 - g, g]])
        b = np.array([1 - g, g])
        for z in (-0.3, -2.0, 1.7j, -4.0 + 0.5j):
            R_ref = 1 + z * b @ np.linalg.solve(np.eye(2) - z * A, np.ones(2))
            assert stability(sdirk22(), z) == pytest.approx(R_ref, abs=1e-13)

    @pytest.mark.parametrize("method", [backward_euler(), trapezoidal(), sdirk22()])
    def test_a_stability_sampled(self, method):
        rng = np.random.default_rng(5)
        z = -rng.random(400) * 50 + 1j * (rng.random(400) - 0.5) * 100
        assert np.all(np.abs(stability(method, z)) <= 1.0 + 1e-12)

    def test_pole_raises(self):
        with pytest.raises(ZeroDivisionError):
            stability(backward_euler(), 1.0)


class TestPropagate:
    def test_be_single_step_dahlquist(self):
        sys = scalar_system(-2.0)
        prop = Propagator(backward_euler(), dt=0.1, steps=1)
        u = propagate(prop, sys, 0.0, 0.1, np.array([1.0]))
        assert u[0] == pytest.approx(1.0 / (1.0 + 0.2))

    def test_determinism(self):
        sys = build_heat(16, 1.0 / 17, 1.0, "dirichlet")
        sys.u0[:] = np.sin(np.pi * sys.x)
        prop = Propagator(sdirk22(), dt=0.01, steps=10)
        a = propagate(prop, sys, 0.0, 0.1, sys.u0)
        b = propagate(prop, sys, 0.0, 0.1, sys.u0)
        np.testing.assert_array_equal(a, b)

    def test_sdirk22_matches_stability_power(self):
        lam, dt, J = -3.0, 0.1, 10
        sys = scalar_system(lam)
        prop = Propagator(sdirk22(), dt=dt, steps=J)
        u = propagate(prop, sys, 0.0, 1.0, np.array([1.0]))
        expected = stability(sdirk22(), lam * dt) ** J
        assert u[0] == pytest.approx(expected.real, abs=1e-13)

    @pytest.mark.parametrize("method", ALL_ONE_STEP)
    def test_composition_is_stepping(self, method):
        sys = build_heat(12, 1.0 / 13, 1.0, "dirichlet")
        sys.u0[:] = np.sin(np.pi * sys.x)
        one = Propagator(method, dt=0.02, steps=1)
        five = Propagator(method, dt=0.02, steps=5)
        u = sys.u0.copy()
        for k in range(5):
            u = propagate(one, sys, k * 0.02, (k + 1) * 0.02, u)
        np.testing.assert_array_equal(u, propagate(five, sys, 0.0, 0.1, sys.u0))

    def test_window_mismatch_raises(self):
        sys = scalar_system()
        prop = Propagator(backward_euler(), dt=0.1, steps=2)
        with pytest.raises(ValueError):
            propagate(prop, sys, 0.0, 0.1, np.array([1.0]))

    @pytest.mark.parametrize("method", ALL_ONE_STEP)
    def test_order_of_accuracy(self, method):
        lam = -1.0
        sys = scalar_system(lam)
        errs = []
        dts = [0.1, 0.05, 0.025]
        for dt in dts:
            steps = int(round(1.0 / dt))
            prop = Propagator(method, dt=dt, steps=steps)
            u = propagate(prop, sys, 0.0, 1.0, np.array([1.0]))
            errs.append(abs(u[0] - np.exp(lam)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(ORDER[method.name], abs=0.25)

    def test_nonlinear_burgers_theta_step(self):
        nx = 24
        sys = build_burgers(nx, 1.0 / nx, 0.5, "periodic")
        sys.u0[:] = np.sin(2 * np.pi * sys.x) ** 2
        prop = Propagator(backward_euler(), dt=1e-3, steps=10)
        u = propagate(prop, sys, 0.0, 0.01, sys.u0)
        # implicit relation of the last BE step must hold at Newton tolerance
        u_prev = propagate(Propagator(backward_euler(), dt=1e-3, steps=9), sys, 0.0, 0.009, sys.u0)
        res = u - u_prev - 1e-3 * sys.f(u, 0.01)
        assert np.abs(res).max() <= 1e-10

    @pytest.mark.parametrize("model", ["heat", "burgers"])
    def test_block_propagation_column_permutation_bitwise(self, model):
        # a column's result does not depend on the other columns, which makes
        # running the windows of a block in any order or in parallel exact
        if model == "heat":
            sys = build_heat(16, 1.0 / 17, 1.0, "dirichlet")
            prop = Propagator(trapezoidal(), dt=0.02, steps=5)
        else:
            sys = build_burgers(24, 1.0 / 24, 0.5, "periodic")
            prop = Propagator(sdirk22(), dt=0.02, steps=5)
        rng = np.random.default_rng(7)
        U = rng.standard_normal((sys.n, 6))
        t0s = 0.1 * np.arange(6)
        out = propagate_block(prop, sys, t0s, U)
        perm = np.array([5, 2, 0, 4, 1, 3])
        out_p = propagate_block(prop, sys, t0s[perm], U[:, perm])
        np.testing.assert_array_equal(out_p[:, np.argsort(perm)], out)


WINDOW_SYSTEMS = {
    "heat_dirichlet": lambda: build_heat(24, 1.0 / 25, 0.1, "dirichlet"),
    "heat_periodic": lambda: build_heat(24, 1.0 / 24, 0.1, "periodic"),
    "advection_diffusion_periodic": lambda: build_advection_diffusion(24, 1.0 / 24, 0.05,
                                                                      "periodic"),
    "wave_companion": lambda: CompanionSystem(build_wave(12, 1.0 / 13, 1.0, "dirichlet")),
}


class TestWindowMatrix:
    @pytest.mark.parametrize("model", sorted(WINDOW_SYSTEMS))
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_matvec_matches_per_column_propagate(self, model, method):
        # F is one step on the identity raised to the J-th power by repeated
        # squaring; F u equals stepping u within 1e-13 |u| (the worst case
        # measured, the companion wave, is 1.4e-14 |u|)
        sys = WINDOW_SYSTEMS[model]()
        prop = Propagator(METHODS[method](), dt=0.02, steps=10)
        F = window_matrix(prop, sys)
        assert F.shape == (sys.n, sys.n)
        rng = np.random.default_rng(5)
        for _ in range(4):
            u = rng.standard_normal(sys.n)
            ref = propagate(prop, sys, 0.3, 0.5, u)
            assert np.linalg.norm(F @ u - ref) <= 1e-13 * np.linalg.norm(u)

    @pytest.mark.parametrize("model", ["heat_source", "burgers", "large_heat"])
    def test_no_matrix_for_a_source_nonlinear_or_large_system(self, model):
        # a source makes the window map affine and time-dependent, Burgers
        # makes it nonlinear, and above EXPM_DENSE_MAX unknowns the dense
        # n x n matrix is not formed: these systems keep stepping
        sys = {
            "heat_source": lambda: build_heat(12, 1.0 / 13, 0.2, "dirichlet",
                                              source=SourcePulse(50.0)),
            "burgers": lambda: build_burgers(16, 1.0 / 16, 0.5, "periodic"),
            "large_heat": lambda: build_heat(EXPM_DENSE_MAX + 1, 1.0 / (EXPM_DENSE_MAX + 2),
                                             0.1, "dirichlet"),
        }[model]()
        for method in METHODS.values():
            assert window_matrix(Propagator(method(), dt=0.02, steps=10), sys) is None


SOURCED_SYSTEMS = {
    "heat_dirichlet": lambda: build_heat(12, 1.0 / 13, 0.2, "dirichlet", source=SourcePulse(50.0)),
    "advection_diffusion_periodic": lambda: build_advection_diffusion(
        12, 1.0 / 12, 0.05, "periodic", source=SourcePulse(50.0)),
}
THETA_METHODS = [backward_euler(), trapezoidal()]  # the methods that step a source
CHUNKED_STEPS = 2 * SOURCE_CHUNK + 5  # a last chunk shorter than the others


class TestSourceChunks:
    """A linear march evaluates its source once per SOURCE_CHUNK steps."""

    def march(self, sys, method):
        U = np.random.default_rng(3).standard_normal((sys.n, 3))
        return Propagator(method, dt=0.01, steps=CHUNKED_STEPS), np.array([0.0, 0.37, 1.3]), U

    @pytest.mark.parametrize("model", sorted(SOURCED_SYSTEMS))
    @pytest.mark.parametrize("method", THETA_METHODS, ids=str)
    def test_chunked_march_matches_one_step_calls_bitwise(self, model, method):
        sys = SOURCED_SYSTEMS[model]()
        prop, t0s, U = self.march(sys, method)
        W = U
        for s in range(prop.steps):
            W = propagate_block(replace(prop, steps=1), sys, t0s + s * prop.dt, W)
        assert propagate_block(prop, sys, t0s, U).tobytes() == W.tobytes()

    @pytest.mark.parametrize("method", THETA_METHODS, ids=str)
    def test_one_source_call_per_chunk(self, method):
        # per-step evaluation made two source calls per step, 2 * 37 here
        sys = SOURCED_SYSTEMS["heat_dirichlet"]()
        calls, real = [], sys.source

        def counting(t):
            calls.append(t)
            return real(t)

        sys.source = counting
        prop, t0s, U = self.march(sys, method)
        propagate_block(prop, sys, t0s, U)
        assert len(calls) == -(-prop.steps // SOURCE_CHUNK)

    @pytest.mark.parametrize("method", THETA_METHODS, ids=str)
    def test_source_times_per_step(self, method):
        # backward Euler reads the source at each step's end alone, half the
        # evaluations of the trapezoidal rule, which also reads its start
        sys = SOURCED_SYSTEMS["heat_dirichlet"]()
        evaluations, real = [], sys.source

        def counting(t):
            evaluations.append(np.size(t))
            return real(t)

        sys.source = counting
        prop, t0s, U = self.march(sys, method)
        propagate_block(prop, sys, t0s, U)
        times_per_step = {"backward_euler": 1, "trapezoidal": 2}[method.name]
        assert sum(evaluations) == times_per_step * prop.steps * t0s.size


def newton_reference(sys, c, rhs, t, guess, tol=1e-12, max_iter=50):
    """The per-column Newton that the batched one replaced: y - c*f(y, t) =
    rhs for one column, one one-shot shifted solve per iteration."""
    y = guess.copy()
    for _ in range(max_iter):
        res = y - c * sys.f(y, t) - rhs
        if np.abs(res).max() <= tol * max(1.0, np.abs(y).max()):
            return y
        y = y - solve_shifted_banded(sys.jacobian(y), (1.0, c), res)
        if not np.all(np.isfinite(y)):
            raise ConvergenceError("Newton iterate became non-finite")
    raise ConvergenceError("Newton did not converge")


def recording_f(sys):
    """Make ``sys.f`` record a copy of every state it is evaluated on: the
    Newton iterates, one per iteration."""
    calls, f = [], sys.f

    def record(u, t):
        calls.append(np.array(u, copy=True))
        return f(u, t)

    sys.f = record
    return calls


def burgers(bc, source=False):
    nx = 31 if bc == "dirichlet" else 32
    return build_burgers(nx, 1.0 / (nx + 1 if bc == "dirichlet" else nx), 0.05, bc,
                         source=SourcePulse(50.0) if source else None)


class TestBatchedNewton:
    """The column-batched Newton against the per-column loop above, bit for
    bit on every iterate of every column."""

    def block(self, sys, k, seed=3):
        rng = np.random.default_rng(seed)
        # columns of different sizes take different iteration counts
        scale = np.array([0.0, 30.0, 1.0, 10.0, 3.0, 1e-3, 0.3])[:k]
        base = np.sin(2 * np.pi * sys.x)[:, None] + 0.1 * rng.standard_normal((sys.n, k))
        return scale * base, 0.2 + 0.3 * rng.random(k)

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_every_iterate_matches_per_column(self, bc, k):
        sys, c = burgers(bc, source=True), 3e-2
        rhs, ts = self.block(sys, k)
        guess = rhs.copy()
        if k > 2:  # column 2 starts converged and leaves at the first check
            guess[:, 2] = newton_reference(sys, c, rhs[:, 2], ts[2], rhs[:, 2])
        calls = recording_f(sys)
        ref, ref_iterates = [], []
        for j in range(k):
            calls[:] = []
            ref.append(newton_reference(sys, c, rhs[:, j], ts[j], guess[:, j]))
            ref_iterates.append(calls[:])
        calls[:] = []
        out = _newton(sys, c, rhs, ts, guess)
        np.testing.assert_array_equal(out, np.stack(ref, axis=1))
        counts = [len(it) for it in ref_iterates]
        if k > 1:
            assert len(set(counts)) == min(k, 5)  # columns leave the active set at different times
        # iteration i evaluates f once on the columns still active, in order
        assert len(calls) == max(counts)
        for i, block in enumerate(calls):
            active = [j for j in range(k) if counts[j] > i]
            expected = np.stack([ref_iterates[j][i] for j in active], axis=1)
            np.testing.assert_array_equal(block.reshape(expected.shape), expected)

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_vector_is_block_of_one(self, bc):
        sys, c = burgers(bc, source=True), 2e-3
        rhs, ts = self.block(sys, 5)
        u, t = rhs[:, 4], ts[4]
        ref = newton_reference(sys, c, u, t, u)
        np.testing.assert_array_equal(_newton(sys, c, u, t, u), ref)
        np.testing.assert_array_equal(_newton(sys, c, u[:, None], np.array([t]), u[:, None])[:, 0], ref)

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_sdirk22_block_matches_per_column_steps(self, bc):
        sys = burgers(bc, source=True)
        prop = Propagator(sdirk22(), dt=0.01, steps=4)
        U, _ = self.block(sys, 4, seed=11)
        t0s = np.array([0.0, 0.37, 0.05, 1.3])
        g, a21, (b1, b2) = prop.method.gamma, prop.method.a21, prop.method.b
        dt = prop.dt
        for j in range(U.shape[1]):
            u = U[:, j].copy()
            for s in range(prop.steps):
                t0 = float(t0s[j] + s * dt)
                y1 = newton_reference(sys, g * dt, u, t0 + g * dt, u)
                k1 = sys.f(y1, t0 + g * dt)
                y2 = newton_reference(sys, g * dt, u + dt * a21 * k1, t0 + (a21 + g) * dt, y1)
                k2 = sys.f(y2, t0 + (a21 + g) * dt)
                u = u + dt * (b1 * k1 + b2 * k2)
            np.testing.assert_array_equal(propagate_block(prop, sys, t0s, U)[:, j], u)
            np.testing.assert_array_equal(
                propagate(prop, sys, t0s[j], t0s[j] + prop.span(), U[:, j]), u)


class TestBatchedNewtonErrors:
    """A bad column raises what its own Newton raises, at the same
    iteration, whatever the columns beside it do."""

    @staticmethod
    def first_error(fn):
        with pytest.raises(Exception) as info:
            fn()
        return type(info.value), str(info.value)

    def test_non_finite_rhs(self):
        sys, c = burgers("dirichlet"), 2e-3
        # columns 0 and 2 converge at once (zero residual), column 1 is NaN
        rhs = np.zeros((sys.n, 3))
        rhs[5, 1] = np.nan
        calls = recording_f(sys)
        expected = self.first_error(lambda: newton_reference(sys, c, rhs[:, 1], 0.0, rhs[:, 1]))
        assert expected == (SingularSystemError, "non-finite solution from banded solve")
        calls[:] = []
        assert self.first_error(lambda: _newton(sys, c, rhs, 0.0, rhs)) == expected
        assert len(calls) == 1  # no further iteration

    def test_singular_jacobian_names_its_block(self):
        # u' = u^2: J(y) = 2 diag(y), so I - c J(y) has the pivot 1 - 2 c y[i]
        # in row i, exactly zero for c = 1/4 and y[i] = 2
        n = 8
        zero, one = np.zeros(n), np.ones(n)
        sys = SemiDiscreteSystem(A=BandedMatrix(zero, zero[1:], zero[1:]), u0=zero, dx=1.0,
                                 bc="dirichlet", kind="quadratic", x=zero,
                                 B=BandedMatrix(one, zero[1:], zero[1:]))
        c = 0.25
        guess = np.full((n, 4), 0.5)
        guess[5, 1] = 2.0
        rhs = guess + 1.0
        rhs[:, 2:] = guess[:, 2:] - c * sys.f(guess[:, 2:], 0.0)  # converged at once
        calls = recording_f(sys)
        kind, msg = self.first_error(lambda: newton_reference(sys, c, rhs[:, 1], 0.0, guess[:, 1]))
        assert (kind, msg) == (SingularSystemError,
                               "singular shifted banded system 0 (zero pivot in its row 5)")
        calls[:] = []
        assert self.first_error(lambda: _newton(sys, c, rhs, 0.0, guess)) == (
            kind, msg.replace("system 0", "system 1"))
        assert len(calls) == 1

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_max_iter(self, max_iter):
        sys, c = burgers("periodic"), 2e-3
        rhs = np.zeros((sys.n, 3))
        rhs[:, 1] = 3.0 * np.sin(2 * np.pi * sys.x)
        calls = recording_f(sys)
        expected = self.first_error(
            lambda: newton_reference(sys, c, rhs[:, 1], 0.0, rhs[:, 1], max_iter=max_iter))
        assert expected == (ConvergenceError, "Newton did not converge")
        n_ref, calls[:] = len(calls), []
        assert self.first_error(lambda: _newton(sys, c, rhs, 0.0, rhs, max_iter=max_iter)) == expected
        assert len(calls) == n_ref == max_iter


class TestNumerov:
    def test_free_motion_when_a_zero(self):
        nx = 5
        sys = build_wave(nx, 0.2, 0.0, "dirichlet")
        rng = np.random.default_rng(8)
        sys.u0[:], uc = rng.standard_normal(nx), rng.standard_normal(nx)
        nxt = numerov_solve(sys, 0.1, 2, u1=uc)[2]
        np.testing.assert_allclose(nxt, 2 * uc - sys.u0, atol=1e-14)

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_no_steps_rejected(self, n_steps):
        with pytest.raises(ValueError, match=f"n_steps >= 1, got {n_steps}"):
            numerov_solve(build_wave(5, 0.2, 1.0, "dirichlet"), 0.1, n_steps)

    @pytest.mark.parametrize("n_steps", [2, 30])
    def test_factors_once_per_solve(self, n_steps, gbtrf_calls):
        sys = build_wave(6, 1.0 / 7, 1.0, "dirichlet")
        sys.u0[:] = np.sin(np.pi * sys.x)
        for solves in (1, 2):
            numerov_solve(sys, 0.05, n_steps)
            assert len(gbtrf_calls) == solves

    def test_unconditional_stability_threshold(self):
        # scalar A = -omega^2: |r1^{-1} r2| <= 2 for all dt^2*omega^2 iff gamma >= 1/120
        def amp(gamma, s):
            r1 = 1 + s / 12 + 10 * gamma * s**2 / 12
            r2 = 2 - 10 * s / 12 + 20 * gamma * s**2 / 12
            return abs(r2 / r1)

        svals = np.linspace(0.0, 1e4, 20001)
        assert np.all([amp(1.0 / 120.0, s) <= 2.0 + 1e-12 for s in svals])
        bad = [amp(1.0 / 121.0, s) for s in svals]
        assert max(bad) > 2.0

    def test_fourth_order_on_oscillator(self):
        # u'' = -u, u(0)=1, u'(0)=0 -> cos(t)
        A = BandedMatrix(np.array([-1.0]), np.zeros(0), np.zeros(0))
        errs = []
        dts = [0.1, 0.05, 0.025]
        for dt in dts:
            sys = SemiDiscreteSystem(
                A=A, u0=np.array([1.0]), dx=1.0, bc="dirichlet", kind="wave",
                order="second", u0_deriv=np.array([0.0]), x=np.zeros(1),
            )
            n = int(round(1.0 / dt))
            traj = numerov_solve(sys, dt, n, u1=np.array([np.cos(dt)]))
            errs.append(abs(traj[-1, 0] - np.cos(1.0)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.2)


class TestTimeGrid:
    @pytest.mark.parametrize("name, T, n_windows", [("n_windows", 1.0, 0), ("T", 0.0, 4),
                                                    ("T", -1.0, 4), ("T", np.inf, 4)])
    def test_uniform_rejects_invalid(self, name, T, n_windows):
        match = f"^{name} must be positive and finite|^need an integer {name} >= 1"
        with pytest.raises(ValueError, match=match):
            TimeGrid.uniform(T, n_windows)


class TestNamedTheta:
    def test_theta_methods(self):
        assert named_theta("backward_euler") == 1.0
        assert named_theta("trapezoidal") == 0.5

    @pytest.mark.parametrize("name", ["sdirk22", "exact", "bogus"])
    def test_rejects_non_theta_names(self, name):
        with pytest.raises(ValueError, match=f"integrator {name!r} is not a theta method"):
            named_theta(name)

    def test_table_builds_every_method(self):
        for name, make in METHODS.items():
            assert make().name == name


def _nan_heat(nx=8):
    sys = build_heat(nx, 1.0 / (nx + 1), 0.1, "dirichlet")
    sys.u0[:] = np.sin(np.pi * sys.x)
    sys.u0[3] = np.nan
    return sys


def _nan_wave(nx=8):
    sys = build_wave(nx, 1.0 / (nx + 1), 1.0, "dirichlet")
    sys.u0[:] = np.sin(np.pi * sys.x)
    sys.u0[3] = np.nan
    return sys


def _nan_burgers(nx=8):
    sys = build_burgers(nx, 1.0 / nx, 0.1, "periodic")
    sys.u0[:] = np.sin(2 * np.pi * sys.x)
    sys.u0[3] = np.nan
    return sys


def _nan_fn(x):
    out = np.sin(np.pi * x)
    out[len(out) // 2] = np.nan
    return out


def _parareal_entry(name):
    grid = TimeGrid.uniform(0.4, 4)
    dT = grid.window_length()
    cfg = parareal.PararealConfig(grid=grid, fine=Propagator(trapezoidal(), dt=dT / 2, steps=2),
                                  coarse=Propagator(backward_euler(), dt=dT, steps=1),
                                  max_iter=2)
    if name == "fine_sequential":
        return lambda: parareal.fine_sequential(cfg.grid, cfg.fine, _nan_heat())
    # with the oracle given, the solver's own entry check is the one that fires
    return lambda: getattr(parareal, name)(cfg, _nan_heat(), oracle=np.zeros((5, 8)))


def _paraexp_entry(name):

    grid = TimeGrid.uniform(0.4, 4)
    plan = paraexp.ParaExpPlan(grid=grid, red=Propagator(trapezoidal(), dt=0.05, steps=2))
    if name == "paraexp_linear_solve":
        return lambda: paraexp.paraexp_linear_solve(plan, _nan_heat())
    return lambda: getattr(paraexp, name)(plan, _nan_burgers(), oracle=np.zeros((5, 8)))


def _swr_entry(name):
    from pintlab import swr

    return {
        "monodomain_solve_ad": lambda: swr.monodomain_solve_ad(0.1, 1.0, 0.05, 0.1, 0.01, _nan_fn),
        "monodomain_solve_wave": lambda: swr.monodomain_solve_wave(1.0, 1.0, 0.5, 0.1, _nan_fn),
    }[name]


def _idc_entry(name):
    from pintlab import idc

    return {
        "idc_run": lambda: idc.idc_run(_nan_heat(), 0.5, 2, 3, 1),
        "pfasst_two_level": lambda: idc.pfasst_two_level(_nan_heat(), 3, 0.05, k_max=1),
    }[name]


def _paradiag1_entry(name):
    from pintlab import paradiag

    mesh = paradiag.GeometricTimeMesh(T=0.5, n_t=6, rho=0.1)
    return {
        "paradiag1_direct_solve": lambda: paradiag.paradiag1_direct_solve(_nan_heat(), mesh),
        "sequential_variable_step_solve": lambda: paradiag.sequential_variable_step_solve(
            _nan_heat(), mesh),
        # the smallest mesh the BVM accepts
        "paradiag1_bvm_solve": lambda: paradiag.paradiag1_bvm_solve(_nan_wave(), 0.05, 2),
        "paradiag1_bvm_solve_second_order": lambda: paradiag.paradiag1_bvm_solve(
            _nan_wave(), 0.05, 6),
    }[name]


NON_FINITE_U0_ENTRIES = (
    [("parareal", n) for n in ("fine_sequential", "parareal_solve", "mgrit_fcf_solve",
                               "parareal_diag_cgc_solve", "parareal_diag_coarse_solve")]
    + [("paraexp", n) for n in ("paraexp_linear_solve", "paraexp_nonlinear_iterate",
                                "linear_g_parareal")]
    + [("swr", n) for n in ("monodomain_solve_ad", "monodomain_solve_wave")]
    + [("idc", n) for n in ("idc_run", "pfasst_two_level")]
    + [("paradiag1", n) for n in ("paradiag1_direct_solve", "sequential_variable_step_solve",
                                  "paradiag1_bvm_solve", "paradiag1_bvm_solve_second_order")]
)


@pytest.mark.parametrize("family, name", NON_FINITE_U0_ENTRIES)
def test_non_finite_u0_rejected_at_entry(family, name):
    # a NaN initial value is named on entry, not reported later as a
    # failed solve somewhere inside the method
    entry = {"parareal": _parareal_entry, "paraexp": _paraexp_entry, "swr": _swr_entry,
             "idc": _idc_entry, "paradiag1": _paradiag1_entry}[family](name)
    with pytest.raises(ValueError, match="initial value u0 has non-finite entries"):
        entry()


@pytest.mark.parametrize("make, match", [
    (lambda: paradiag.GeometricTimeMesh(T=0.5, n_t=6, rho=np.nan), "^rho must be positive"),
    (lambda: Propagator(backward_euler(), dt=np.nan, steps=1), "^dt must be positive"),
    (lambda: stmg.SmootherConfig(eta=np.nan), "^eta must be positive"),
    (lambda: SourcePulse(np.nan), "sigma must be positive"),
    (lambda: Propagator(backward_euler(), dt=np.inf, steps=1), "^dt must be positive and finite"),
    (lambda: paradiag.GeometricTimeMesh(T=np.inf, n_t=6, rho=0.1),
     "^T must be positive and finite"),
    (lambda: stmg.SmootherConfig(eta=np.inf), "^eta must be positive and finite"),
    (lambda: build_heat(8, 1.0 / 9, np.nan, "dirichlet"), "^nu must be nonnegative"),
], ids=["mesh_rho", "propagator_dt", "smoother_eta", "pulse_sigma", "propagator_dt_inf",
        "mesh_T_inf", "smoother_eta_inf", "heat_nu"])
def test_nan_positive_parameter_rejected(make, match):
    # NaN <= 0 is False, and inf > 0 is True, so each check is
    # kernels.check_positive (nu >= 0 reads "not nu >= 0"); a NaN-rho mesh
    # used to fail later, inside an eigendecomposition
    with pytest.raises(ValueError, match=match):
        make()


WINDOW_STEP = Propagator(backward_euler(), dt=0.25, steps=1)  # spans each of 4 unit windows


@pytest.mark.parametrize("make, name", [
    (lambda: parareal.PararealConfig(grid=TimeGrid.uniform(1.0, 4), fine=WINDOW_STEP,
                                     coarse=WINDOW_STEP, max_iter=-2), "max_iter"),
    (lambda: paraexp.ParaExpPlan(grid=TimeGrid.uniform(1.0, 4), red=WINDOW_STEP, max_iter=-2),
     "max_iter"),
    (lambda: stmg.stmg_two_level(build_heat(15, 1.0 / 16, 1.0, "dirichlet"),
                                 stmg.SpaceTimeGrid(lx=4, lt=3, dx=1.0 / 16, dt=8.0 / 16**2),
                                 stmg.SmootherConfig(eta=0.5), cycles=-3), "cycles"),
    (lambda: stmg.SmootherConfig(eta=0.5, s1=-1, s2=-1), "s1"),
    (lambda: parareal.PararealConfig(grid=TimeGrid.uniform(1.0, 4), fine=WINDOW_STEP,
                                     coarse=WINDOW_STEP, max_iter=2.5), "max_iter"),
    (lambda: paraexp.ParaExpPlan(grid=TimeGrid.uniform(1.0, 4), red=WINDOW_STEP,
                                 max_iter=np.nan), "max_iter"),
    (lambda: numerov_solve(build_wave(8, 1.0 / 9, 1.0, "dirichlet"), 0.01, 2.5), "n_steps"),
], ids=["parareal_max_iter", "paraexp_max_iter", "stmg_cycles", "smoother_sweeps",
        "parareal_max_iter_fraction", "paraexp_max_iter_nan", "numerov_n_steps_fraction"])
def test_negative_count_rejected(make, name):
    # range() of a negative count is empty, so each of these used to return
    # at once; the smoother ran V-cycles with no smoothing.  A fractional or
    # NaN count is no count either.
    with pytest.raises(ValueError, match=f"need an integer {name} >= "):
        make()


def _pulse_heat(nx=15, source=SourcePulse(50.0)):
    sys = build_heat(nx, 1.0 / (nx + 1), 0.2, "dirichlet", source=source)
    sys.u0[:] = np.sin(np.pi * sys.x)
    return sys


def _march(method, source):
    sys = _pulse_heat(12, source)
    prop = Propagator(method, dt=0.01, steps=CHUNKED_STEPS)
    return lambda: propagate_block(prop, sys, np.array([0.0, 0.37, 1.3]), np.ones((sys.n, 3)))


def _source_entry(name):
    mesh = paradiag.GeometricTimeMesh(T=0.5, n_t=6, rho=0.1)
    grid = stmg.SpaceTimeGrid(lx=4, lt=3, dx=1.0 / 16, dt=8.0 / 16**2)
    return {
        # (n,) + t.shape is the contract; a constant-in-time source would
        # otherwise broadcast silently against the block
        "constant_in_time": (_march(trapezoidal(), lambda x, t: np.ones_like(x)),
                             r"source .* gave values of shape"),
        "one_time_only": (_march(trapezoidal(), lambda x, t: np.zeros(x.size)),
                          r"source .* gave values of shape"),
        "sdirk22": (_march(sdirk22(), SourcePulse(50.0)), "the sdirk22 propagator takes no source"),
        "stmg_two_level": (lambda: stmg.stmg_two_level(_pulse_heat(), grid,
                                                       stmg.SmootherConfig(eta=0.5)),
                           "all-at-once operator takes systems without a source"),
        "paradiag2_solve": (lambda: paradiag.paradiag2_solve(_pulse_heat(), "backward_euler",
                                                             0.1, 0.02, 8),
                            "all-at-once operator takes systems without a source"),
        "paradiag1_direct_solve": (lambda: paradiag.paradiag1_direct_solve(_pulse_heat(), mesh),
                                   "ParaDiag I takes systems without a source"),
        "sequential_variable_step_solve": (
            lambda: paradiag.sequential_variable_step_solve(_pulse_heat(), mesh),
            "ParaDiag I takes systems without a source"),
    }[name]


@pytest.mark.parametrize("name", ["constant_in_time", "one_time_only", "sdirk22",
                                  "stmg_two_level", "paradiag2_solve", "paradiag1_direct_solve",
                                  "sequential_variable_step_solve"])
def test_unsupported_source_rejected(name):
    # a source is stepped only by a theta method, and neither the
    # all-at-once operator nor ParaDiag I takes one
    entry, message = _source_entry(name)
    with pytest.raises(ValueError, match=message):
        entry()
