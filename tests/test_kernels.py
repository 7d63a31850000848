import gc
import weakref

import numpy as np
import pytest
import scipy.linalg

from pintlab import kernels
from pintlab.kernels import (
    EXPM_DENSE_MAX,
    BandedMatrix,
    ShiftPlan,
    SingularSystemError,
    StackedTridiagonalLU,
    apply_blocks,
    dense_of,
    dft,
    expm_action,
    gmres,
    idft,
    solve_poly_in_matrix,
    solve_shifted_banded,
    toeplitz_lower_apply,
)
from pintlab.models import CompanionSystem, build_heat, build_wave


def periodic_laplacian_stencil(n):
    """Integer second-difference stencil with periodic wrap corners."""
    return BandedMatrix(
        -2.0 * np.ones(n), np.ones(n - 1), np.ones(n - 1),
        corner_top=1.0, corner_bottom=1.0,
    )


def random_banded(rng, n, periodic=False, dominant=True):
    lower = rng.standard_normal(n - 1)
    upper = rng.standard_normal(n - 1)
    diag = rng.standard_normal(n)
    ct = cb = None
    if periodic:
        ct, cb = rng.standard_normal(2)
    if dominant:
        bulk = np.zeros(n)
        bulk[:-1] += np.abs(upper)
        bulk[1:] += np.abs(lower)
        if periodic:
            bulk[0] += abs(ct)
            bulk[-1] += abs(cb)
        diag = np.sign(diag) * (np.abs(diag) + bulk + 1.0)
    return BandedMatrix(diag, lower, upper, ct, cb)


class TestSolveShiftedBandedMany:
    """The stacked solve of a J-shift plan must reproduce the per-shift loop
    bit for bit, and each per-shift check must still fire inside a batch."""

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("complex_shifts", [False, True])
    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("J", [1, 7])
    def test_equals_per_shift_loop(self, periodic, complex_shifts, k, J):
        rng = np.random.default_rng(40)
        n = 11
        A = random_banded(rng, n, periodic=periodic)
        a = 1.0 + rng.random(J)
        b = 0.3 * rng.standard_normal(J)
        if complex_shifts:
            a = a + 1j * rng.standard_normal(J)
            b = b + 0.1j * rng.standard_normal(J)
        R = rng.standard_normal((J, n) if k is None else (J, n, k))
        X = A.shift_plan(a, b).solve(R)
        loop = np.stack([solve_shifted_banded(A, (a[j], b[j]), R[j]) for j in range(J)])
        assert X.shape == R.shape
        assert np.array_equal(X, loop)

    def test_periodic_batch_with_zero_shift(self):
        # b = 0 drops the periodic corners for that shift only
        rng = np.random.default_rng(41)
        A = random_banded(rng, 9, periodic=True)
        a, b = np.array([1.5, 2.0, 1.2]), np.array([0.2, 0.0, -0.1])
        R = rng.standard_normal((3, 9))
        X = A.shift_plan(a, b).solve(R)
        for j in range(3):
            assert np.array_equal(X[j], solve_shifted_banded(A, (a[j], b[j]), R[j]))

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_one_singular_shift_in_plain_batch_raises(self, bad):
        # Neumann-closed stencil: (0, 1) leaves the constant null vector
        n = 8
        diag = -2.0 * np.ones(n)
        diag[0] = diag[-1] = -1.0
        A = BandedMatrix(diag, np.ones(n - 1), np.ones(n - 1))
        a, b = np.array([1.0, 2.0, 1.5]), np.array([0.1, 0.3, 0.2])
        a[bad], b[bad] = 0.0, 1.0
        R = np.tile(np.arange(1.0, n + 1.0), (3, 1))
        with pytest.raises(SingularSystemError):
            A.shift_plan(a, b).solve(R)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_one_singular_capacitance_in_periodic_batch_raises(self, bad):
        A = periodic_laplacian_stencil(6)
        a, b = np.array([1.0, 2.0, 1.5]), np.array([0.1, 0.3, 0.2])
        a[bad], b[bad] = 0.0, 1.0
        with pytest.raises(SingularSystemError, match="capacitance"):
            A.shift_plan(a, b).solve(np.ones((3, 6)))


def gtsv_reference(A, a, b, rhs):
    """Shifted solve with every call factoring afresh: the J blocks stacked
    into one LAPACK gtsv call, periodic corners by the Woodbury columns
    solved in the same call.  The stored gttrf/gttrs path must match it
    bit for bit."""
    a, b = np.asarray(a), np.asarray(b)
    J, n = rhs.shape[:2]
    periodic = A.periodic and n > 2
    dtype = np.result_type(A.diag, a, b, rhs)
    a_col, b_col = a[:, None], b[:, None]
    R = rhs.reshape(J, n, -1)
    ab = np.zeros((3, J, n), dtype=dtype)
    ab[1] = a_col - b_col * A.diag.astype(dtype, copy=False)
    if n == 1:
        return (R / ab[1][:, :, None]).reshape(rhs.shape)
    ab[0, :, 1:] = -b_col * A.upper.astype(dtype, copy=False)
    ab[2, :, :-1] = -b_col * A.lower.astype(dtype, copy=False)
    k = R.shape[2]
    block = R
    if periodic:
        block = np.zeros((J, n, k + 2), dtype=dtype)
        block[:, :, :k] = R
        block[:, 0, k] = -b * A.corner_top
        block[:, -1, k + 1] = -b * A.corner_bottom
    band = ab.reshape(3, J * n)
    gtsv, = scipy.linalg.get_lapack_funcs(("gtsv",), (band, block))
    *_, sol, info = gtsv(band[2, :-1], band[1], band[0, 1:], block.reshape(J * n, -1))
    assert info == 0
    sol = sol.reshape(block.shape)
    if not periodic:
        return sol.reshape(rhs.shape)
    x0, z = sol[:, :, :k], sol[:, :, k:]
    cap = np.eye(2, dtype=dtype) + z[:, [-1, 0], :]
    return (x0 - z @ np.linalg.solve(cap, x0[:, [-1, 0], :])).reshape(rhs.shape)


def pivots(A, a, b):
    """Whether gttrf of the stacked shifted blocks swaps any rows."""
    J, n = len(a), A.n
    ab = np.zeros((3, J, n), dtype=np.result_type(A.diag, a, b))
    ab[1] = np.asarray(a)[:, None] - np.asarray(b)[:, None] * A.diag
    ab[0, :, 1:] = -np.asarray(b)[:, None] * A.upper
    ab[2, :, :-1] = -np.asarray(b)[:, None] * A.lower
    band = ab.reshape(3, J * n)
    gttrf, = scipy.linalg.get_lapack_funcs(("gttrf",), (band,))
    ipiv = gttrf(band[2, :-1], band[1], band[0, 1:])[-2]
    return bool((ipiv != np.arange(1, J * n + 1)).any())


class TestShiftedFactorCache:
    """Plans from shift_plan factor each (operator, shifts) pair once and
    keep it on the operator; one-shot solves keep nothing.  Every solve,
    first or repeated, is bit for bit the gtsv solve and runs every check."""

    @pytest.mark.parametrize("n, periodic", [(1, False), (2, False), (2, True), (3, False),
                                             (3, True), (11, False), (11, True)])
    @pytest.mark.parametrize("k", [None, 1, 3])
    @pytest.mark.parametrize("J", [1, 6])
    @pytest.mark.parametrize("pivoting", [False, True])
    def test_equals_gtsv_reference(self, n, periodic, k, J, pivoting):
        rng = np.random.default_rng(100 + n + 7 * J + (k or 0))
        A = random_banded(rng, n, periodic=periodic, dominant=not pivoting)
        # a small diagonal makes gttrf swap rows (checked below)
        small = 0.01 if pivoting else 1.0
        A = BandedMatrix(small * A.diag, A.lower, A.upper, A.corner_top, A.corner_bottom)
        for complex_shifts, complex_rhs in [(False, False), (False, True), (True, False)]:
            a = small * (1.0 + rng.random(J))
            b = 0.3 * rng.standard_normal(J) + (1.0 if pivoting else 0.0)
            if complex_shifts:
                a = a + 1j * rng.standard_normal(J)
                b = b + 0.1j * rng.standard_normal(J)
            R = rng.standard_normal((J, n) if k is None else (J, n, k))
            if complex_rhs:
                R = R + 1j * rng.standard_normal(R.shape)
            expected = gtsv_reference(A, a, b, R)
            for _ in range(2):  # factor, then reuse
                X = A.shift_plan(a, b).solve(R)
                assert X.shape == R.shape and X.dtype == expected.dtype
                assert X.tobytes() == expected.tobytes()
            for j in range(J):
                x = solve_shifted_banded(A, (a[j], b[j]), R[j])
                assert x.tobytes() == X[j].tobytes()
            if pivoting and not complex_shifts and n >= 3:
                assert pivots(A, a, b)

    def test_periodic_two_nodes_matches_dense(self):
        # matvec and to_dense drop corners below n = 3; so does the solve
        A = BandedMatrix(np.array([-2.0, -3.0]), np.ones(1), np.ones(1), 5.0, 7.0)
        x = solve_shifted_banded(A, (1.0, 0.5), np.array([1.0, 2.0]))
        np.testing.assert_allclose((np.eye(2) - 0.5 * A.to_dense()) @ x, [1.0, 2.0], rtol=1e-14)

    def test_factors_once_per_operator_and_shifts(self, monkeypatch):
        built = []
        real = kernels._factor_shifted
        monkeypatch.setattr(kernels, "_factor_shifted",
                            lambda *args: built.append(1) or real(*args))
        rng = np.random.default_rng(101)
        A = random_banded(rng, 9, periodic=True)
        a, b = 1.0 + rng.random(4), 0.2 * rng.standard_normal(4)
        for _ in range(5):
            A.shift_plan(a, b).solve(rng.standard_normal((4, 9)))
            A.shift_plan(a[0], b[0]).solve(rng.standard_normal(9))
        assert len(built) == 2
        A.shift_plan(a, b.copy()).solve(rng.standard_normal((4, 9)))
        assert len(built) == 2  # the key is the shifts' values, not the array
        A.shift_plan(a, b).solve(rng.standard_normal((4, 9)) + 0j)
        assert len(built) == 3  # complex data: a complex factorization
        assert len(A._factors) == 3
        other = random_banded(rng, 9, periodic=True)
        other.shift_plan(a, b).solve(rng.standard_normal((4, 9)))
        assert len(built) == 4 and len(other._factors) == 1  # stores are per operator

    @pytest.mark.parametrize("periodic", [False, True])
    def test_one_shot_solves_keep_nothing(self, periodic, monkeypatch):
        built = []
        real = kernels._factor_shifted
        monkeypatch.setattr(kernels, "_factor_shifted",
                            lambda *args: built.append(1) or real(*args))
        rng = np.random.default_rng(104)
        A = random_banded(rng, 9, periodic=periodic)
        r = rng.standard_normal(9)
        expected = A.shift_plan(1.5, 0.4).solve(r)
        A._factors.clear()
        for _ in range(2):
            assert solve_shifted_banded(A, (1.5, 0.4), r).tobytes() == expected.tobytes()
            assert ShiftPlan(A, 1.5, 0.4).solve(r).tobytes() == expected.tobytes()
            assert solve_poly_in_matrix(A, (1.5, -0.4), r).tobytes() == expected.tobytes()
            assert not A._factors
        assert len(built) == 7  # every one-shot solve factors afresh

    def test_store_freed_with_its_operator(self):
        # nothing stored refers back to the operator: dropping the last
        # reference frees its factorizations by reference counting alone
        enabled = gc.isenabled()
        gc.disable()
        try:
            for n in (6, 1):
                A = random_banded(np.random.default_rng(105), n, periodic=n > 2)
                plan = A.shift_plan(np.array([1.5, 2.0]), np.array([0.4, 0.1]))
                plan.solve(np.ones((2, A.n)))
                (factor,) = A._factors.values()
                kept = weakref.ref(factor[0] if isinstance(factor, tuple) else factor)
                del plan, factor
                assert kept() is not None
                del A
                assert kept() is None
        finally:
            if enabled:
                gc.enable()

    def test_failed_factorization_or_solve_leaves_no_entry(self):
        n = 8
        dirichlet = BandedMatrix(-2.0 * np.ones(n), np.ones(n - 1), np.ones(n - 1))
        cases = [
            # exact eigenvalue: gttrf finds no zero pivot, the solve blows up
            (dirichlet, (-2.0 + 2.0 * np.cos(np.pi / 9), 1.0), "near-singular"),
            # exact zero pivot in gttrf
            (BandedMatrix(np.ones(n), np.zeros(n - 1), np.zeros(n - 1)), (1.0, 1.0),
             "zero pivot"),
            # singular capacitance of the periodic correction
            (periodic_laplacian_stencil(6), (0.0, 1.0), "capacitance"),
        ]
        for A, shift, message in cases:
            for _ in range(3):
                with pytest.raises(SingularSystemError, match=message):
                    A.shift_plan(*shift).solve(np.ones(A.n))
                assert not A._factors

    @pytest.mark.parametrize("J, k", [(1, None), (1, 1), (3, None), (3, 2)])
    @pytest.mark.parametrize("n, periodic", [(2, False), (7, False), (7, True)])
    def test_rhs_not_modified(self, J, k, n, periodic):
        rng = np.random.default_rng(102)
        A = random_banded(rng, n, periodic=periodic)
        a, b = 1.0 + rng.random(J), 0.3 * rng.standard_normal(J)
        for R in (rng.standard_normal((J, n) if k is None else (J, n, k)),
                  np.asfortranarray(rng.standard_normal((J, n, 1)))[..., 0]):
            for data in (R, R + 1j * R):
                before = data.copy()
                for _ in range(2):
                    A.shift_plan(a, b).solve(data)
                    A.shift_plan(a[0], b[0]).solve(data[0])
                    solve_shifted_banded(A, (a[0], b[0]), data[0])
                assert data.tobytes() == before.tobytes()

    def test_cache_shared_by_threads(self):
        # more threads than cores, switching often, each making plans that
        # fetch from (or fill) the operators' stores: every result stays exact
        import sys
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(103)
        ops = [random_banded(rng, 7, periodic=i % 2 == 1) for i in range(4)]
        shifts = [(1.0, 0.1), (1.5, -0.2), (2.0 + 0.5j, 0.3)]
        R = rng.standard_normal((7, 2))
        expected = {(i, s): gtsv_reference(A, [s[0]], [s[1]], R[None])[0]
                    for i, A in enumerate(ops) for s in shifts}
        keys = sorted(expected, key=str)

        def work(seed):
            for k in np.random.default_rng(seed).permutation(len(keys)):
                i, s = keys[k]
                if ops[i].shift_plan(*s).solve(R).tobytes() != expected[i, s].tobytes():
                    return False
            return True

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(work, seed) for seed in range(32)]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(old)


def companion_reference(comp, a, b, R):
    """The Schur step of a CompanionSystem shifted solve written out per
    call: the banded solve from the gtsv reference and a fresh matvec."""
    m = comp.base.n
    per_shift = (slice(None),) + (None,) * (R.ndim - 1)
    a_col, b_col = a[per_shift], b[per_shift]
    ru, rv = R[:, :m], R[:, m:]
    b_sq = np.array([bj * bj for bj in b])
    u = gtsv_reference(comp.base.A, a, b_sq / a, ru + (b_col / a_col) * rv)
    Au = comp.base.A.matvec(u.swapaxes(0, 1)).swapaxes(0, 1)
    return np.concatenate([u, (rv + b_col * Au) / a_col], axis=1)


class TestShiftPlan:
    """A plan keeps the factorization it fetched and reuses it for every
    solve; each solve is bit for bit the batched and the single-shift solve
    and runs every check."""

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("complex_shifts", [False, True])
    @pytest.mark.parametrize("J", [1, 10])
    @pytest.mark.parametrize("k", [1, 7])
    def test_equals_batched_and_single_solves(self, periodic, complex_shifts, J, k):
        rng = np.random.default_rng(200 + 10 * J + k)
        n = 12
        A = random_banded(rng, n, periodic=periodic)
        a = 1.0 + rng.random(J)
        b = 0.3 * rng.standard_normal(J)
        if complex_shifts:
            a = a + 1j * rng.standard_normal(J)
            b = b + 0.1j * rng.standard_normal(J)
        plan = A.shift_plan(a, b)
        for rhs_complex in (False, True, False):  # refetch when the data type changes
            R = rng.standard_normal((J, n, k))
            if rhs_complex:
                R = R + 1j * rng.standard_normal(R.shape)
            expected = gtsv_reference(A, a, b, R)
            for _ in range(2):
                assert plan.solve(R).tobytes() == expected.tobytes()
            assert ShiftPlan(A, a, b).solve(R).tobytes() == expected.tobytes()  # factored afresh
            for j in range(J):
                single = A.shift_plan(a[j], b[j])
                assert single.solve(R[j]).tobytes() == expected[j].tobytes()
                column = gtsv_reference(A, a[j:j + 1], b[j:j + 1], R[j:j + 1, :, 0])[0]
                assert single.solve(R[j, :, 0]).tobytes() == column.tobytes()

    def test_plans_with_equal_shifts_share_one_factorization(self):
        # a later plan for the same operator and shift values finds the
        # first plan's factorization on the operator; other operators'
        # solves and one-shot solves leave it in place
        rng = np.random.default_rng(210)
        A = random_banded(rng, 9, periodic=True)
        r = rng.standard_normal(9)
        plan = A.shift_plan(1.5, 0.4)
        first = plan.solve(r)
        for i in range(20):
            random_banded(rng, 9, periodic=True).shift_plan(1.0, 0.1 * i).solve(r)
            solve_shifted_banded(A, (1.0, 0.1 * i), r)
        again = A.shift_plan(np.float64(1.5), np.float64(0.4))
        assert again.solve(r).tobytes() == first.tobytes()
        (stored,) = A._factors.values()
        assert again._kept[1] is plan._kept[1] is stored

    @pytest.mark.parametrize("J", [1, 10])
    @pytest.mark.parametrize("k", [None, 1, 7])
    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_companion_equals_schur_reference(self, J, k, bc):
        rng = np.random.default_rng(220 + J)
        comp = CompanionSystem(build_wave(8, 1.0 / 9, 1.0, bc))
        a = 1.0 + rng.random(J) + 1j * rng.standard_normal(J)
        b = 0.05 * (1.0 + rng.random(J)) + 0.01j * rng.standard_normal(J)
        R = rng.standard_normal((J, 16) if k is None else (J, 16, k))
        expected = companion_reference(comp, a, b, R)
        plan = comp.shift_plan(a, b)
        for _ in range(2):
            assert plan.solve(R).tobytes() == expected.tobytes()
        for j in range(J):
            single = comp.shift_plan(a[j], b[j])
            assert single.solve(R[j]).tobytes() == expected[j].tobytes()

    def test_companion_zero_shift_divides(self):
        comp = CompanionSystem(build_wave(8, 1.0 / 9, 1.0, "periodic"))
        rng = np.random.default_rng(230)
        a, b = np.array([2.0, 1.5, 3.0]), np.array([0.1, 0.0, 0.2])
        R = rng.standard_normal((3, 16))
        W = comp.shift_plan(a, b).solve(R)
        assert W[1].tobytes() == (R[1] / a[1]).tobytes()
        for j in (0, 2):
            assert W[j].tobytes() == companion_reference(comp, a[j:j + 1], b[j:j + 1],
                                                         R[j:j + 1])[0].tobytes()

    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (0.0, 1.0), ([2.0, 0.0], [0.1, 0.0])])
    def test_companion_zero_a_raises(self, a, b):
        # the Schur step divides by a: (0, 0) used to return inf with a
        # RuntimeWarning instead of raising like the banded plan below
        comp = CompanionSystem(build_wave(8, 1.0 / 9, 1.0, "dirichlet"))
        R = np.ones(np.shape(a) + (16,))
        with pytest.raises(SingularSystemError, match="a = 0"):
            comp.shift_plan(a, b).solve(R)
        with pytest.raises(SingularSystemError):
            comp.base.A.shift_plan(0.0, 0.0).solve(np.ones(8))

    @pytest.mark.parametrize("periodic", [False, True])
    def test_product_is_the_matvec(self, periodic):
        rng = np.random.default_rng(240)
        A = random_banded(rng, 10, periodic=periodic)
        R = rng.standard_normal((4, 10, 3))
        x, Ax = A.shift_plan(1.0 + rng.random(4), 0.2 * rng.standard_normal(4)).solve(
            R, product=True)
        assert Ax.tobytes() == A.matvec(x.swapaxes(0, 1)).swapaxes(0, 1).tobytes()
        x1, Ax1 = A.shift_plan(1.5, 0.3).solve(R[0], product=True)
        assert Ax1.tobytes() == A.matvec(x1).tobytes()

    def test_non_finite_rhs_raises_and_evicts(self):
        rng = np.random.default_rng(250)
        A = random_banded(rng, 9)
        plan = A.shift_plan(1.5, 0.3)
        plan.solve(np.ones(9))
        r = np.ones(9)
        r[4] = np.nan
        with pytest.raises(SingularSystemError, match="non-finite solution"):
            plan.solve(r)
        assert not A._factors
        assert plan.solve(np.ones(9)).tobytes() == gtsv_reference(
            A, [1.5], [0.3], np.ones((1, 9)))[0].tobytes()

    @pytest.mark.parametrize("J", [1, 3])
    def test_exact_eigenvalue_raises_near_singular(self, J):
        n = 8
        A = BandedMatrix(-2.0 * np.ones(n), np.ones(n - 1), np.ones(n - 1))
        a, b = 1.0 + np.arange(J, dtype=float), 0.5 * np.ones(J)
        a[-1], b[-1] = -2.0 + 2.0 * np.cos(np.pi / 9), 1.0
        plan = A.shift_plan(a, b)
        for _ in range(2):
            with pytest.raises(SingularSystemError, match="near-singular"):
                plan.solve(np.ones((J, n)))
            assert not A._factors

    def test_singular_capacitance_raises(self):
        A = periodic_laplacian_stencil(6)
        plan = A.shift_plan(np.array([1.0, 0.0]), np.array([0.2, 1.0]))
        for _ in range(2):
            with pytest.raises(SingularSystemError, match="capacitance"):
                plan.solve(np.ones((2, 6)))
            assert not A._factors

    def test_ill_conditioned_periodic_raises_and_evicts(self):
        # periodic Laplacian shifted by a tiny a: the capacitance determinant
        # passes, but |M| |M^-1| ~ 4e13 exceeds the Woodbury condition bound
        A = periodic_laplacian_stencil(9)
        plan = A.shift_plan(1e-13, 1.0)
        for _ in range(2):
            with pytest.raises(SingularSystemError, match="^periodic"):
                plan.solve(np.ones(9))
            assert not A._factors
        assert A.shift_plan(1.0, 1.0).solve(np.ones(9)).tobytes() == gtsv_reference(
            A, [1.0], [1.0], np.ones((1, 9)))[0].tobytes()

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("span", [1e6, 1e8])
    def test_each_shift_checked_on_its_own_scale(self, periodic, span):
        # well-conditioned blocks whose norms span 12 or 16 decades; one
        # scale for all blocks would reject the smallest at 1e8
        rng = np.random.default_rng(265)
        A = random_banded(rng, 9, periodic=periodic)
        a = np.geomspace(1.0 / span, span, 4)
        b = 0.1 * a
        R = rng.standard_normal((4, 9))
        X = A.shift_plan(a, b).solve(R)
        assert X.tobytes() == gtsv_reference(A, a, b, R).tobytes()

    def test_two_row_blocks_checked_on_their_scale(self):
        # scipy's gtcon needs 3 rows: a 2x2 block is padded without moving
        # its condition number, at any scale, alone or in a stack
        A = BandedMatrix(np.ones(2), np.ones(1), np.ones(1))
        for a in (np.array([1e-10, 4.0, 1e10]), np.array([3.0])):
            X = A.shift_plan(a, 0.1 * a).solve(np.ones((len(a), 2)))
            assert np.isfinite(X).all()
        A._factors.clear()
        near = 2.0 + 2.0 ** -50  # A's eigenvalue 2, missed by one ulp
        for a, b in ((near, 1.0), (np.array([3.0, near]), np.array([1.0, 1.0]))):
            with pytest.raises(SingularSystemError, match="near-singular"):
                A.shift_plan(a, b).solve(np.ones(np.shape(a) + (2,)))
            assert not A._factors

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("J, k", [(1, None), (4, None), (4, 3)])
    def test_checks_cost_nothing_per_solve(self, periodic, J, k, monkeypatch):
        # conditioning is checked once, at factor time, with one gtcon call
        # per shift block; a kept plan's solve is one gttrs and no matvec
        calls = {"apply_blocks": 0, "gttrf": 0, "gttrs": 0, "gtcon": 0}
        real_apply, real_get = kernels.apply_blocks, scipy.linalg.get_lapack_funcs

        def apply_blocks(*args):
            calls["apply_blocks"] += 1
            return real_apply(*args)

        def counted(name, f):
            def call(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return call

        def get_lapack_funcs(names, arrays=(), **kwargs):
            funcs = real_get(names, arrays, **kwargs)
            return [counted(name, f) if name in calls else f for name, f in zip(names, funcs)]

        monkeypatch.setattr(kernels, "apply_blocks", apply_blocks)
        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", get_lapack_funcs)
        rng = np.random.default_rng(266)
        A = random_banded(rng, 10, periodic=periodic)
        a, b = 1.0 + rng.random(J), 0.3 * rng.standard_normal(J)
        if J == 1:
            a, b = a[0], b[0]
        R = rng.standard_normal(np.shape(a) + (10,) + (() if k is None else (k,)))
        plan = A.shift_plan(a, b)
        plan.solve(R)
        assert calls == {"apply_blocks": 0, "gttrf": 1, "gttrs": 1 + periodic, "gtcon": J}
        for _ in range(3):
            plan.solve(R)
            A.shift_plan(a, b).solve(R)  # a new plan for kept shifts factors nothing
        assert calls == {"apply_blocks": 0, "gttrf": 1, "gttrs": 7 + periodic, "gtcon": J}
        plan.solve(R, product=True)
        assert calls["apply_blocks"] == 1 and calls["gttrf"] == 1 and calls["gtcon"] == J
        A.shift_plan(a + 1.0, b).solve(R)
        assert calls["gttrf"] == 2 and calls["gtcon"] == 2 * J

    def test_plan_shared_by_threads(self):
        # one plan, real and complex data in turn (a refetch each switch),
        # more threads than cores switching often: every result stays exact
        import sys
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(270)
        A = random_banded(rng, 7, periodic=True)
        a, b = 1.0 + rng.random(3), 0.2 * rng.standard_normal(3)
        plan = A.shift_plan(a, b)
        data = [rng.standard_normal((3, 7, 2)), rng.standard_normal((3, 7, 2)) + 1j]
        expected = [gtsv_reference(A, a, b, R).tobytes() for R in data]

        def work(seed):
            for i in np.random.default_rng(seed).integers(0, 2, 200):
                if plan.solve(data[i]).tobytes() != expected[i]:
                    return False
            return True

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(work, seed) for seed in range(16)]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(old)


def matvec_loop(A, v):
    """A @ v one row at a time: diagonal, upper, lower, then corner term."""
    n = A.n
    out = np.empty(np.broadcast_shapes(v.shape, (n,) + (1,) * (v.ndim - 1)),
                   dtype=np.result_type(A.diag, v))
    for i in range(n):
        row = A.diag[i] * v[i]
        if i + 1 < n:
            row = row + A.upper[i] * v[i + 1]
        if i > 0:
            row = row + A.lower[i - 1] * v[i - 1]
        if A.periodic and n >= 3 and i == 0:
            row = row + A.corner_top * v[n - 1]
        if A.periodic and n >= 3 and i == n - 1:
            row = row + A.corner_bottom * v[0]
        out[i] = row
    return out


class TestMatvec:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("shape", [(), (4,), (3, 2)])
    def test_equals_row_loop_bitwise(self, n, periodic, shape):
        rng = np.random.default_rng(300 + n)
        A = BandedMatrix(rng.standard_normal(n), rng.standard_normal(n - 1),
                         rng.standard_normal(n - 1),
                         *((0.7, -1.3) if periodic else ()))
        for data in (rng.standard_normal((n,) + shape),
                     rng.standard_normal((n,) + shape) + 1j * rng.standard_normal((n,) + shape)):
            data.flat[0] = -0.0
            for _ in range(2):  # the broadcast bands are made once per ndim
                assert A.matvec(data).tobytes() == matvec_loop(A, data).tobytes()
            assert (A @ data).tobytes() == matvec_loop(A, data).tobytes()


class TestSolveShiftedBanded:
    def test_identity_solve(self):
        rng = np.random.default_rng(0)
        A = random_banded(rng, 7)
        r = rng.standard_normal(7)
        np.testing.assert_allclose(solve_shifted_banded(A, (1.0, 0.0), r), r)

    def test_periodic_against_dense_lu(self):
        A = periodic_laplacian_stencil(5)
        rng = np.random.default_rng(1)
        r = rng.standard_normal(5)
        a, b = 1.0, 0.1
        dense = a * np.eye(5) - b * A.to_dense()
        expected = np.linalg.solve(dense, r)
        got = solve_shifted_banded(A, (a, b), r)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_singular_periodic_laplacian_raises(self):
        A = periodic_laplacian_stencil(6)
        with pytest.raises(SingularSystemError):
            solve_shifted_banded(A, (0.0, 1.0), np.ones(6))

    def test_near_singular_plain_system_raises(self):
        # Neumann-closed second-difference stencil: constant null vector
        n = 8
        diag = -2.0 * np.ones(n)
        diag[0] = diag[-1] = -1.0
        A = BandedMatrix(diag, np.ones(n - 1), np.ones(n - 1))
        with pytest.raises(SingularSystemError):
            solve_shifted_banded(A, (0.0, 1.0), np.arange(1.0, n + 1.0))

    def test_shift_at_exact_eigenvalue_raises(self):
        # Dirichlet stencil, shift at its eigenvalue -2 + 2 cos(pi/9): gtsv
        # finds no zero pivot and its residual stays small, but |x| ~ 1e16
        n = 8
        A = BandedMatrix(-2.0 * np.ones(n), np.ones(n - 1), np.ones(n - 1))
        with pytest.raises(SingularSystemError):
            solve_shifted_banded(A, (-2.0 + 2.0 * np.cos(np.pi / 9), 1.0), np.ones(n))

    def test_complex_shift(self):
        A = periodic_laplacian_stencil(8)
        rng = np.random.default_rng(2)
        r = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a, b = 1.0 + 0.5j, 0.05 - 0.2j
        dense = a * np.eye(8) - b * A.to_dense()
        np.testing.assert_allclose(
            solve_shifted_banded(A, (a, b), r), np.linalg.solve(dense, r), atol=1e-12
        )

    def test_multiple_rhs_matches_loop(self):
        rng = np.random.default_rng(3)
        A = random_banded(rng, 9, periodic=True)
        R = rng.standard_normal((9, 4))
        X = solve_shifted_banded(A, (2.0, 0.3), R)
        for j in range(4):
            np.testing.assert_allclose(
                X[:, j], solve_shifted_banded(A, (2.0, 0.3), R[:, j]), rtol=1e-13
            )

    def test_multiple_rhs_column_order_invariant(self):
        # batched solves are a pure map over columns: permuting the batch
        # and undoing the permutation must reproduce identical bits
        rng = np.random.default_rng(30)
        A = random_banded(rng, 9, periodic=True)
        R = rng.standard_normal((9, 5))
        perm = np.array([3, 0, 4, 1, 2])
        X = solve_shifted_banded(A, (2.0, 0.3), R)
        Xp = solve_shifted_banded(A, (2.0, 0.3), R[:, perm])
        np.testing.assert_array_equal(Xp[:, np.argsort(perm)], X)

    def test_residual_property_randomized(self):
        # 1000 diagonally dominant instances: relative residual <= 1e-12
        rng = np.random.default_rng(4)
        worst = 0.0
        for i in range(1000):
            n = int(rng.integers(2, 12))
            periodic = bool(rng.integers(0, 2)) and n >= 3
            A = random_banded(rng, n, periodic=periodic)
            r = rng.standard_normal(n)
            a, b = 1.0 + float(rng.random()), float(rng.standard_normal()) * 0.1
            x = solve_shifted_banded(A, (a, b), r)
            res = np.abs(a * x - b * A.matvec(x) - r).max()
            worst = max(worst, res / max(np.abs(r).max(), 1e-300))
        assert worst <= 1e-12

    def test_size_one(self):
        A = BandedMatrix(np.array([-2.0]), np.zeros(0), np.zeros(0))
        x = solve_shifted_banded(A, (1.0, 0.5), np.array([3.0]))
        np.testing.assert_allclose(x, [3.0 / 2.0])


class TestStackedTridiagonalLU:
    def test_blocks_equal_single_block_solves(self):
        # random, not diagonally dominant: gttrf pivots inside the blocks
        rng = np.random.default_rng(7)
        sizes = (1, 2, 5, 9)
        blocks = [(rng.standard_normal(n - 1), rng.standard_normal(n), rng.standard_normal(n - 1))
                  for n in sizes]
        rhs = rng.standard_normal(sum(sizes))
        x = StackedTridiagonalLU(blocks, "block").solve(rhs.copy())
        off = 0
        for (lower, diag, upper), n in zip(blocks, sizes):
            alone = StackedTridiagonalLU([(lower, diag, upper)], "block").solve(rhs[off : off + n].copy())
            np.testing.assert_array_equal(x[off : off + n], alone)
            dense = BandedMatrix(diag, lower, upper).to_dense()
            np.testing.assert_allclose(dense @ alone, rhs[off : off + n], atol=1e-10)
            off += n

    def test_zero_pivot_names_block(self):
        blocks = [(np.ones(1), np.full(2, 3.0), np.ones(1)),
                  (np.zeros(2), np.array([1.0, 0.0, 1.0]), np.zeros(2))]
        with pytest.raises(SingularSystemError, match="singular block 1 .*row 1"):
            StackedTridiagonalLU(blocks, "block")


class TestPolySolve:
    def test_quadratic_matches_dense(self):
        rng = np.random.default_rng(5)
        A = random_banded(rng, 10)
        rhs = rng.standard_normal(10)
        coeffs = (1.0, -0.2, 0.05)
        dense = np.eye(10) - 0.2 * A.to_dense() + 0.05 * np.linalg.matrix_power(A.to_dense(), 2)
        np.testing.assert_allclose(
            solve_poly_in_matrix(A, coeffs, rhs), np.linalg.solve(dense, rhs), atol=1e-10
        )

    def test_quadratic_complex_periodic_dense_fallback(self):
        A = periodic_laplacian_stencil(6)
        rng = np.random.default_rng(6)
        rhs = rng.standard_normal(6)
        coeffs = (1.0 + 0.3j, -0.1, 0.02j)
        dense = (
            coeffs[0] * np.eye(6)
            + coeffs[1] * A.to_dense()
            + coeffs[2] * np.linalg.matrix_power(A.to_dense(), 2)
        )
        np.testing.assert_allclose(
            solve_poly_in_matrix(A, coeffs, rhs), np.linalg.solve(dense, rhs), atol=1e-11
        )


class TestDft:
    def test_delta_gives_constant_column(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        np.testing.assert_allclose(dft(e1), 0.5 * np.ones(4), atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_allclose(idft(dft(v)), v, atol=1e-13)

    def test_isometry(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        assert abs(np.linalg.norm(dft(v)) - np.linalg.norm(v)) <= 1e-13 * np.linalg.norm(v)

    def test_circulant_eigenvalues_match_dense_eig(self):
        # eigenvalues of a circulant via sqrt(N) * F @ first_column
        rng = np.random.default_rng(9)
        n = 8
        c = rng.standard_normal(n)
        C = np.zeros((n, n))
        for j in range(n):
            C[:, j] = np.roll(c, j)
        lam = np.sqrt(n) * dft(c)
        expected = np.linalg.eigvals(C)
        got = np.sort_complex(np.round(lam, 10))
        want = np.sort_complex(np.round(expected, 10))
        np.testing.assert_allclose(got, want, atol=1e-10)


class TestExpmAction:
    def test_t_zero(self):
        rng = np.random.default_rng(10)
        A = random_banded(rng, 5)
        v = rng.standard_normal(5)
        np.testing.assert_array_equal(expm_action(A, 0.0, v), v)

    def test_scalar(self):
        A = np.array([[-2.0]])
        np.testing.assert_allclose(
            expm_action(A, 1.0, np.array([1.0])), [np.exp(-2.0)], rtol=1e-12
        )

    def test_dense_symmetric_against_scipy(self):
        import scipy.linalg

        rng = np.random.default_rng(11)
        M = rng.standard_normal((6, 6))
        A = -(M @ M.T) - np.eye(6)
        v = rng.standard_normal(6)
        expected = scipy.linalg.expm(0.5 * A) @ v
        got = expm_action(A, 0.5, v)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-13)

    def test_semigroup_property(self):
        rng = np.random.default_rng(12)
        A = random_banded(rng, 12)
        v = rng.standard_normal(12)
        both = expm_action(A, 0.7, v)
        split = expm_action(A, 0.3, expm_action(A, 0.4, v))
        np.testing.assert_allclose(both, split, rtol=1e-9, atol=1e-9)

    def test_large_operator_matches_dense_expm(self):
        # above EXPM_DENSE_MAX the action runs expm_multiply on a sparse copy
        n = EXPM_DENSE_MAX + 88
        dx = 1.0 / (n + 1)
        for bc in ("dirichlet", "periodic"):
            A = build_heat(n, dx, 1.0, bc).A
            v = np.sin(3 * np.pi * dx * np.arange(1, n + 1)) + 0.1
            expected = scipy.linalg.expm(2e-5 * A.to_dense()) @ v
            np.testing.assert_allclose(expm_action(A, 2e-5, v), expected,
                                       rtol=1e-10, atol=1e-12)

    def test_non_finite_exponential_raises(self):
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            expm_action(np.diag([1e4, -1.0]), 1.0, np.ones(2))
        A = BandedMatrix(np.array([1e4, -1.0]), np.zeros(1), np.zeros(1))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            expm_action(A, 1.0, np.ones(2))
        assert not A._expms

    def test_exponential_kept_on_its_operator(self, monkeypatch):
        made = []
        real = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda M: made.append(1) or real(M))
        sys = build_wave(5, 1.0 / 6, 1.0, "periodic")
        comp = CompanionSystem(sys)
        v, w = np.arange(1.0, 6.0), np.arange(1.0, 11.0)
        for _ in range(3):
            expm_action(sys.A, 0.3, v)
            expm_action(sys, 0.3, v)  # the same exponential as sys.A's
            expm_action(comp, 0.3, w)  # tagged apart on the same matrix
            expm_action(sys.A, np.float64(0.1) + np.float64(0.2), v)  # t != 0.3 exactly
        assert len(made) == 3
        assert sorted(sys.A._expms, key=str) == sorted(
            [(None, 0.3), ("companion", 0.3), (None, 0.1 + 0.2)], key=str)
        expm_action(sys.A.to_dense(), 0.3, v)  # dense arrays keep nothing
        assert len(made) == 4

    def test_exponentials_freed_with_their_operator(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            sys = build_wave(5, 1.0 / 6, 1.0, "periodic")
            expm_action(sys, 0.3, np.ones(5))
            expm_action(CompanionSystem(sys), 0.3, np.ones(10))
            kept = [weakref.ref(E) for E in sys.A._expms.values()]
            assert len(kept) == 2 and all(ref() is not None for ref in kept)
            del sys
            assert all(ref() is None for ref in kept)
        finally:
            if enabled:
                gc.enable()

    def test_cache_shared_by_threads(self):
        # more threads than cores, switching often, each fetching from (or
        # filling) the operators' stores: every result stays exact
        import sys
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(18)
        ops = [random_banded(rng, 6, periodic=k % 2 == 1) for k in range(4)]
        ts = [0.1, 0.2, 0.3]
        v = rng.standard_normal(6)
        expected = {(i, t): scipy.linalg.expm(t * A.to_dense()) @ v
                    for i, A in enumerate(ops) for t in ts}
        keys = sorted(expected)

        def work(seed):
            for k in np.random.default_rng(seed).permutation(len(keys)):
                i, t = keys[k]
                if not np.array_equal(expm_action(ops[i], t, v), expected[i, t]):
                    return False
            return True

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(work, seed) for seed in range(32)]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(old)

    def test_to_sparse_matches_to_dense(self):
        rng = np.random.default_rng(17)
        sys = build_wave(5, 1.0 / 6, 1.0, "periodic")
        for op in (random_banded(rng, 1), random_banded(rng, 2), random_banded(rng, 6),
                   random_banded(rng, 6, periodic=True), sys, CompanionSystem(sys)):
            np.testing.assert_array_equal(op.to_sparse().toarray(), op.to_dense())


class TestToeplitzApply:
    def test_zero_coeffs_identity(self):
        v = np.arange(5.0)
        np.testing.assert_array_equal(toeplitz_lower_apply(np.zeros(3), v), v)

    def test_ones_propagate(self):
        v = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(toeplitz_lower_apply(np.array([1.0, 1.0]), v), [1, 1, 1])

    def test_matches_dense(self):
        rng = np.random.default_rng(14)
        n = 16
        coeffs = rng.standard_normal(n - 1)
        v = rng.standard_normal(n)
        T = np.eye(n)
        for k, a in enumerate(coeffs, start=1):
            T += a * np.eye(n, k=-k)
        np.testing.assert_allclose(toeplitz_lower_apply(coeffs, v), T @ v, atol=1e-13)


class TestGmres:
    def test_solves_small_system(self):
        rng = np.random.default_rng(15)
        M = rng.standard_normal((12, 12)) + 12 * np.eye(12)
        b = rng.standard_normal(12)
        x, hist = gmres(lambda u: M @ u, b, tol=1e-12)
        np.testing.assert_allclose(M @ x, b, atol=1e-9)
        assert hist[-1] <= 1e-12

    def test_right_preconditioning(self):
        rng = np.random.default_rng(16)
        M = rng.standard_normal((20, 20)) + 20 * np.eye(20)
        P = np.diag(np.diag(M))
        b = rng.standard_normal(20)
        x, hist = gmres(lambda u: M @ u, b, apply_right_prec=lambda u: np.linalg.solve(P, u))
        np.testing.assert_allclose(M @ x, b, atol=1e-8)


@pytest.mark.parametrize("periodic", [False, True])
def test_dense_of(periodic):
    rng = np.random.default_rng(17)
    A = random_banded(rng, 7, periodic=periodic)
    # one pass on the identity block equals the loop over unit arrays
    units = np.eye(3 * 7).reshape(3 * 7, 3, 7)
    loop = np.column_stack([apply_blocks(A, e).ravel() for e in units])
    assert dense_of(lambda X: apply_blocks(A, X), (3, 7)).tobytes() == loop.tobytes()
    np.testing.assert_array_equal(dense_of(A.matvec, (7,)), A.to_dense())
