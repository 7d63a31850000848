"""Shared numerical primitives: banded/cyclic solves, DFT, matrix
exponential action, triangular-Toeplitz application, and a small GMRES.

All solvers accept real or complex data.  Vectors live on axis 0, so every
routine also accepts an ``(n, k)`` block of right-hand sides and solves the
k systems in one call.

Shifted tridiagonal systems (a I - b A) x = r have one solve path: a
:class:`ShiftPlan` from :meth:`BandedMatrix.shift_plan`.  A caller that
repeats the same shifts (every step of a propagator, every iteration of a
diagonalized solver) makes the plan once; the plan fetches the
factorization on its first solve and keeps it.  The conditioning of each
shifted system is checked once, when it is factored, so each later solve is
one gttrs (and the periodic Woodbury step) plus a finiteness test on the
solution.  Each :class:`BandedMatrix` keeps the data derived
from it (shifted factorizations, exponentials) on itself, so a plan made
again for the same operator and shifts finds the factorization there, and
the data goes when the matrix does.  :func:`solve_shifted_banded` is a
one-shot plan that keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg


class SingularSystemError(RuntimeError):
    """A (nearly) singular linear system was encountered."""


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to reach its tolerance."""


# Pivots (or capacitance determinants) below PIVOT_RTOL times the matrix
# scale are treated as exact singularities rather than roundoff.
PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class BandedMatrix:
    """Tridiagonal matrix with optional periodic wrap-around corners.

    ``lower``, ``diag``, ``upper`` are the sub-, main and super-diagonal;
    ``corner_top`` is entry ``(0, n-1)`` and ``corner_bottom`` entry
    ``(n-1, 0)``.  Corners must both be set or both absent.
    """

    diag: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    corner_top: Optional[float] = None
    corner_bottom: Optional[float] = None
    # (diag, lower, upper, corners or None) shaped to broadcast against data
    # of each ndim, made by the first matvec of that ndim
    _bands: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # factorizations of shifted systems, filled by the plans of shift_plan,
    # and exponentials, filled by expm_action; no value refers back to the
    # matrix, so they are freed with it
    _factors: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _expms: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        n = self.diag.shape[0]
        if n >= 2 and (self.lower.shape[0] != n - 1 or self.upper.shape[0] != n - 1):
            raise ValueError("band lengths inconsistent with size")
        if (self.corner_top is None) != (self.corner_bottom is None):
            raise ValueError("periodic corners must be given together")

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    @property
    def periodic(self) -> bool:
        return self.corner_top is not None

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A @ v along axis 0 of ``v``: a vector ``(n,)``, a block of columns
        ``(n, k)`` or any ``(n, ...)`` stack.  Each entry sums diagonal,
        upper, lower and corner terms in that order."""
        bands = self._bands.get(v.ndim)
        if bands is None:
            bands = self._bands.setdefault(v.ndim, self._broadcast_bands(v.ndim))
        diag, lower, upper, corners = bands
        out = diag * v
        if lower is not None:
            head, tail = out[:-1], out[1:]
            head += upper * v[1:]
            tail += lower * v[:-1]
        if corners is not None:
            n = v.shape[0]
            ends = out[::n - 1]  # rows 0 and n-1 += corner * rows n-1 and 0
            ends += corners * v[::1 - n]
        return out

    def _broadcast_bands(self, ndim):
        shape = (-1,) + (1,) * (ndim - 1)
        diag, lower, upper = (x.reshape(shape) for x in (self.diag, self.lower, self.upper))
        corners = None
        if self.periodic and self.n >= 3:
            corners = np.array([self.corner_top, self.corner_bottom]).reshape((2,) + shape[1:])
        return diag, (lower if self.n >= 2 else None), upper, corners

    def __matmul__(self, v):
        return self.matvec(v)

    def to_dense(self) -> np.ndarray:
        dtype = np.result_type(self.diag, self.lower, self.upper)
        a = np.zeros((self.n, self.n), dtype=dtype)
        np.fill_diagonal(a, self.diag)
        if self.n >= 2:
            a[np.arange(self.n - 1) + 1, np.arange(self.n - 1)] = self.lower
            a[np.arange(self.n - 1), np.arange(self.n - 1) + 1] = self.upper
        if self.periodic and self.n >= 3:
            a[0, -1] += self.corner_top
            a[-1, 0] += self.corner_bottom
        return a

    def to_sparse(self):
        bands, offsets = [self.lower, self.diag, self.upper], [-1, 0, 1]
        if self.periodic and self.n >= 3:
            bands += [[self.corner_top], [self.corner_bottom]]
            offsets += [self.n - 1, 1 - self.n]
        return scipy.sparse.diags_array(bands, offsets=offsets, shape=(self.n, self.n))

    @property
    def expm_key(self):
        """(banded matrix, tag): :func:`expm_action` keeps this operator's
        exponentials on that matrix under the tag."""
        return self, None

    def scaled(self, c) -> "BandedMatrix":
        return BandedMatrix(
            c * self.diag,
            c * self.lower,
            c * self.upper,
            None if self.corner_top is None else c * self.corner_top,
            None if self.corner_bottom is None else c * self.corner_bottom,
        )

    def add(self, other: "BandedMatrix") -> "BandedMatrix":
        if self.periodic != other.periodic:
            # mixed case: keep the corners that exist
            ct = self.corner_top if self.periodic else other.corner_top
            cb = self.corner_bottom if self.periodic else other.corner_bottom
        elif self.periodic:
            ct = self.corner_top + other.corner_top
            cb = self.corner_bottom + other.corner_bottom
        else:
            ct = cb = None
        return BandedMatrix(
            self.diag + other.diag,
            self.lower + other.lower,
            self.upper + other.upper,
            ct,
            cb,
        )

    def shift_plan(self, a, b) -> "ShiftPlan":
        """Prepared solves with (a*I - b*A), or with (a[j]*I - b[j]*A) for
        arrays of J shifts; see :class:`ShiftPlan`.  Its factorizations are
        kept on this matrix, so every plan for the same shifts shares them."""
        return ShiftPlan(self, a, b, self._factors)

    def scale_columns(self, u: np.ndarray) -> "BandedMatrix":
        """Return A @ diag(u), still banded."""
        return BandedMatrix(
            self.diag * u,
            self.lower * u[:-1],
            self.upper * u[1:],
            None if self.corner_top is None else self.corner_top * u[-1],
            None if self.corner_bottom is None else self.corner_bottom * u[0],
        )


class StackedTridiagonalLU:
    """LAPACK gttrf factorization of a block-diagonal stack of tridiagonal
    ``blocks``, each a ``(lower, diag, upper)`` triple, made once and
    reused by :meth:`solve` for any number of right-hand sides.

    The blocks are stacked into one band whose coupling entries are zero,
    so elimination never crosses a block boundary and each block of a
    solve equals that block factored and solved alone, bit for bit.  A
    zero pivot raises SingularSystemError naming ``label`` and the block.
    """

    def __init__(self, blocks, label):
        zero = np.zeros(1)
        lower = np.concatenate([np.concatenate((lo, zero)) for lo, _, _ in blocks])[:-1]
        upper = np.concatenate([np.concatenate((zero, up)) for _, _, up in blocks])[1:]
        diag = np.concatenate([d for _, d, _ in blocks])
        self._factor(lower, diag, upper, [len(d) for _, d, _ in blocks], label)

    @classmethod
    def from_band(cls, ab, label):
        """Factor J blocks of equal size n held in ``ab`` of shape (3, J, n):
        super-, main and sub-diagonal rows in LAPACK band layout per block
        (``ab[0, :, 0]`` and ``ab[2, :, -1]`` are the zero coupling)."""
        lu = cls.__new__(cls)
        J, n = ab.shape[1:]
        band = ab.reshape(3, J * n)
        lu._factor(band[2, :-1], band[1], band[0, 1:], [n] * J, label)
        return lu

    def _factor(self, lower, diag, upper, sizes, label):
        self._n = diag.shape[0]
        if self._n < 3:  # scipy's gt wrappers need 3 rows: pad with identity rows
            pad = np.zeros(3 - self._n)
            lower, diag, upper = (np.concatenate((v, pad + z)) for v, z in
                                  ((lower, 0.0), (diag, 1.0), (upper, 0.0)))
        gttrf, self._gttrs = scipy.linalg.get_lapack_funcs(("gttrf", "gttrs"), (diag,))
        *self._factors, info = gttrf(lower, diag, upper)
        if info > 0:
            ends = np.cumsum(sizes)
            i = int(np.searchsorted(ends, info - 1, side="right"))
            row = info - 1 - (ends[i] - sizes[i])
            raise SingularSystemError(f"singular {label} {i} (zero pivot in its row {row})")

    def block_rcond(self, norms, n):
        """LAPACK gtcon estimate of 1 / (|M_j|_1 |M_j^-1|_1) for each block
        M_j, all of size ``n``, given ``norms[j]`` = |M_j|_1: one call per
        block, on the block's rows of the factors (no pivot crosses a block
        boundary)."""
        dl, d, du, du2, ipiv = self._factors
        gtcon, = scipy.linalg.get_lapack_funcs(("gtcon",), (d,))
        out = np.empty(len(norms))
        for j, norm in enumerate(norms):
            r = j * n
            if n >= 3:
                rows, pairs = slice(r, r + n), slice(r, r + n - 1)
                block = dl[pairs], d[rows], du[pairs], du2[r:r + n - 2], ipiv[rows] - r
            else:
                # scipy's gt wrappers need 3 rows: append a row holding
                # |M_j|_1, which leaves |M_j|_1 and |M_j^-1|_1 as they are
                zero = np.zeros(1, dtype=d.dtype)
                block = (np.append(dl[r], zero), np.append(d[r:r + 2], norm),
                         np.append(du[r], zero), zero, np.append(ipiv[r:r + 2] - r, np.int32(3)))
            out[j] = gtcon(*block, norm)[0]
        return out

    def solve(self, rhs, overwrite=False):
        """Solve for ``rhs`` of shape (N,) or (N, k); with ``overwrite`` a
        contiguous ``rhs`` of the factor's dtype holds the solution after."""
        if self._n < 3:
            rhs = np.concatenate((rhs, np.zeros((3 - self._n,) + rhs.shape[1:])))
            return self._gttrs(*self._factors, rhs)[0][: self._n]
        return self._gttrs(*self._factors, rhs, overwrite_b=overwrite)[0]


def apply_blocks(A: BandedMatrix, X: np.ndarray) -> np.ndarray:
    """A @ X[j] for every block of ``X`` (shape (J, n) or (J, n, k))."""
    return A.matvec(X.swapaxes(0, 1)).swapaxes(0, 1)


def dense_of(apply, shape) -> np.ndarray:
    """Dense (N, N) matrix, N = prod(shape), of the linear map ``apply`` on
    arrays of ``shape``: one application to the identity block, of shape
    ``shape + (N,)``, in the C order of ``shape``."""
    N = int(np.prod(shape))
    return apply(np.eye(N).reshape(tuple(shape) + (N,))).reshape(N, N)


def solve_shifted_banded(A: BandedMatrix, shift, rhs: np.ndarray) -> np.ndarray:
    """Solve (a*I - b*A) x = rhs for scalars ``shift = (a, b)``.

    ``rhs`` may be ``(n,)`` or ``(n, k)``; ``a``, ``b`` may be complex.
    A one-shot :class:`ShiftPlan`: the factorization is made for this
    solve and kept nowhere.
    """
    a, b = shift
    return ShiftPlan(A, a, b).solve(rhs)


class ShiftPlan:
    """The shifted systems (a[j]*I - b[j]*A) x[j] = r[j] of one banded
    operator ``A``, prepared for repeated solves.

    Scalar shifts ``a``, ``b`` make a plan for one system, whose ``solve``
    takes ``(n,)`` or ``(n, k)``; arrays of J shifts make one for J
    systems, ``(J, n)`` or ``(J, n, k)``.  The J tridiagonal systems are
    stacked into one band and factored once by LAPACK gttrf
    (:class:`StackedTridiagonalLU`), so each x[j] is bit for bit the
    single-shift solve.  Periodic corners are removed by a rank-2
    Sherman-Morrison-Woodbury correction, with the J 2x2 capacitance
    systems solved in one batched call, so the cost stays O(J n).

    The factorization, with the Woodbury columns and capacitance matrices,
    is kept in ``store`` under its data type and the exact shifts: the
    operator's own store for a plan from :meth:`BandedMatrix.shift_plan`,
    a store of the plan's own otherwise (a one-shot plan).  The first
    solve for a data type fetches it from there (or makes it) and the plan
    keeps it.  The checks on each shift's system run once, when it is
    factored (:func:`_factor_shifted`): zero pivot, the gtcon condition
    estimate, the capacitance determinant and the periodic condition bound,
    each on that shift's own scale; a failure stores nothing.  Every solve
    is then one gttrs, the Woodbury step for periodic ``A`` and one
    finiteness test on the solution, whose failure drops the factorization
    from the store and the plan.  ``product=True`` adds one matvec.  Two
    threads that miss together both factor and keep one result.
    """

    def __init__(self, A: BandedMatrix, a, b, store: Optional[dict] = None):
        a, b = np.asarray(a), np.asarray(b)
        self.single = a.ndim == 0 and b.ndim == 0
        a, b = a.reshape(-1), b.reshape(-1)
        self.A, self.a, self.b = A, a, b
        self._dtype = np.result_type(A.diag, a, b)
        self._key = (a.dtype.char, b.dtype.char, a.tobytes(), b.tobytes())
        self._store = {} if store is None else store
        self._kept = None  # (data type, factorization), read and replaced whole
        # corners count from n = 3 (as in matvec) and vanish with b = 0; a
        # shift with b = 0 in a periodic batch gets z = 0 and cap = I
        self._periodic = A.periodic and A.n > 2 and b.any()

    def solve(self, rhs: np.ndarray, product: bool = False):
        """x with (a[j]*I - b[j]*A) x[j] = rhs[j]; with ``product`` the pair
        (x, A @ x)."""
        R = rhs[None] if self.single else rhs
        dtype = np.result_type(self._dtype, R)
        kept = self._kept
        if kept is None or kept[0] != dtype:
            kept = self._kept = (dtype, self._fetch(dtype))
        try:
            x = self._solve(kept[1], R.reshape(R.shape[0], R.shape[1], -1))
        except SingularSystemError:
            self._kept = None
            self._store.pop((dtype.char,) + self._key, None)
            raise
        x = x.reshape(R.shape)
        if not product:
            return x[0] if self.single else x
        Ax = apply_blocks(self.A, x)
        return (x[0], Ax[0]) if self.single else (x, Ax)

    def _fetch(self, dtype):
        """The factorization for data of ``dtype`` from the store, made and
        stored on a miss: a 1x1 system is its own pivot, otherwise the
        :func:`_factor_shifted` tuple.  A failed check stores nothing."""
        key = (dtype.char,) + self._key
        factor = self._store.get(key)
        if factor is not None:
            return factor
        A, a, b = self.A, self.a, self.b
        if A.n > 1:
            factor = _factor_shifted(A, a, b, dtype, self._periodic)
        else:
            d = a[:, None] - b[:, None] * A.diag.astype(dtype, copy=False)
            if (np.abs(d) <= PIVOT_RTOL * np.maximum(np.abs(d), 1.0)).any():
                raise SingularSystemError("1x1 pivot underflow")
            factor = d[:, :, None]
        return self._store.setdefault(key, factor)

    def _solve(self, factor, R):
        """x for R of shape (J, n, k) with ``factor`` from :meth:`_fetch`."""
        if R.shape[1] == 1:
            return R / factor
        lu, z, cap = factor
        J, n, _ = R.shape
        x = lu.solve(R.reshape(J * n, -1)).reshape(R.shape)
        if z is not None:
            # rows n-1 and 0 of every block, the Woodbury coupling rows
            x = x - z @ np.linalg.solve(cap, x[:, ::1 - n])
        if not np.isfinite(x).all():
            raise SingularSystemError("non-finite solution from banded solve")
        return x


def _factor_shifted(A, a, b, dtype, periodic):
    """(lu, z, cap) for :class:`ShiftPlan`: the gttrf factors of the J
    blocks M0_j = (a[j] I - b[j] A) without corners and, for periodic ``A``,
    the Woodbury columns ``z`` and 2x2 capacitance matrices ``cap`` (None
    otherwise).

    Each block's conditioning is checked here, once, on its own scale: the
    LAPACK gtcon estimate of 1 / (|M0_j|_1 |M0_j^-1|_1) below 10 PIVOT_RTOL
    raises.  With corners, M_j^-1 = (I - z_j cap_j^-1 W^T) M0_j^-1 bounds
    |M_j^-1|_1 by |M0_j^-1|_1 (1 + |z_j|_1 |cap_j^-1|_1), and the same test
    on |M_j|_1 times that bound raises a "periodic" error."""
    a_col, b_col = a[:, None], b[:, None]
    J, n = a.shape[0], A.n
    ab = np.zeros((3, J, n), dtype=dtype)
    ab[1] = a_col - b_col * A.diag.astype(dtype, copy=False)
    ab[0, :, 1:] = -b_col * A.upper.astype(dtype, copy=False)
    ab[2, :, :-1] = -b_col * A.lower.astype(dtype, copy=False)
    lu = StackedTridiagonalLU.from_band(ab, "shifted banded system")
    col_norms = np.abs(ab).sum(axis=0)  # (J, n): the column sums of |M0_j|
    norm = col_norms.max(axis=1)
    rcond = lu.block_rcond(norm, n)
    if (rcond < 10.0 * PIVOT_RTOL).any():
        raise SingularSystemError("near-singular shifted banded system")
    if not periodic:
        return lu, None, None
    # Woodbury: M = M0 + U @ W^T with U = -b*[ct*e0, cb*e_{n-1}], W = [e_{n-1}, e0]
    cols = np.zeros((J * n, 2), dtype=dtype)
    cols[::n, 0] = -b * A.corner_top
    cols[n - 1::n, 1] = -b * A.corner_bottom
    z = lu.solve(cols, overwrite=True)
    if not np.isfinite(z).all():
        raise SingularSystemError("non-finite solution from banded solve")
    z = z.reshape(J, n, 2)
    cap = np.eye(2, dtype=dtype) + z[:, [-1, 0], :]
    det = cap[:, 0, 0] * cap[:, 1, 1] - cap[:, 0, 1] * cap[:, 1, 0]
    abs_cap = np.abs(cap)
    if (np.abs(det) <= PIVOT_RTOL * np.maximum(abs_cap.max(axis=(1, 2)), 1.0)).any():
        raise SingularSystemError("singular periodic correction (capacitance)")
    # |cap^-1|_1 = |adj cap|_1 / |det|, the largest row sum of |cap| over |det|
    cap_inv_norm = abs_cap.sum(axis=2).max(axis=1) / np.abs(det)
    inv_bound = (1.0 + np.abs(z).sum(axis=1).max(axis=1) * cap_inv_norm) / (rcond * norm)
    col_norms[:, 0] += np.abs(b * A.corner_bottom)  # |M_j|_1 adds the corners
    col_norms[:, -1] += np.abs(b * A.corner_top)
    if (col_norms.max(axis=1) * inv_bound * (10.0 * PIVOT_RTOL) > 1.0).any():
        raise SingularSystemError("periodic shifted banded system near-singular "
                                  "(Woodbury condition bound)")
    return lu, z, cap


def solve_poly_in_matrix(A: BandedMatrix, coeffs, rhs: np.ndarray) -> np.ndarray:
    """Solve (c0*I + c1*A + c2*A^2 + ...) x = rhs.

    Degree <= 1 dispatches to the shifted tridiagonal solver.  Degree 2
    without periodic corners is solved as one pentadiagonal system; the
    periodic quadratic case falls back to a dense solve (desk scale only).
    """
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) == 1:
        return solve_shifted_banded(A, (coeffs[0], 0.0), rhs)
    if len(coeffs) == 2:
        return solve_shifted_banded(A, (coeffs[0], -coeffs[1]), rhs)
    if len(coeffs) > 3 or A.periodic:
        dense = sum(
            c * np.linalg.matrix_power(A.to_dense(), k) for k, c in enumerate(coeffs)
        )
        try:
            return np.linalg.solve(dense, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc
    c0, c1, c2 = coeffs
    n = A.n
    dtype = np.result_type(A.diag, np.asarray(c0), np.asarray(c1), np.asarray(c2), rhs)
    dl1 = A.lower.astype(dtype)
    d = A.diag.astype(dtype)
    du1 = A.upper.astype(dtype)
    # bands of A^2 for a plain tridiagonal A
    sq_d = np.zeros(n, dtype=dtype)
    sq_d[:] = d * d
    sq_d[:-1] += du1 * dl1
    sq_d[1:] += dl1 * du1
    sq_l1 = dl1 * (d[:-1] + d[1:])
    sq_u1 = du1 * (d[:-1] + d[1:])
    sq_l2 = dl1[1:] * dl1[:-1]
    sq_u2 = du1[:-1] * du1[1:]
    ab = np.zeros((5, n), dtype=dtype)
    ab[0, 2:] = c2 * sq_u2
    ab[1, 1:] = c1 * du1 + c2 * sq_u1
    ab[2, :] = c0 + c1 * d + c2 * sq_d
    ab[3, :-1] = c1 * dl1 + c2 * sq_l1
    ab[4, :-2] = c2 * sq_l2
    try:
        x = scipy.linalg.solve_banded((2, 2), ab, rhs, check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise SingularSystemError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("non-finite solution from pentadiagonal solve")
    return x


def dft(v: np.ndarray) -> np.ndarray:
    """Apply the unitary Fourier matrix F (positive-exponent convention,
    1/sqrt(N) normalization) along axis 0."""
    return np.fft.ifft(v, axis=0, norm="ortho")


def idft(v: np.ndarray) -> np.ndarray:
    """Apply F* (the conjugate transpose of :func:`dft`) along axis 0."""
    return np.fft.fft(v, axis=0, norm="ortho")


def toeplitz_lower_apply(coeffs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the unit-diagonal lower-triangular Toeplitz operator
    T(a_1, ..., a_m) to ``v`` (axis 0); ``coeffs`` holds a_1..a_m."""
    coeffs = np.asarray(coeffs)
    n = v.shape[0]
    if coeffs.shape[0] > n:
        raise ValueError("more Toeplitz coefficients than vector entries")
    first_col = np.zeros(n, dtype=np.result_type(coeffs, v, float))
    first_col[0] = 1.0
    first_col[1 : 1 + coeffs.shape[0]] = coeffs
    if v.ndim == 1:
        return np.convolve(first_col, v)[:n]
    out = np.empty((n, v.shape[1]), dtype=np.result_type(first_col, v))
    for j in range(v.shape[1]):
        out[:, j] = np.convolve(first_col, v[:, j])[:n]
    return out


# Operators of size n <= EXPM_DENSE_MAX get a dense exp(t*A), kept on their
# banded matrix; larger ones go through expm_multiply on a sparse copy.
EXPM_DENSE_MAX = 512


def expm_action(A, t: float, v: np.ndarray) -> np.ndarray:
    """exp(t*A) @ v for a vector ``(n,)`` or block of columns ``(n, k)``.

    ``A`` is an operator with ``n``, ``expm_key``, ``to_dense()`` and
    ``to_sparse()`` (BandedMatrix, SemiDiscreteSystem, CompanionSystem) or a
    dense array.
    Up to n = EXPM_DENSE_MAX the dense exponential ``scipy.linalg.expm(t*A)``
    is applied.  For operators it is kept on the banded matrix that
    ``expm_key`` names, under the key's tag and the exact ``t``, so every
    call with the same operator and step does the same product, and the
    exponentials are freed with that matrix.  Dense arrays keep nothing.
    Larger operators use ``expm_multiply`` (Al-Mohy & Higham 2011) on a
    sparse copy.  A non-finite result raises FloatingPointError and keeps
    nothing.
    """
    if not hasattr(A, "expm_key"):
        M = np.atleast_2d(np.asarray(A))
        if M.shape[0] > EXPM_DENSE_MAX:
            return _finite(scipy.sparse.linalg.expm_multiply(t * M, v))
        return _finite(scipy.linalg.expm(t * M)) @ v
    if A.n > EXPM_DENSE_MAX:
        return _finite(scipy.sparse.linalg.expm_multiply(t * A.to_sparse(), v))
    band, tag = A.expm_key
    E = band._expms.get((tag, t))
    if E is None:
        E = band._expms.setdefault((tag, t), _finite(scipy.linalg.expm(t * A.to_dense())))
    return E @ v


def _finite(x):
    if not np.isfinite(x).all():
        raise FloatingPointError("matrix exponential is not finite")
    return x


def gmres(apply_op, b: np.ndarray, apply_right_prec=None, tol: float = 1e-10,
          max_iter: int = 200, x0: Optional[np.ndarray] = None):
    """Restart-free right-preconditioned GMRES.

    Solves op(x) = b by running GMRES on op(prec(y)) and returning
    x = prec(y).  Returns ``(x, residual_history)``; raises
    :class:`ConvergenceError` on breakdown before reaching ``tol``.
    """
    if apply_right_prec is None:
        apply_right_prec = lambda u: u
    b = np.asarray(b)
    n = b.shape[0]
    x0 = np.zeros_like(b) if x0 is None else x0
    r0 = b - apply_op(x0)
    beta = np.linalg.norm(r0)
    bnorm = max(np.linalg.norm(b), 1e-300)
    history = [beta / bnorm]
    if beta / bnorm <= tol:
        return x0, history
    m = min(max_iter, 2 * n)
    dtype = np.result_type(b, complex if np.iscomplexobj(b) else float)
    V = np.zeros((n, m + 1), dtype=dtype)
    H = np.zeros((m + 1, m), dtype=dtype)
    V[:, 0] = r0 / beta
    for j in range(m):
        w = apply_op(apply_right_prec(V[:, j]))
        for i in range(j + 1):
            H[i, j] = np.vdot(V[:, i], w)
            w = w - H[i, j] * V[:, i]
        H[j + 1, j] = np.linalg.norm(w)
        if H[j + 1, j] > 1e-300:
            V[:, j + 1] = w / H[j + 1, j]
        e1 = np.zeros(j + 2, dtype=dtype)
        e1[0] = beta
        y, res, *_ = np.linalg.lstsq(H[: j + 2, : j + 1], e1, rcond=None)
        rnorm = np.linalg.norm(e1 - H[: j + 2, : j + 1] @ y)
        history.append(float(rnorm / bnorm))
        if rnorm / bnorm <= tol:
            return x0 + apply_right_prec(V[:, : j + 1] @ y), history
        if H[j + 1, j] <= 1e-300:
            raise ConvergenceError("GMRES breakdown before tolerance")
    raise ConvergenceError(f"GMRES did not reach tol={tol} in {m} iterations")
