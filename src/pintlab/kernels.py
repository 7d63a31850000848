"""Shared numerical primitives: banded/cyclic solves, DFT and matrix
exponential action, and the two argument checks every module runs on its
inputs (:func:`check_positive`, :func:`check_counts`).

This is the one module that uses scipy: it binds the six LAPACK routines
pintlab calls directly (gttrf, gttrs, gtcon, gesv, gbtrf, gbtrs) from
scipy's compiled LAPACK library, loaded once by its file path, so importing
pintlab imports no ``scipy.linalg``; :func:`_lapack` picks the real or
complex routine by data type.  The matrix exponential is formed in numpy
(:func:`_expm`).

All solvers accept real or complex data.  Vectors live on axis 0, so every
routine also accepts an ``(n, k)`` block of right-hand sides and solves the
k systems in one call.

Shifted tridiagonal systems (a I - b A) x = r have one solve path: a
:class:`ShiftPlan` from :meth:`BandedMatrix.shift_plan`.  A caller that
repeats the same shifts (every step of a propagator, every iteration of a
diagonalized solver) makes the plan once; the plan factors on its first
solve and keeps the factorization.  The conditioning of each shifted
system is checked once, when it is factored, so each later solve is one
gttrs (and the periodic Woodbury step) plus a finiteness test on the
solution.  :func:`solve_shifted_banded` is a one-shot plan.  Quadratics in
A (the Numerov pair) are solved by a :class:`QuadraticPlan`, factored once
when it is made.  Each :class:`BandedMatrix` keeps its exponentials on
itself (see :func:`expm_action`), so they go when the matrix does.
"""

from __future__ import annotations

import importlib.util
import math
import os
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES
from typing import Optional

import numpy as np

# LAPACK comes from scipy's compiled library, loaded once by its file path:
# that runs neither scipy/__init__ nor scipy.linalg/__init__, whose imports
# (numpy.f2py and numpy.testing among them) cost more than all the rest of
# pintlab's import.  Loaded under its own name, it is the module that a
# later ``import scipy.linalg`` uses.
_SCIPY = importlib.util.find_spec("scipy")
if _SCIPY is None:
    raise ModuleNotFoundError("pintlab needs scipy, for its LAPACK library", name="scipy")
_FLAPACK_PATH = os.path.join(os.path.dirname(_SCIPY.origin), "linalg", "_flapack")
for _suffix in EXTENSION_SUFFIXES:
    if os.path.isfile(_FLAPACK_PATH + _suffix):
        break
else:
    raise ImportError(f"scipy's LAPACK library not found: no "
                      f"{_FLAPACK_PATH}{{{','.join(EXTENSION_SUFFIXES)}}}")
_SPEC = importlib.util.spec_from_file_location("scipy.linalg._flapack", _FLAPACK_PATH + _suffix)
_FLAPACK = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_FLAPACK)


def _lapack(dtype, *names):
    """The LAPACK routines ``names`` (e.g. "gttrf") for data of ``dtype``:
    the double complex (z) ones for complex data, the double real (d) ones
    otherwise, as scipy's ``get_lapack_funcs`` picks for float64 and
    complex128 data."""
    prefix = "z" if np.dtype(dtype).kind == "c" else "d"
    return [getattr(_FLAPACK, prefix + name) for name in names]


class SingularSystemError(RuntimeError):
    """A (nearly) singular linear system was encountered."""


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to reach its tolerance."""


def check_positive(**values):
    """A ValueError naming the first of the step sizes, spans or other
    ``values`` that is not a finite number > 0 (NaN and inf included)."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def check_counts(least, **counts):
    """A ValueError naming the first of the iteration, step or window
    ``counts`` that is not an integer >= ``least``."""
    for name, value in counts.items():
        if not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"need an integer {name} >= {least}, got {value!r}")


# Pivots (or capacitance determinants) below PIVOT_RTOL times the matrix
# scale are treated as exact singularities rather than roundoff.
PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class BandedMatrix:
    """Tridiagonal matrix with optional periodic wrap-around corners.

    ``lower``, ``diag``, ``upper`` are the sub-, main and super-diagonal;
    ``corner_top`` is entry ``(0, n-1)`` and ``corner_bottom`` entry
    ``(n-1, 0)``.  Corners must both be set or both absent.  Bands with a
    leading axis of J (corners of shape (J,)) hold a stack of J matrices,
    which :class:`ShiftPlan` solves with J shifts; the other methods take
    one matrix.
    """

    diag: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    corner_top: Optional[float] = None
    corner_bottom: Optional[float] = None
    # (diag, lower, upper, corners or None) shaped to broadcast against data
    # of each ndim, made by the first matvec of that ndim
    _bands: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # exponentials, filled by expm_action; no value refers back to the
    # matrix, so they are freed with it
    _expms: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        n = self.n
        if n >= 2 and (self.lower.shape[-1] != n - 1 or self.upper.shape[-1] != n - 1):
            raise ValueError("band lengths inconsistent with size")
        if (self.corner_top is None) != (self.corner_bottom is None):
            raise ValueError("periodic corners must be given together")

    @property
    def n(self) -> int:
        return self.diag.shape[-1]

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

    def add(self, other: "BandedMatrix", u=None) -> "BandedMatrix":
        """self + other, or self + other @ diag(u); a block ``u`` of shape
        (n, k) gives the stack of the k matrices self + other @ diag(u[:, j]).
        Both bands must be periodic or neither."""
        d, lo, up, ct, cb = other.diag, other.lower, other.upper, other.corner_top, other.corner_bottom
        if u is not None:
            d, lo, up = d * u.T, lo * u[:-1].T, up * u[1:].T
            ct, cb = (None, None) if ct is None else (ct * u[-1], cb * u[0])
        if self.periodic != other.periodic:
            raise ValueError("cannot add a periodic and a non-periodic band")
        if self.periodic:
            ct, cb = self.corner_top + ct, self.corner_bottom + cb
        return BandedMatrix(self.diag + d, self.lower + lo, self.upper + up, ct, cb)

    def shift_plan(self, a, b) -> "ShiftPlan":
        """Prepared solves with (a*I - b*A), or with (a[j]*I - b[j]*A) for
        arrays of J shifts; see :class:`ShiftPlan`."""
        return ShiftPlan(self, a, b)


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
        gttrf, self._gttrs = _lapack(diag.dtype, "gttrf", "gttrs")
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
        gtcon, = _lapack(d.dtype, "gtcon")
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
    """Solve (a*I - b*A) x = rhs for scalars ``shift = (a, b)``, or for
    arrays of J shifts with ``rhs`` of shape ``(J, n)`` (and ``A`` a stack
    of J matrices or one).

    ``rhs`` may be ``(n,)`` or ``(n, k)``; ``a``, ``b`` may be complex.
    A one-shot :class:`ShiftPlan`: the factorization is made for this
    solve alone.
    """
    a, b = shift
    return ShiftPlan(A, a, b).solve(rhs)


class ShiftPlan:
    """The shifted systems (a[j]*I - b[j]*A) x[j] = r[j] of one banded
    operator ``A``, prepared for repeated solves.

    Scalar shifts ``a``, ``b`` make a plan for one system, whose ``solve``
    takes ``(n,)`` or ``(n, k)``; arrays of J shifts make one for J
    systems, ``(J, n)`` or ``(J, n, k)``, with one ``A`` or a stack of J
    (see :class:`BandedMatrix`).  The J tridiagonal systems are
    stacked into one band and factored once by LAPACK gttrf
    (:class:`StackedTridiagonalLU`), so each x[j] is bit for bit the
    single-shift solve.  Periodic corners are removed by a rank-2
    Sherman-Morrison-Woodbury correction, with the J 2x2 capacitance
    systems solved in one batched call (one LAPACK gesv for J = 1): O(J n).

    The plan factors on the first solve of each data type and keeps that
    factorization, with the Woodbury columns and capacitance matrices, for
    every later solve of the type: a real plan may also solve complex data.
    The checks on each shift's system run once, when it is factored
    (:func:`_factor_shifted`): zero pivot, the gtcon condition estimate,
    the capacitance determinant and the periodic condition bound, each on
    that shift's own scale; a failure keeps nothing.  Every solve is then
    one gttrs, the Woodbury step for periodic ``A`` and one finiteness
    test on the solution.  ``product=True`` adds one matvec.
    """

    def __init__(self, A: BandedMatrix, a, b):
        a, b = np.asarray(a), np.asarray(b)
        self.single = a.ndim == 0 and b.ndim == 0
        a, b = a.reshape(-1), b.reshape(-1)
        self.A, self.a, self.b = A, a, b
        self._dtype = np.result_type(A.diag, a, b)
        self._kept = {}  # data type -> factorization
        # corners count from n = 3 (as in matvec) and vanish with b = 0; a
        # shift with b = 0 in a periodic batch gets z = 0 and cap = I
        self._periodic = A.periodic and A.n > 2 and b.any()

    def solve(self, rhs: np.ndarray, product: bool = False):
        """x with (a[j]*I - b[j]*A) x[j] = rhs[j]; with ``product`` the pair
        (x, A @ x)."""
        R = rhs[None] if self.single else rhs
        dtype = np.result_type(self._dtype, R)
        factor = self._kept.get(dtype)
        if factor is None:
            factor = self._kept[dtype] = self._factor(dtype)
        x = self._solve(factor, R.reshape(R.shape[0], R.shape[1], -1)).reshape(R.shape)
        if not product:
            return x[0] if self.single else x
        Ax = apply_blocks(self.A, x)
        return (x[0], Ax[0]) if self.single else (x, Ax)

    def _factor(self, dtype):
        """The factorization for data of ``dtype``: a 1x1 system is its own
        pivot, otherwise the :func:`_factor_shifted` tuple."""
        A, a, b = self.A, self.a, self.b
        if A.n > 1:
            return _factor_shifted(A, a, b, dtype, self._periodic)
        d = a[:, None] - b[:, None] * A.diag.astype(dtype, copy=False)
        if (np.abs(d) <= PIVOT_RTOL * np.maximum(np.abs(d), 1.0)).any():
            raise SingularSystemError("1x1 pivot underflow")
        return d[:, :, None]

    def _solve(self, factor, R):
        """x for R of shape (J, n, k) with ``factor`` from :meth:`_factor`."""
        if R.shape[1] == 1:
            return R / factor
        lu, z, cap, gesv = factor
        J, n, _ = R.shape
        x = lu.solve(R.reshape(J * n, -1)).reshape(R.shape)
        if z is not None:
            w = x[:, ::1 - n]  # rows n-1 and 0 of every block, the Woodbury coupling rows
            if gesv is None:
                w = np.linalg.solve(cap, w)
            else:
                *_, w, info = gesv(cap[0], w[0])
                if info:
                    raise SingularSystemError("singular periodic correction (capacitance)")
            x = x - z @ w
        if not np.isfinite(x).all():
            raise SingularSystemError("non-finite solution from banded solve")
        return x


def _factor_shifted(A, a, b, dtype, periodic):
    """(lu, z, cap, gesv) for :class:`ShiftPlan`: the gttrf factors of the J
    blocks M0_j = (a[j] I - b[j] A) without corners and, for periodic ``A``,
    the Woodbury columns ``z``, 2x2 capacitance matrices ``cap`` and, for
    J = 1, the LAPACK gesv that solves with ``cap`` (None otherwise).

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
        return lu, None, None, None
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
    gesv = _lapack(cap.dtype, "gesv")[0] if J == 1 else None
    return lu, z, cap, gesv


class QuadraticPlan:
    """The systems (c0[j]*I + c1[j]*A + c2[j]*A^2) x[j] = r[j] of one banded
    ``A``, factored once.  Scalar ``coeffs`` = (c0, c1, c2) make a plan for
    one system, whose ``solve`` takes ``(n,)`` or ``(n, k)``; arrays of J
    make one for J systems, ``(J, n)`` or ``(J, n, k)``.  As in
    :class:`ShiftPlan`, the J (here pentadiagonal) systems are stacked into
    one band with zero coupling and factored by LAPACK gbtrf; a zero pivot
    raises SingularSystemError.  gbsv is gbtrf then gbtrs, and gbtrf runs
    unblocked at kl = 2, so each solve, one gbtrs, gives every x[j] bit for
    bit as ``scipy.linalg.solve_banded((2, 2), ...)`` on its system alone.
    A periodic ``A``, whose square is not pentadiagonal, is a ValueError.  A
    non-finite solution raises SingularSystemError.
    """

    def __init__(self, A: BandedMatrix, coeffs):
        if A.periodic:
            raise ValueError("QuadraticPlan takes a non-periodic A "
                             "(the square of a periodic A is not pentadiagonal)")
        c0, c1, c2 = (np.asarray(c).reshape(-1, 1) for c in coeffs)
        self._shape = J, n = c0.shape[0], A.n
        dtype = np.result_type(A.diag, c0, c1, c2)
        dl1, d, du1 = (v.astype(dtype) for v in (A.lower, A.diag, A.upper))
        # bands of A^2 for a plain tridiagonal A
        sq_d = d * d
        sq_d[:-1] += du1 * dl1
        sq_d[1:] += dl1 * du1
        # LAPACK band layout per system, rows 0-1 left for gbtrf's fill-in
        ab = np.zeros((7, J, n), dtype=dtype)
        ab[2, :, 2:] = c2 * (du1[:-1] * du1[1:])
        ab[3, :, 1:] = c1 * du1 + c2 * (du1 * (d[:-1] + d[1:]))
        ab[4] = c0 + c1 * d + c2 * sq_d
        ab[5, :, :-1] = c1 * dl1 + c2 * (dl1 * (d[:-1] + d[1:]))
        ab[6, :, :-2] = c2 * (dl1[1:] * dl1[:-1])
        gbtrf, self._gbtrs = _lapack(ab.dtype, "gbtrf", "gbtrs")
        self._lu, self._piv, info = gbtrf(ab.reshape(7, -1), 2, 2, overwrite_ab=True)
        if info > 0:
            j, row = divmod(info - 1, n)
            raise SingularSystemError(f"singular quadratic system {j} (zero pivot in its row {row})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with (c0[j]*I + c1[j]*A + c2[j]*A^2) x[j] = rhs[j]."""
        J, n = self._shape
        if not np.can_cast(rhs.dtype, self._lu.dtype):
            raise TypeError(f"{rhs.dtype} right-hand side for a {self._lu.dtype} quadratic plan")
        x = self._gbtrs(self._lu, 2, 2, rhs.reshape(J * n, -1), self._piv)[0]
        if not np.isfinite(x).all():
            raise SingularSystemError("non-finite solution from quadratic solve")
        return x.reshape(rhs.shape)


def dft(v: np.ndarray) -> np.ndarray:
    """Apply the unitary Fourier matrix F (positive-exponent convention,
    1/sqrt(N) normalization) along axis 0."""
    return np.fft.ifft(v, axis=0, norm="ortho")


def idft(v: np.ndarray) -> np.ndarray:
    """Apply F* (the conjugate transpose of :func:`dft`) along axis 0."""
    return np.fft.fft(v, axis=0, norm="ortho")


# Operators of size n <= EXPM_DENSE_MAX get a dense exp(t*A), kept on their
# banded matrix; larger ones are rejected.
EXPM_DENSE_MAX = 512


def expm_action(A, t: float, v: np.ndarray) -> np.ndarray:
    """exp(t*A) @ v for a vector ``(n,)`` or block of columns ``(n, k)``.

    ``A`` is an operator with ``n``, ``expm_key`` and ``to_dense()``
    (BandedMatrix, SemiDiscreteSystem, CompanionSystem); any other ``A``, a
    plain array included, raises TypeError, and one with n above
    EXPM_DENSE_MAX raises ValueError.  The dense exponential of t*A (see
    :func:`_expm`) is applied and kept on the banded matrix that
    ``expm_key`` names, under the key's tag and the exact ``t``, so every
    call with the same operator and step does the same product, and the
    exponentials are freed with that matrix.  A non-finite t*A or result
    raises FloatingPointError and keeps nothing.
    """
    if not hasattr(A, "expm_key"):
        raise TypeError("expm_action takes an operator with expm_key (BandedMatrix, "
                        f"SemiDiscreteSystem, CompanionSystem), got {type(A).__name__}")
    if A.n > EXPM_DENSE_MAX:
        raise ValueError(f"expm_action forms a dense exponential: n = {A.n} exceeds "
                         f"EXPM_DENSE_MAX = {EXPM_DENSE_MAX}")
    band, tag = A.expm_key
    E = band._expms.get((tag, t))
    if E is None:
        E = band._expms.setdefault((tag, t), _finite(_expm(_finite(t * A.to_dense()))))
    return E @ v


# theta_m: the Pade degree m serves a matrix whose power norms d_k stay
# below it (Al-Mohy & Higham 2009); theta_13 = 4.25 is also the value of
# scipy.linalg.expm, so the two scale the experiments' operators alike
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 4.25}


def _expm(M):
    """exp(M) of a finite square array, by the scaling and squaring
    algorithm of Al-Mohy & Higham (SIAM J. Matrix Anal. Appl. 31, 2009),
    which ``scipy.linalg.expm`` also follows.

    The degree m of the Pade approximant r_m is the lowest of 3, 5, 7 and 9
    whose theta_m bounds the power norms d_k = |M^k|_1^(1/k) and whose
    backward error needs no extra squaring (:func:`_ell`); otherwise m = 13
    on M / 2^s, squared s times.  The norms are exact, since n is small.
    r_m = I + 2 (V - U)^-1 U, with U and V the odd and even parts of the
    numerator p_m, so a zero M gives I exactly.  The solve is LAPACK gesv.
    """
    eye = np.eye(M.shape[0], dtype=M.dtype)
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M2 @ M4
    M8 = M4 @ M4
    # d_k = |M^k|_1^(1/k) for k = 4, 6, 8, 10
    norms = np.abs([M4, M6, M8, M4 @ M6]).sum(axis=1).max(axis=1)
    d4, d6, d8, d10 = norms ** (1.0 / np.array([4, 6, 8, 10]))
    eta = {3: max(d4, d6), 5: max(d4, d6), 7: max(d6, d8), 9: max(d6, d8)}
    abs_m, norm = np.abs(M), np.linalg.norm(M, 1)
    m = next((m for m in eta if eta[m] <= _PADE_THETA[m] and _ell(abs_m, norm, m) == 0), 13)
    # the coefficients of p_m(x), the numerator of r_m = p_m(x) / p_m(-x),
    # scaled to integers: b_k = (2m - k)! / (k! (m - k)!)
    b = [float(math.comb(m, k) * math.perm(2 * m - k, m - k)) for k in range(m + 1)]
    s = 0
    if m < 13:
        powers = (eye, M2, M4, M6, M8)[:(m + 1) // 2]
        U = M @ sum(b[2 * j + 1] * P for j, P in enumerate(powers))
        V = sum(b[2 * j] * P for j, P in enumerate(powers))
    else:
        eta5 = min(eta[7], max(d8, d10))
        s = max(math.ceil(math.log2(eta5 / _PADE_THETA[13])), 0) if eta5 else 0
        s += _ell(abs_m / 2.0 ** s, norm / 2.0 ** s, 13)
        M, M2, M4, M6 = (P / 2.0 ** (k * s) for k, P in ((1, M), (2, M2), (4, M4), (6, M6)))
        U = M @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
                 + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * eye)
        V = (M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
             + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * eye)
    gesv, = _lapack(M.dtype, "gesv")
    *_, X, info = gesv(V - U, U)
    if info:
        raise SingularSystemError("singular Pade denominator in the matrix exponential")
    E = eye + 2.0 * X
    for _ in range(s):
        E = E @ E
    return E


def _ell(abs_m, norm, m):
    """ell(M, m) of Al-Mohy & Higham (2009), from |M| and |M|_1: the
    squarings to add so that the leading term of r_m's backward error,
    |c_2m+1| |(|M|^(2m+1))|_1 / |M|_1 with |c_2m+1| = (m!)^2 / ((2m)!
    (2m+1)!), is at most the unit roundoff 2^-53."""
    col_sums = np.ones(abs_m.shape[0])
    for _ in range(2 * m + 1):
        col_sums = col_sums @ abs_m  # of |M|^k, whose 1-norm is their largest
    p = col_sums.max()
    bound = 2.0 ** -53 * norm * (math.factorial(2 * m) * math.factorial(2 * m + 1)
                                 / math.factorial(m) ** 2)
    return 0 if p <= bound else math.ceil(math.log2(p / bound) / (2 * m))


def _finite(x):
    if not np.isfinite(x).all():
        raise FloatingPointError("matrix exponential is not finite")
    return x
