"""Thin wrappers around the dense linear-algebra kernels, plus the
polynomial primitives (roots and Horner evaluation).

Everything downstream (denominator solves, pencil eigenproblems, residue
systems, evaluation) goes through these routines so that error mapping
and rank policy live in one place.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import AllZero, ConvergenceFailure, NonFinite, RankDeficient

#: Relative threshold below which a triangular pivot counts as a rank drop.
DEFAULT_RANK_RTOL = 1e-14

#: zgesdd's SMLNUM = sqrt(safe minimum) / precision, and BIGNUM = 1/SMLNUM.
_SMLNUM = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
_BIGNUM = 1 / _SMLNUM

_geqrf, _geqrf_lwork, _ungqr, _trtrs, _gesdd, _gesdd_lwork = get_lapack_funcs(
    ("geqrf", "geqrf_lwork", "ungqr", "trtrs", "gesdd", "gesdd_lwork"), dtype=complex
)


@lru_cache(maxsize=1024)
def _workspace(p: int, q: int) -> tuple[int, int, int]:
    """Optimal LAPACK workspace sizes for a p x q matrix (p >= q): zgeqrf,
    zungqr forming the p x q Q, and zgesdd with JOBZ='A'.  The queries
    read the shape alone, so the sizes are cached by shape."""
    geqrf, _ = _geqrf_lwork(p, q)
    _, ungqr, _ = _ungqr(np.zeros((p, q), dtype=complex), np.zeros(q, dtype=complex), lwork=-1)
    gesdd, _ = _gesdd_lwork(p, q, compute_uv=1, full_matrices=1)
    return int(geqrf.real), int(ungqr[0].real), int(gesdd.real)


@lru_cache(maxsize=128)
def _strictly_lower(q: int) -> np.ndarray:
    """Read-only mask of the strictly lower triangle of a q x q matrix."""
    mask = np.tri(q, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


class SvdResult(NamedTuple):
    """Singular values and right singular vectors of A = U @ diag(sigma) @ Vh.

    ``sigma`` is descending and has length min(A.shape); ``Vh`` is the
    square unitary conjugate transpose of V, so its rows are directly
    addressable.  ``U`` is not formed.
    """

    sigma: np.ndarray
    Vh: np.ndarray


def svd(A) -> SvdResult:
    """Singular values and Vh of the full SVD, with input checking.

    The bits are those of ``np.linalg.svd(A, full_matrices=True)``.  For
    a tall A (p >= 17q/9, LAPACK's MNTHR1) its zgesdd takes the QR path:
    zgeqrf, the SVD of the q x q triangle R, then the p x p Q that only U
    needs.  That path is run here without the last step: zgeqrf at its
    optimal workspace, then zgesdd on R with the workspace the QR path
    leaves it (W - q*q of the full call's W), which sets the block size
    of the zunmlq that forms Vh when q >= 34.  Other shapes, and matrices
    near the range where zgesdd scales A or R first, go to
    ``np.linalg.svd``.

    Raises NonFinite for NaN/inf entries and ConvergenceFailure if the
    backend does not converge.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"need a non-empty 2-D matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NonFinite("matrix contains non-finite entries")
    p, q = A.shape
    # zgesdd first scales a matrix whose largest modulus lies outside
    # [SMLNUM, BIGNUM].  R's largest modulus lies between max|A|/sqrt(q)
    # and sqrt(p) max|A|, so in this band (a factor 2 to spare) neither
    # A nor R is scaled.
    if p >= 17 * q // 9 and 2 * q**0.5 * _SMLNUM <= np.abs(A).max() <= _BIGNUM / (2 * p**0.5):
        qr_work, _, svd_work = _workspace(p, q)
        qr, _, _, _ = _geqrf(A, lwork=qr_work)
        R = qr[:q]
        R[_strictly_lower(q)] = 0
        _, sigma, Vh, info = _gesdd(R, compute_uv=1, full_matrices=1, lwork=svd_work - q * q)
        if info > 0:
            raise ConvergenceFailure(f"SVD did not converge: zgesdd info={info}")
        # C order, as np.linalg.svd returns it: both paths hand the
        # caller the same memory layout.
        return SvdResult(sigma, np.ascontiguousarray(Vh))
    try:
        _, sigma, Vh = np.linalg.svd(A, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc
    return SvdResult(sigma, Vh)


def eigenvalues(A) -> np.ndarray:
    """Eigenvalues of a square matrix, no particular order guaranteed."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"need a non-empty square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NonFinite("matrix contains non-finite entries")
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvalue iteration failed: {exc}") from exc


def qr_solve(A, B, rtol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Least-squares solve of A X = B via economy QR and back substitution.

    The LAPACK calls are those of ``scipy.linalg.qr(mode="economic")``
    and ``solve_triangular``, made directly: zgeqrf and zungqr on a
    Fortran copy of A at their optimal workspace (queried once per
    shape), then ztrtrs on R^T as a lower triangle with trans=1.  Q must
    stay Fortran-ordered: with a C-ordered Q (as ``np.linalg.qr`` returns
    it) Q^H B takes another BLAS path and other last bits.

    Parameters
    ----------
    A : array_like, shape (p, q) with p >= q
        Coefficient matrix.
    B : array_like
        Right-hand side, vector or matrix with p rows.
    rtol : float, optional
        Declare RankDeficient when min |R_ii| < rtol * max |R_jj|.
        Pass 0 to skip the check entirely.

    Returns
    -------
    numpy.ndarray
        The minimizer of ||A X - B||_2, same trailing shape as B.

    Raises ValueError for bad shapes, NonFinite for NaN/inf entries and
    RankDeficient for a pivot ratio below rtol or, with rtol=0, an
    exactly zero pivot (ztrtrs info > 0).
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.ndim != 2 or A.shape[0] < A.shape[1] or A.shape[1] == 0:
        raise ValueError(f"need p >= q >= 1, got shape {A.shape}")
    if B.shape[0] != A.shape[0]:
        raise ValueError(f"rhs has {B.shape[0]} rows, expected {A.shape[0]}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise NonFinite("least-squares system contains non-finite entries")
    qr_work, q_work, _ = _workspace(*A.shape)
    qr, tau, _, _ = _geqrf(A, lwork=qr_work)
    Q, _, _ = _ungqr(qr, tau, lwork=q_work)
    diag = np.abs(qr.diagonal())
    if rtol > 0 and diag.min() < rtol * diag.max():
        raise RankDeficient(
            f"triangular factor has pivot ratio {diag.min() / max(diag.max(), 1e-300):.3e}"
            f" below rtol={rtol:.1e}"
        )
    # ztrtrs reads only the lower triangle of R^T: no triu needed.
    X, info = _trtrs(qr[: A.shape[1]].T, Q.conj().T @ B, lower=1, trans=1)
    if info > 0:  # exactly-zero pivot with rtol=0
        raise RankDeficient(f"triangular solve hit a zero pivot at diagonal {info - 1}")
    return X


def polynomial_roots(coeffs) -> np.ndarray:
    """Roots of a polynomial given lowest-order-first coefficients.

    Leading (highest-order) exact zeros are stripped before the
    companion-matrix solve.  The identically-zero polynomial raises
    AllZero; degree-0 polynomials have no roots.  The bits are those of
    numpy's ``polyroots``, whose division by the leading coefficient
    may overflow: a non-finite companion matrix or root raises
    NonFinite, and an eigen-solve that does not converge raises
    ConvergenceFailure.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.size == 0:
        raise ValueError("empty coefficient array")
    if not np.isfinite(c).all():
        raise NonFinite("polynomial coefficients must be finite")
    c = np.trim_zeros(c, "b")
    if c.size == 0:
        raise AllZero("the zero polynomial has every point as a root")
    if c.size == 1:
        return np.array([], dtype=complex)
    with np.errstate(all="ignore"):
        if c.size == 2:
            roots = np.array([-c[0] / c[1]])
        else:
            roots = np.sort(eigenvalues(np.polynomial.polynomial.polycompanion(c)))
    if not np.isfinite(roots).all():
        raise NonFinite("polynomial roots overflow: the leading coefficient is tiny next to the others")
    return roots


def poly_from_roots(roots) -> np.ndarray:
    """Monic polynomial with the given roots (at least one), lowest order
    first, with the bits of numpy's ``polyfromroots``: linear factors of
    the sorted roots multiplied pairwise in its order, without its
    per-product validation."""
    factors = [np.array([-r, 1.0 + 0j]) for r in np.sort(np.asarray(roots, dtype=complex))]
    while len(factors) > 1:
        half, odd = divmod(len(factors), 2)
        products = [np.convolve(factors[i], factors[i + half]) for i in range(half)]
        if odd:
            products[0] = np.convolve(products[0], factors[-1])
        factors = products
    return factors[0]


def root_order(z) -> np.ndarray:
    """Indices that sort the complex values z by magnitude, then phase."""
    return np.lexsort((np.angle(z), np.abs(z)))


def complex_pairs(values) -> list:
    """JSON form of complex values: a list of [re, im] float pairs."""
    return [[float(v.real), float(v.imag)] for v in np.atleast_1d(values)]


def complex_from_parts(re, im) -> np.ndarray:
    """Complex array with exactly the given real and imaginary parts.

    ``re + 1j*im`` would not do: the product 1j*im turns an infinite
    imaginary part into a NaN real part and can flip the sign of zeros.
    """
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def horner(coeffs, z):
    """Evaluate sum_j c_j z^j (lowest order first) by Horner's rule.

    ``z`` may be a scalar or an array; the result has its shape (a numpy
    complex scalar for a scalar).  Each complex product is written out in
    real and imaginary parts, in the order of numpy's scalar complex
    multiply, so every point gets the same bits as a point-by-point
    evaluation; numpy's array multiply may fuse the products and does
    not.  Overflow gives inf or NaN without a warning.
    """
    z = np.asarray(z, dtype=complex)
    zr, zi = z.real, z.imag
    ar = np.zeros(z.shape)
    ai = np.zeros(z.shape)
    with np.errstate(all="ignore"):
        for c in np.asarray(coeffs, dtype=complex)[::-1]:
            ar, ai = ar * zr - ai * zi + c.real, ar * zi + ai * zr + c.imag
    return complex_from_parts(ar, ai)[()]
