"""Thin wrappers around the dense linear-algebra kernels, plus the
polynomial primitives (roots and Horner evaluation).

Everything downstream (denominator solves, pencil eigenproblems, residue
systems, evaluation) goes through these routines so that error mapping
and rank policy live in one place.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import AllZero, ConvergenceFailure, NonFinite, RankDeficient

#: Relative threshold below which a triangular pivot counts as a rank drop.
DEFAULT_RANK_RTOL = 1e-14

_geqrf, _ungqr, _trtrs = get_lapack_funcs(("geqrf", "ungqr", "trtrs"), dtype=complex)


class SvdResult(NamedTuple):
    """Full singular value decomposition A = U @ diag(sigma) @ Vh.

    ``sigma`` is descending and has length min(A.shape); ``U`` and ``Vh``
    are square unitary matrices, so rows of ``Vh`` (the conjugate
    transpose of V) are directly addressable.
    """

    U: np.ndarray
    sigma: np.ndarray
    Vh: np.ndarray


def svd(A) -> SvdResult:
    """Full SVD with input checking.

    Raises NonFinite for NaN/inf entries and ConvergenceFailure if the
    backend does not converge.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"need a non-empty 2-D matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NonFinite("matrix contains non-finite entries")
    try:
        U, sigma, Vh = np.linalg.svd(A, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc
    return SvdResult(U, sigma, Vh)


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
    Fortran copy of A at their queried optimal workspace, then ztrtrs on
    R^T as a lower triangle with trans=1.  Q must stay Fortran-ordered:
    with a C-ordered Q (as ``np.linalg.qr`` returns it) Q^H B takes
    another BLAS path and other last bits.

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
    qr, tau, work, _ = _geqrf(A, lwork=-1)
    qr, tau, _, _ = _geqrf(A, lwork=int(work[0].real))
    _, work, _ = _ungqr(qr, tau, lwork=-1)
    Q, _, _ = _ungqr(qr, tau, lwork=int(work[0].real))
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
    AllZero; degree-0 polynomials have no roots.
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
    return np.polynomial.polynomial.polyroots(c)


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
