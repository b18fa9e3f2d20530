"""Thin wrappers around the dense linear-algebra kernels, plus the
polynomial primitives (roots and Horner evaluation).

The downstream dense calls (denominator solves, pencil eigenproblems,
residue systems, evaluation) go through these routines so that error
mapping and rank policy live in one place.  Two do not yet:
``filtering.pm2``'s residue-conditioning ``np.linalg.svd(D,
compute_uv=False)`` and ``baseline.dm_denominator``'s
``np.linalg.solve``.

scipy's LAPACK build comes from two of its extension modules:
``scipy.linalg._flapack`` (the f2py wrappers ``qr_solve`` and the tall
``svd`` path call) and ``scipy.linalg.cython_lapack`` (the function
pointers of the routines scipy does not wrap).  They are loaded from
their files without running ``scipy.linalg``'s package ``__init__``,
which takes most of this module's import time and memory.  A later
``import scipy.linalg`` finds them in ``sys.modules``, so its
``get_lapack_funcs`` returns the same routines; only the package
attributes ``scipy.linalg._flapack`` and ``.cython_lapack`` stay unset
(``from scipy.linalg import cython_lapack`` still works).
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import sys
import threading
from functools import lru_cache, partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np
import scipy

from .errors import AllZero, ConvergenceFailure, NonFinite, RankDeficient

#: Relative threshold below which a triangular pivot counts as a rank drop.
DEFAULT_RANK_RTOL = 1e-14

#: zgesdd's SMLNUM = sqrt(safe minimum) / precision, and BIGNUM = 1/SMLNUM.
_SMLNUM = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
_BIGNUM = 1 / _SMLNUM


def _scipy_linalg_extension(name: str):
    """The extension module ``scipy.linalg.<name>``, loaded from its file
    when ``scipy.linalg`` is not imported yet, without importing it."""
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules or "scipy.linalg" in sys.modules:
        return importlib.import_module(fullname)
    directory = os.path.join(scipy.__path__[0], "linalg")
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if os.path.isfile(path):
            loader = ExtensionFileLoader(fullname, path)
            spec = importlib.util.spec_from_loader(fullname, loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            sys.modules[fullname] = module
            return module
    raise ImportError(f"no {name} extension module in {directory}")


_flapack = _scipy_linalg_extension("_flapack")
cython_lapack = _scipy_linalg_extension("cython_lapack")
_geqrf, _geqrf_lwork, _ungqr = _flapack.zgeqrf, _flapack.zgeqrf_lwork, _flapack.zungqr
_trtrs, _gesdd, _gesdd_lwork = _flapack.ztrtrs, _flapack.zgesdd, _flapack.zgesdd_lwork

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _lapack(name: str, nargs: int):
    """The LAPACK routine scipy exports to Cython as ``name`` (the same
    build its f2py wrappers call), taking nargs addresses: Fortran passes
    every argument by reference."""
    capsule = cython_lapack.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(_capsule_pointer(capsule, _capsule_name(capsule)))


_zgebrd, _dbdsdc, _zunmbr = _lapack("zgebrd", 11), _lapack("dbdsdc", 14), _lapack("zunmbr", 14)
#: The character arguments, one byte each.
_CHARS = ctypes.create_string_buffer(b"ULIPRC")
_UPPER, _LOWER, _VECTORS, _APPLY_P, _RIGHT, _CONJ_TRANS = range(ctypes.addressof(_CHARS), ctypes.addressof(_CHARS) + 6)


@lru_cache(maxsize=1024)
def _workspace(p: int, q: int) -> tuple[int, int, int]:
    """Optimal LAPACK workspace sizes for a p x q matrix (p >= q): zgeqrf,
    zungqr forming the p x q Q, and zgesdd with JOBZ='A'.  The queries
    read the shape alone, so the sizes are cached by shape."""
    geqrf, _ = _geqrf_lwork(p, q)
    _, ungqr, _ = _ungqr(np.zeros((p, q), dtype=complex), np.zeros(q, dtype=complex), lwork=-1)
    gesdd, _ = _gesdd_lwork(p, q, compute_uv=1, full_matrices=1)
    return int(geqrf.real), int(ungqr[0].real), int(gesdd.real)


@lru_cache(maxsize=1024)
def _bidiagonal_layout(p: int, q: int) -> tuple:
    """One buffer for zgesdd's path 6/6t on a p x q matrix: its length in
    complex elements; the byte offsets of tauq, taup, the work array, s,
    e, RU, RVT, dbdsdc's work, iwork and the q x q VT after the matrix
    (dbdsdc's 3n^2 + 4n doubles padded to keep VT 16-byte aligned); and
    p, q, n = min(p, q) and the workspace zgesdd hands zgebrd and zunmbr
    (its optimum W less 2n) as C ints, with their addresses."""
    n = min(p, q)
    gesdd, _ = _gesdd_lwork(p, q, compute_uv=1, full_matrices=1)
    lwork = int(gesdd.real) - 2 * n
    sizes = (16 * p * q, 16 * n, 16 * n, 16 * lwork, 8 * n, 8 * n, 8 * n * n, 8 * n * n,
             8 * (3 * n * n + 4 * n + n % 2), 32 * n, 16 * q * q)
    offsets = np.cumsum(sizes).tolist()
    ints = (ctypes.c_int * 4)(p, q, n, lwork)
    return offsets[-1] // 16, offsets[:-1], ints, range(ctypes.addressof(ints), ctypes.addressof(ints) + 16, 4)


@lru_cache(maxsize=128)
def _strictly_lower(q: int) -> np.ndarray:
    """Read-only mask of the strictly lower triangle of a q x q matrix."""
    mask = np.tri(q, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


class SvdResult:
    """Singular values and right singular vectors of A = U @ diag(sigma) @ Vh.

    ``sigma`` is descending and has length min(A.shape); ``Vh`` is the
    square unitary conjugate transpose of V, so its rows are directly
    addressable.  ``U`` is not formed, and ``Vh`` may be formed only when
    it is first read, once, also when threads share the result.
    """

    __slots__ = ("sigma", "_Vh", "_lock")

    def __init__(self, sigma: np.ndarray, Vh):
        self.sigma = sigma
        self._Vh = Vh  # the array, or a callable that forms it in a buffer of its own
        self._lock = threading.Lock()

    @property
    def Vh(self) -> np.ndarray:
        if callable(self._Vh):
            with self._lock:
                if callable(self._Vh):
                    self._Vh = self._Vh()
        return self._Vh


def svd(A) -> SvdResult:
    """Singular values and Vh of the full SVD, with input checking.

    The bits are those of ``np.linalg.svd(A, full_matrices=True)``.  Its
    zgesdd forms U, which no caller reads, on every path.  Two paths are
    run here without it:

    * max(p, q) < floor(5 min(p, q)/3) (zgesdd's path 6 or 6t): zgebrd
      reduces A to a real bidiagonal and dbdsdc('I') takes its SVD,
      which gives sigma; zunmbr('P', 'R', 'C') forms Vh only when it is
      first read.  zgebrd and zunmbr get the workspace zgesdd hands them
      (W - 2 min(p, q), W its optimum for A), which from q = 34 sets
      their block size and so the Vh bits.
    * p >= floor(17q/9) (LAPACK's MNTHR1, the QR path): zgeqrf, the SVD
      of the q x q triangle R, then the p x p Q that only U needs.  The
      first two steps are run here: zgeqrf at its optimal workspace,
      then zgesdd on R with the workspace the QR path leaves it
      (W - q*q), which sets the block size of the zunmlq that forms Vh
      when q >= 34.

    Other shapes, and matrices near the range where zgesdd scales A or R
    first, go to ``np.linalg.svd``.

    Raises NonFinite for NaN/inf entries and ConvergenceFailure if the
    backend does not converge.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"need a non-empty 2-D matrix, got shape {A.shape}")
    amax = np.abs(A).max()  # NaN or inf for a NaN or inf entry
    if not np.isfinite(amax) and not np.isfinite(A).all():
        raise NonFinite("matrix contains non-finite entries")
    p, q = A.shape
    # zgesdd first scales a matrix whose largest modulus lies outside
    # [SMLNUM, BIGNUM].
    if max(p, q) < 5 * min(p, q) // 3 and _SMLNUM <= amax <= _BIGNUM:
        return _bidiagonal_svd(A)
    # R's largest modulus lies between max|A|/sqrt(q) and sqrt(p) max|A|,
    # so in this band (a factor 2 to spare) neither A nor R is scaled.
    if p >= 17 * q // 9 and 2 * q**0.5 * _SMLNUM <= amax <= _BIGNUM / (2 * p**0.5):
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


def _bidiagonal_svd(A: np.ndarray) -> SvdResult:
    """sigma of A by zgebrd and dbdsdc(uplo, 'I'), as zgesdd's path 6/6t
    computes it, with Vh deferred to ``_right_vectors``.  Every array
    lives in one buffer, addressed by offsets: an array address from
    numpy costs more than a small LAPACK call."""
    p, q = A.shape
    layout = _bidiagonal_layout(p, q)
    size, (tauq, taup, work, s, e, ru, rvt, rwork, iwork, _), _, (P, Q, N, LWORK) = layout
    buf = np.empty(size, dtype=complex)
    base = ctypes.addressof(ctypes.c_char.from_buffer(buf))
    buf[: p * q].reshape(q, p).T[...] = A  # Fortran order, leading dimension p
    info = ctypes.c_int()
    _zgebrd(P, Q, base, P, base + s, base + e, base + tauq, base + taup, base + work, LWORK,
            ctypes.addressof(info))
    # dbdsdc's Q and IQ are not referenced with COMPQ='I'; any address does.
    _dbdsdc(_UPPER if p >= q else _LOWER, _VECTORS, N, base + s, base + e, base + ru, N, base + rvt, N,
            base + rwork, base + iwork, base + rwork, base + iwork, ctypes.addressof(info))
    if info.value > 0:
        raise ConvergenceFailure(f"SVD did not converge: dbdsdc info={info.value}")
    sigma = buf.view(float)[s // 8 : s // 8 + min(p, q)].copy()
    return SvdResult(sigma, partial(_right_vectors, buf, base, layout))


def _right_vectors(buf: np.ndarray, base: int, layout: tuple) -> np.ndarray:
    """Vh of a ``_bidiagonal_svd``: zunmbr('P', 'R', 'C') applies zgebrd's
    right reflectors to VT = [RVT 0; 0 I] with zgebrd's workspace.  Read
    in C order, each Fortran array is its transpose, so vt holds VT^T
    and the result is copied back to C order, as numpy returns it."""
    _, (_, taup, work, _, _, _, rvt, _, _, v), (_, q, n, _), (P, Q, N, LWORK) = layout
    vt = buf[v // 16 : v // 16 + q * q]
    if n < q:
        vt[:] = 0
        vt[n * (q + 1) :: q + 1] = 1  # the identity block
    vt = vt.reshape(q, q)
    vt[:n, :n] = buf.view(float)[rvt // 8 : rvt // 8 + n * n].reshape(n, n)
    info = ctypes.c_int()
    _zunmbr(_APPLY_P, _RIGHT, _CONJ_TRANS, Q, Q, N, base, P, base + taup, base + v, Q, base + work, LWORK,
            ctypes.addressof(info))
    return np.ascontiguousarray(vt.T)


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

    Leading (highest-order) exact zeros, -0.0 among them, are stripped
    before the companion-matrix solve.  The identically-zero polynomial
    raises AllZero; degree-0 polynomials have no roots.  The bits are
    those of numpy's ``polyroots``: the companion matrix is built by
    ``polycompanion``'s own operations, without its input conversion.
    The division by the leading coefficient may overflow: a non-finite
    companion matrix or root raises NonFinite, and an eigen-solve that
    does not converge raises ConvergenceFailure.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1:
        raise ValueError(f"coefficients must be a 1-D array, got shape {c.shape}")
    if c.size == 0:
        raise ValueError("empty coefficient array")
    if not np.isfinite(c).all():
        raise NonFinite("polynomial coefficients must be finite")
    nonzero = np.flatnonzero(c)
    if nonzero.size == 0:
        raise AllZero("the zero polynomial has every point as a root")
    c = c[: nonzero[-1] + 1]
    n = c.size - 1  # the degree
    if n == 0:
        return np.array([], dtype=complex)
    with np.errstate(all="ignore"):
        if n == 1:
            roots = np.array([-c[0] / c[1]])
        else:
            companion = np.zeros((n, n), dtype=complex)
            companion.reshape(-1)[n :: n + 1] = 1  # the subdiagonal
            # -= as polycompanion does: = -(...) would flip zeros' signs.
            companion[:, -1] -= c[:-1] / c[-1]
            roots = np.sort(eigenvalues(companion))
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
    not.  The parts of ``z`` are copied once into contiguous arrays, and
    every step writes into four arrays allocated once: eight ufunc calls
    per coefficient and no temporaries.  ``z`` and ``coeffs`` are only
    read.  Overflow gives inf or NaN without a warning.
    """
    z = np.asarray(z, dtype=complex)
    zr, zi = z.real.copy(), z.imag.copy()
    ar, ai, t, u = (np.zeros(z.shape) for _ in range(4))
    with np.errstate(all="ignore"):
        for c in np.asarray(coeffs, dtype=complex)[::-1].tolist():
            # ar, ai = ar*zr - ai*zi + c.real, ar*zi + ai*zr + c.imag
            np.multiply(ar, zr, out=t)
            np.multiply(ai, zi, out=u)
            np.subtract(t, u, out=t)
            np.add(t, c.real, out=t)
            np.multiply(ar, zi, out=u)
            np.multiply(ai, zr, out=ai)
            np.add(u, ai, out=ai)
            np.add(ai, c.imag, out=ai)
            ar, t = t, ar
    return complex_from_parts(ar, ai)[()]
