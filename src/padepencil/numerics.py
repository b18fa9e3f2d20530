"""Thin wrappers around the dense linear-algebra kernels, plus the
polynomial primitives (roots and Horner evaluation).

Every dense LAPACK call of the package goes through these routines, so
that error mapping and rank policy live in one place.  All run in one
LAPACK build, the ILP64 OpenBLAS bundled with numpy (scipy-openblas64):
``svd`` and ``qr_solve`` call the routines they need through ``ctypes``,
by the symbols (``scipy_zgeqrf_64_`` and the like) that numpy's
``_umath_linalg`` resolves; zgesdd is only asked for its workspace.
``eigenvalues``, ``singular_values``, ``solve`` and the fallback of
``svd`` call that module's ``eigvals``, ``svd``, ``solve1`` and
``svd_f`` gufuncs inside the ``errstate`` that ``np.linalg`` sets
around them, which gives ``np.linalg``'s bits without its Python
wrappers; no ``np.linalg`` call is left.  Importing this module raises
ImportError naming the symbol that numpy lacks.
"""

from __future__ import annotations

import ctypes
import math
import threading
from functools import lru_cache, partial

import numpy as np
from numpy._core.multiarray import correlate as _correlate
from numpy.linalg import _umath_linalg

from .errors import AllZero, ConvergenceFailure, NonFinite, RankDeficient

#: Relative threshold below which a triangular pivot counts as a rank drop.
DEFAULT_RANK_RTOL = 1e-14

#: zgesdd's SMLNUM = sqrt(safe minimum) / precision, and BIGNUM = 1/SMLNUM.
_SMLNUM = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
_BIGNUM = 1 / _SMLNUM

_openblas = ctypes.CDLL(_umath_linalg.__file__)


def _lapack(name: str, nargs: int):
    """numpy's LAPACK routine ``name``: nargs addresses (integers are int64),
    the last ones the lengths of its character arguments, by value."""
    symbol = f"scipy_{name}_64_"
    try:
        routine = getattr(_openblas, symbol)
    except AttributeError:
        raise ImportError(f"numpy's LAPACK has no {symbol}: padepencil needs numpy's bundled ILP64 OpenBLAS") from None
    routine.restype, routine.argtypes = None, [ctypes.c_void_p] * nargs
    return routine


_zgeqrf, _zungqr, _ztrtrs = _lapack("zgeqrf", 8), _lapack("zungqr", 9), _lapack("ztrtrs", 13)
_zgesdd, _zgebrd = _lapack("zgesdd", 16), _lapack("zgebrd", 11)
_dbdsdc, _zunmbr = _lapack("dbdsdc", 16), _lapack("zunmbr", 17)
_CHARS = ctypes.create_string_buffer(b"ULIPRCATN")  # the character arguments, one byte each
_UPPER, _LOWER, _VECTORS, _APPLY_P, _RIGHT, _CONJ_TRANS, _ALL, _TRANS, _NON_UNIT = range(
    ctypes.addressof(_CHARS), ctypes.addressof(_CHARS) + 9)


def _address(a: np.ndarray) -> int:
    """Address of a C-contiguous array's data; cheaper than ``a.ctypes.data``."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()`` for a complex array, faster at small sizes:
    the sum of the squared moduli is finite only when every entry is, or
    it overflows, which the full check then settles."""
    return math.isfinite(np.vdot(a, a).real) or bool(np.isfinite(a).all())


def _info(address: int) -> int:
    """The INFO a LAPACK call wrote at address."""
    return ctypes.c_int64.from_address(address).value


def _layout(sizes, ints) -> tuple:
    """One buffer for ctypes LAPACK calls: its length in complex elements,
    the byte offsets of its arrays after the first, given their byte sizes
    (each rounded up to 16, so all stay aligned), and the integer
    arguments as an int64 ctypes array with each entry's address.  The
    array must outlive the addresses: the caches keep the whole tuple."""
    offsets = np.cumsum([-(-size // 16) * 16 for size in sizes]).tolist()
    array = (ctypes.c_int64 * len(ints))(*ints)
    first = ctypes.addressof(array)
    return offsets[-1] // 16, offsets[:-1], array, range(first, first + 8 * len(ints), 8)


@lru_cache(maxsize=1024)
def _workspace(p: int, q: int) -> tuple[int, int, int]:
    """Optimal workspace sizes (LWORK = -1 queries, cached by shape) for
    a p x q matrix: zgeqrf, zungqr forming the p x q Q (both 0 if p < q)
    and zgesdd with JOBZ='A'."""
    size, _, ints, (P, Q, QUERY) = _layout((16, 8), (p, q, -1))  # WORK(1) and INFO: nothing else is read
    work = np.zeros(size, dtype=complex)
    w = _address(work)
    qr = ungqr = 0
    if p >= q:
        _zgeqrf(P, Q, w, P, w, w, QUERY, w + 16)
        qr = int(work[0].real)
        _zungqr(P, Q, Q, w, P, w, w, QUERY, w + 16)
        ungqr = int(work[0].real)
    _zgesdd(_ALL, P, Q, w, P, w, w, P, w, Q, w, QUERY, w, w, w + 16, 1)
    return qr, ungqr, int(work[0].real)


@lru_cache(maxsize=1024)
def _qr_layout(p: int, q: int, nrhs: int) -> tuple:
    """``qr_solve``'s buffer: A, tau, work, R^T and INFO; and p, q, the
    zgeqrf and zungqr workspaces and nrhs."""
    qr_work, q_work, _ = _workspace(p, q)
    return _layout((16 * p * q, 16 * q, 16 * max(qr_work, q_work), 16 * q * q, 8), (p, q, qr_work, q_work, nrhs))


@lru_cache(maxsize=1024)
def _svd_layout(p: int, q: int) -> tuple:
    """``svd``'s buffer: A, tauq (zgeqrf's tau first), taup, work, s, e,
    RU, RVT, dbdsdc's work, iwork, the q x q VT and INFO; its integer
    arguments, also returned as Python ints: p, m, q, n = min(m, q),
    zgeqrf's workspace and the one zgesdd hands zgebrd and zunmbr.
    zgebrd reduces m x q: A itself, or R when p >= floor(17q/9) (m = q,
    zgesdd's QR path, which hands them q^2 less than path 6's W - 2n)."""
    m = q if p >= 17 * q // 9 else p
    n = min(m, q)
    qr_work, _, gesdd = _workspace(p, q)
    lwork = gesdd - 2 * n - (q * q if m < p else 0)
    counts = (p, m, q, n, qr_work, lwork)
    sizes = (16 * p * q, 16 * n, 16 * n, 16 * max(qr_work, lwork), 8 * n, 8 * n, 8 * n * n, 8 * n * n,
             8 * (3 * n * n + 4 * n), 64 * n, 16 * q * q, 8)
    return *_layout(sizes, counts), counts


@lru_cache(maxsize=1024)
def _below_diagonal(p: int, q: int) -> np.ndarray:
    """Read-only flat indices of the strictly lower triangle of the top
    q x q block of a Fortran p x q array."""
    rows, cols = np.nonzero(np.tri(q, k=-1, dtype=bool))
    index = rows + cols * p
    index.flags.writeable = False
    return index


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

    The bits are those of ``np.linalg.svd(A, full_matrices=True)``, whose
    zgesdd also forms U, which no caller reads.  Two shapes make only
    the calls of zgesdd that sigma and Vh need:

    * max(p, q) < floor(5 min(p, q)/3) (zgesdd's path 6 or 6t): A itself
      is bidiagonalized.
    * p >= floor(17q/9) (LAPACK's MNTHR1, the QR path): zgeqrf at its
      optimal workspace gives the triangle R, which is bidiagonalized;
      the p x p Q that only U needs is not formed.

    zgebrd and dbdsdc('I') give sigma; zunmbr('P', 'R', 'C') forms Vh
    when it is first read.  Both get the workspace zgesdd hands them,
    which sets the Vh bits from q = 34.  The arrays live in one buffer
    per call, addressed by offsets: an array address from numpy costs
    more than a small LAPACK call.  Other shapes, and matrices near the
    range where zgesdd scales A or R first, go to numpy's zgesdd gufunc.
    Raises NonFinite for NaN/inf entries and ConvergenceFailure if
    LAPACK does not converge.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"need a non-empty 2-D matrix, got shape {A.shape}")
    amax = np.abs(A).max()  # NaN or inf for a NaN or inf entry
    if not math.isfinite(amax) and not np.isfinite(A).all():
        raise NonFinite("matrix contains non-finite entries")
    p, q = A.shape
    # zgesdd first scales a matrix whose largest modulus lies outside
    # [SMLNUM, BIGNUM].  R's largest modulus lies between max|A|/sqrt(q)
    # and sqrt(p) max|A|, so in the tall band (a factor 2 to spare)
    # neither A nor R is scaled.
    if (max(p, q) < 5 * min(p, q) // 3 and _SMLNUM <= amax <= _BIGNUM
            or p >= 17 * q // 9 and 2 * q**0.5 * _SMLNUM <= amax <= _BIGNUM / (2 * p**0.5)):
        return _bidiagonal_svd(A)
    with np.errstate(call=_svd_did_not_converge, **_GUFUNC_FLAGS):
        _, sigma, Vh = _umath_linalg.svd_f(A, signature="D->DdD")
    return SvdResult(sigma, Vh)


def _buffer(A: np.ndarray, size: int) -> tuple:
    """A new buffer of size complex elements, its address, and a copy of
    A at its start in Fortran order (leading dimension p), as a view."""
    buf = np.empty(size, dtype=complex)
    a = buf[: A.size].reshape(A.shape[::-1]).T
    a[...] = A
    return buf, _address(buf), a


def _bidiagonal_svd(A: np.ndarray) -> SvdResult:
    """sigma as zgesdd's path 6/6t computes it, or its QR path's zgeqrf
    followed by path 6 on R, zeroed below its diagonal in place: zgebrd
    and dbdsdc(uplo, 'I'), with Vh deferred to ``_right_vectors``."""
    layout = _svd_layout(*A.shape)
    size, (tauq, taup, work, s, e, ru, rvt, rwork, iwork, _, info), _, ints, (p, m, q, n, _, _) = layout
    P, M, Q, N, QR_WORK, LWORK = ints
    buf, base, _ = _buffer(A, size)
    if m < p:
        _zgeqrf(P, Q, base, P, base + tauq, base + work, QR_WORK, base + info)
        buf[_below_diagonal(p, q)] = 0
    _zgebrd(M, Q, base, P, base + s, base + e, base + tauq, base + taup, base + work, LWORK, base + info)
    # dbdsdc's Q and IQ are not referenced with COMPQ='I'; any address does.
    _dbdsdc(_UPPER if m >= q else _LOWER, _VECTORS, N, base + s, base + e, base + ru, N, base + rvt, N,
            base + rwork, base + iwork, base + rwork, base + iwork, base + info, 1, 1)
    if _info(base + info) > 0:
        raise ConvergenceFailure(f"SVD did not converge: dbdsdc info={_info(base + info)}")
    sigma = buf.view(float)[s // 8 : s // 8 + n].copy()
    return SvdResult(sigma, partial(_right_vectors, buf, base, layout))


def _right_vectors(buf: np.ndarray, base: int, layout: tuple) -> np.ndarray:
    """Vh of a ``_bidiagonal_svd``: zunmbr('P', 'R', 'C') applies zgebrd's
    right reflectors to VT = [RVT 0; 0 I].  Read in C order, a Fortran
    array is its transpose: vt holds VT^T, copied back to C order."""
    _, (_, taup, work, _, _, _, rvt, _, _, v, info), _, ints, (_, _, q, n, _, _) = layout
    P, _, Q, N, _, LWORK = ints
    vt = buf[v // 16 : v // 16 + q * q]
    rv = buf.view(float)[rvt // 8 : rvt // 8 + n * n]
    if n < q:
        vt[:] = 0
        vt[n * (q + 1) :: q + 1] = 1  # the identity block
        vt.reshape(q, q)[:n, :n] = rv.reshape(n, n)
    else:
        vt[:] = rv
    _zunmbr(_APPLY_P, _RIGHT, _CONJ_TRANS, Q, Q, N, base, P, base + taup, base + v, Q, base + work, LWORK,
            base + info, 1, 1, 1)
    return vt.reshape(q, q).T.copy()


# np.linalg's handling of the floating-point flags around a LAPACK gufunc,
# which reports a failure as the invalid flag; the call= handlers below
# raise where np.linalg raises LinAlgError.
_GUFUNC_FLAGS = {"invalid": "call", "over": "ignore", "divide": "ignore", "under": "ignore"}


def _svd_did_not_converge(err, flag):
    raise ConvergenceFailure("SVD did not converge")


def _singular_matrix(err, flag):
    raise RankDeficient("Singular matrix")


def _eigenvalues_did_not_converge(err, flag):
    raise ConvergenceFailure("eigenvalue iteration failed: Eigenvalues did not converge")


def singular_values(A) -> np.ndarray:
    """``np.linalg.svd(A, compute_uv=False)`` of a complex matrix, by its
    zgesdd gufunc; ConvergenceFailure if it fails."""
    with np.errstate(call=_svd_did_not_converge, **_GUFUNC_FLAGS):
        return _umath_linalg.svd(A, signature="D->d")


def solve(A, b) -> np.ndarray:
    """``np.linalg.solve(A, b)`` of a complex square A and vector b, by its
    zgesv gufunc; RankDeficient at an exactly zero LU pivot."""
    with np.errstate(call=_singular_matrix, **_GUFUNC_FLAGS):
        return _umath_linalg.solve1(A, b, signature="DD->D")


def eigenvalues(A) -> np.ndarray:
    """Eigenvalues of a square matrix, no particular order guaranteed.

    Calls numpy's zgeev gufunc as ``np.linalg.eigvals`` does for a complex
    matrix, in the same ``errstate``, without its second finiteness check
    and dtype dispatch: the same bits."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"need a non-empty square matrix, got shape {A.shape}")
    if not all_finite(A):
        raise NonFinite("matrix contains non-finite entries")
    with np.errstate(call=_eigenvalues_did_not_converge, **_GUFUNC_FLAGS):
        return _umath_linalg.eigvals(A, signature="D->D")


def qr_solve(A, B, rtol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """The minimizer X of ||A X - B||_2, A p x q with p >= q and B a
    vector or matrix with p rows, by economy QR and back substitution.

    The LAPACK calls are those of ``scipy.linalg.qr(mode="economic")`` and
    ``solve_triangular``: zgeqrf and zungqr on a Fortran copy of A at
    their optimal workspace, then ztrtrs on R^T as a lower triangle with
    trans=1.  Q^H B is formed from a Fortran-ordered Q: a C-ordered Q (as
    ``np.linalg.qr`` returns it) takes another BLAS path and other bits.

    Raises ValueError for bad shapes, NonFinite for NaN/inf entries or
    a Q^H B that overflows, and RankDeficient when min |R_ii| < rtol *
    max |R_jj| or, with rtol=0, which skips that check, at an exactly
    zero pivot.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.ndim != 2 or A.shape[0] < A.shape[1] or A.shape[1] == 0:
        raise ValueError(f"need p >= q >= 1, got shape {A.shape}")
    if B.shape[0] != A.shape[0]:
        raise ValueError(f"rhs has {B.shape[0]} rows, expected {A.shape[0]}")
    # The sum of the squared moduli is finite only when every entry is,
    # and then no entry of Q^H B can overflow (see all_finite).
    huge = not math.isfinite(np.vdot(A, A).real + np.vdot(B, B).real)
    if huge and not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise NonFinite("least-squares system contains non-finite entries")
    p, q = A.shape
    layout = _qr_layout(p, q, 1 if B.ndim == 1 else B.shape[1])
    size, (tau, work, rt, info), _, (P, Q, QR_WORK, Q_WORK, NRHS) = layout
    buf, base, factor = _buffer(A, size)
    _zgeqrf(P, Q, base, P, base + tau, base + work, QR_WORK, base + info)
    R_t = buf[rt // 16 : rt // 16 + q * q].reshape(q, q)  # R in C order: R^T in Fortran order
    R_t[...] = factor[:q]
    if rtol > 0:
        diag = np.abs(R_t.diagonal()).tolist()  # builtin min and max are faster at small q
        if min(diag) < rtol * max(diag):
            ratio = min(diag) / max(max(diag), 1e-300)
            raise RankDeficient(f"triangular factor has pivot ratio {ratio:.3e} below rtol={rtol:.1e}")
    _zungqr(P, Q, Q, base, P, base + tau, base + work, Q_WORK, base + info)
    # ztrtrs overwrites its Fortran B with X, so for a matrix B, x holds
    # X^T in C order.  It reads only the lower triangle of R^T.
    if huge:
        with np.errstate(all="ignore"):
            x = factor.conj().T @ B
        if not np.isfinite(x).all():
            raise NonFinite("least-squares system overflows: Q^H B is not finite")
    else:
        x = factor.conj().T @ B
    if x.ndim == 2:
        x = x.T.copy()
    # With no right-hand side ztrtrs still checks the pivots; B is not read.
    _ztrtrs(_LOWER, _TRANS, _NON_UNIT, Q, NRHS, base + rt, Q, _address(x) if x.size else base, Q, base + info, 1, 1, 1)
    if _info(base + info) > 0:  # exactly-zero pivot with rtol=0
        raise RankDeficient(f"triangular solve hit a zero pivot at diagonal {_info(base + info) - 1}")
    return x.T


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
    if not all_finite(c):
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
    if not all_finite(roots):
        raise NonFinite("polynomial roots overflow: the leading coefficient is tiny next to the others")
    return roots


def poly_from_roots(roots) -> np.ndarray:
    """Monic polynomial with the given roots (at least one), lowest order
    first, with the bits of numpy's ``polyfromroots``: linear factors of
    the sorted roots multiplied pairwise in its order, without its
    per-product validation."""
    r = np.sort(np.asarray(roots, dtype=complex))
    factors = np.ones((r.size, 2), dtype=complex)
    np.negative(r, out=factors[:, 0])
    factors = list(factors)  # row i is the factor [-r_i, 1]
    while len(factors) > 1:
        half, odd = divmod(len(factors), 2)
        products = [convolve(factors[i], factors[i + half]) for i in range(half)]
        if odd:
            products[0] = convolve(products[0], factors[-1])
        factors = products
    return factors[0]


def convolve(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.convolve(a, v)`` of two non-empty 1-D complex arrays: the
    correlation that it calls, without its conversions and checks."""
    if v.size > a.size:
        a, v = v, a
    return _correlate(a, v[::-1], "full")


def root_order(z) -> np.ndarray:
    """Indices that sort the complex values z by magnitude, then phase."""
    return np.lexsort((np.angle(z), np.abs(z)))


def complex_pairs(values) -> list:
    """JSON form of complex values: a list of [re, im] float pairs."""
    return [[v.real, v.imag] for v in np.atleast_1d(np.asarray(values, dtype=complex)).tolist()]


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

    On an array of real points (imaginary parts +-0.0) a step takes two
    ufunc calls per part, ``ar*zr + c.real`` and ``ai*zr + c.imag``, with
    the same bits: while the sum is finite the dropped ``ai*zi`` and
    ``ar*zi`` are signed zeros, whose sign outlives the next addition only
    where the part added is -0.0, and adding -0.0 changes nothing, so such
    a step computes the dropped term instead.  The imaginary chain stays
    +0.0, and is skipped, while every imaginary part so far is +0.0.
    Points whose result is not finite are evaluated by the full loop.
    """
    z = np.asarray(z, dtype=complex)
    cs = np.asarray(coeffs, dtype=complex)[::-1].tolist()
    zr, zi = z.real.copy(), z.imag.copy()
    real = z.ndim > 0 and not zi.any()
    with np.errstate(all="ignore"):
        out = complex_from_parts(*_horner_parts(cs, zr, zi, real))
        if real and not all_finite(out):
            bad = ~np.isfinite(out)
            out[bad] = complex_from_parts(*_horner_parts(cs, zr[bad], zi[bad], False))
    return out[()]


def _horner_parts(cs, zr, zi, real: bool):
    """horner's parts at zr + i zi, the coefficients cs highest order first;
    ``real`` leaves out the products with zi = +-0.0 (see horner)."""
    ar, ai, t, u = (np.zeros(zr.shape) for _ in range(4))
    live = not real  # whether ai may have left +0.0
    for c in cs:
        # ar, ai = ar*zr - ai*zi + c.real, ar*zi + ai*zr + c.imag; adding -0.0 changes nothing
        neg_r = c.real == 0 and math.copysign(1.0, c.real) < 0
        neg_i = c.imag == 0 and math.copysign(1.0, c.imag) < 0
        np.multiply(ar, zr, out=t)
        if neg_r or not real:
            np.multiply(ai, zi, out=u)
            np.subtract(t, u, out=t)
        if not neg_r:
            np.add(t, c.real, out=t)
        live = live or neg_i or c.imag != 0
        if neg_i or not real:
            np.multiply(ar, zi, out=u)
            np.multiply(ai, zr, out=ai)
            np.add(u, ai, out=ai)
        elif live:
            np.multiply(ai, zr, out=ai)
        if live and not neg_i:
            np.add(ai, c.imag, out=ai)
        ar, t = t, ar
    return ar, ai
