"""Shared oracle helpers for the test suite.

These deliberately avoid the package's own construction paths: series
coefficients come from polynomial long division or explicit partial
fractions, so round-trip tests compare two independent computations.
The point-by-point evaluators, the Toeplitz solvers, the loops and the
scipy and polyfromroots paths at the end are the bitwise references
for the package's array code and its direct LAPACK calls.
"""

import numpy as np
import scipy.linalg as sla

from padepencil import (
    DegenerateError,
    DuplicatePole,
    InsufficientCoefficients,
    NonFinite,
    PoleHit,
    PowerSeries,
    RankDeficient,
    ZeroPole,
)
from padepencil.numerics import DEFAULT_RANK_RTOL, svd


def maclaurin_of_rational(numer, denom, n):
    """First n Maclaurin coefficients of numer(z)/denom(z) by long division."""
    numer = np.atleast_1d(np.asarray(numer, dtype=complex))
    denom = np.atleast_1d(np.asarray(denom, dtype=complex))
    assert denom[0] != 0, "series requires denom(0) != 0"
    c = np.zeros(n, dtype=complex)
    for j in range(n):
        acc = numer[j] if j < numer.size else 0.0 + 0j
        for i in range(1, min(j, denom.size - 1) + 1):
            acc -= denom[i] * c[j - i]
        c[j] = acc / denom[0]
    return c


def gen_quadratic_eps(eps):
    """The three-coefficient series [1, eps, 1] of 1 + eps*z + z^2.

    At eps = 0 the [1/1] problem for this series is degenerate (the
    1x1 direct system has a zero pivot); small eps makes it barely
    regular, which exercises the near-degenerate paths of the solvers.
    """
    return PowerSeries(np.array([1.0, eps, 1.0], dtype=complex), t=15.0)


def sort_roots(values):
    """Deterministic root order: magnitude, then phase."""
    values = np.atleast_1d(np.asarray(values, dtype=complex))
    order = np.lexsort((np.angle(values), np.abs(values)))
    return values[order]


def greedy_match_error(estimated, expected):
    """Worst relative error of a nearest-neighbour matching."""
    est = list(np.atleast_1d(np.asarray(estimated, dtype=complex)))
    worst = 0.0
    for target in np.atleast_1d(np.asarray(expected, dtype=complex)):
        i = int(np.argmin([abs(e - target) for e in est]))
        worst = max(worst, abs(est.pop(i) - target) / abs(target))
    return worst


def random_oracle(rng, m_true, radial_center=None):
    """Random well-separated simple poles and O(1) weights.

    Poles live in a one-octave radial window so no pole is
    exponentially fainter than another in the first 2*m_true
    coefficients.
    """
    rho = radial_center if radial_center is not None else rng.uniform(0.45, 2.1)
    lo, hi = 0.7 * rho, 1.4 * rho
    poles = []
    while len(poles) < m_true:
        cand = rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(cand - p) >= 0.15 for p in poles):
            poles.append(cand)
    weights = rng.uniform(0.2, 5.0, m_true) * np.exp(2j * np.pi * rng.uniform(size=m_true))
    return np.array(poles), weights


# Point-by-point evaluation as the package did it before evaluation
# became array code, kept verbatim as the bitwise reference for the
# array evaluators.


def scalar_horner(coeffs, z):
    acc = 0j
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def scalar_eval_rational(ra, z):
    # An overflowing sum or quotient gives inf or NaN quietly, as the
    # package's evaluator does.
    with np.errstate(all="ignore"):
        den = scalar_horner(ra.denom, z)
        if den == 0:
            raise PoleHit(f"denominator vanishes at z={z}")
        return scalar_horner(ra.numer, z) / den


def scalar_eval_pole_residue(prf, z):
    z = complex(z)
    acc = 0j
    for p, e in prf.terms:
        if p == 0:
            if e != 0:
                raise ZeroPole(f"term with weight {e} has its pole at the origin")
            continue
        if z == p:
            raise PoleHit(f"evaluation point z={z} is a pole")
        acc += e * p / (p - z)
    if prf.shift:
        acc *= z**prf.shift
    return scalar_horner(prf.head, z) + acc


def loop_unit_disk_mesh(spacing):
    N = int(np.ceil(1.0 / spacing)) + 1
    pts = []
    for i in range(-N, N + 1):
        for j in range(-N, N + 1):
            x, y = i * spacing, j * spacing
            if np.hypot(x, y) <= 1.0:
                pts.append(x + 1j * y)
    return np.array(pts, dtype=complex)


def pointwise_error_sweep(approx, reference, points):
    """(errors, flagged) of the point-by-point sweep over scalar callables."""
    points = np.atleast_1d(np.asarray(points, dtype=complex))
    errors = np.empty(points.size, dtype=float)
    flagged = np.zeros(points.size, dtype=bool)
    for i, z in enumerate(points):
        try:
            errors[i] = abs(approx(z) - reference(z))
        except (PoleHit, ZeroDivisionError):
            errors[i] = np.inf
            flagged[i] = True
    return errors, flagged


# The coefficient windows as the package built them before every solver
# read one Hankel window: an entry-by-entry list for the pencil window and
# Toeplitz matrices for the direct and SVD systems, kept verbatim as the
# bitwise reference for ``combined_window``, ``dm_denominator`` and
# ``svd_denominator``.


def _require_length(s, conf):
    if len(s) < conf.n:
        raise InsufficientCoefficients(
            f"[{conf.m + conf.k}/{conf.m}] needs {conf.n} coefficients, series has {len(s)}"
        )


def _coeff_window(s, lo, hi):
    """Coefficients c_lo..c_hi inclusive, with c_j = 0 for j < 0."""
    return np.array([s.coeff(j) if j >= 0 else 0j for j in range(lo, hi + 1)])


def toeplitz_dm_denominator(s, conf):
    _require_length(s, conf)
    m, k = conf.m, conf.k
    if m == 0:
        return np.array([1.0 + 0j])
    # Row r, column i-1 holds c_{m+k+1+r-i}: Toeplitz with first column
    # c_{m+k}..c_{2m+k-1} and first row c_{m+k}..c_{k+1}.
    col = _coeff_window(s, m + k, 2 * m + k - 1)
    row = _coeff_window(s, k + 1, m + k)[::-1]
    A = sla.toeplitz(col, row)
    rhs = -_coeff_window(s, m + k + 1, 2 * m + k)
    try:
        b_tail = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateError(f"direct {m}x{m} denominator system is singular: {exc}") from exc
    if not np.all(np.isfinite(b_tail)):
        raise DegenerateError("direct denominator solve produced non-finite coefficients")
    return np.concatenate(([1.0 + 0j], b_tail))


def toeplitz_svd_denominator(s, conf):
    _require_length(s, conf)
    m, k = conf.m, conf.k
    if m == 0:
        return np.array([1.0 + 0j])
    col = _coeff_window(s, m + k + 1, 2 * m + k)
    row = _coeff_window(s, k + 1, m + k + 1)[::-1]
    C = sla.toeplitz(col, row)
    result = svd(C)
    b = result.Vh[-1].conj()
    pivot = int(np.argmax(np.abs(b)))
    return b / b[pivot]


def list_combined_window(s, conf, l):
    m, k = conf.m, conf.k
    if m < 1:
        raise ValueError("the pencil needs a denominator degree m >= 1")
    if len(s) < conf.n:
        raise InsufficientCoefficients(
            f"[{m + k}/{m}] needs {conf.n} coefficients, series has {len(s)}"
        )
    vals = np.array([s.coeff(j) if j >= 0 else 0j for j in range(k + 1, 2 * m + k + 1)])
    rows = 2 * m - l
    return sla.hankel(vals[:rows], vals[rows - 1 :])


def loop_pole_residue_terms(terms):
    """The terms of ``PoleResidueForm`` as its pairwise Python double
    loop checked and sorted them, kept verbatim as the reference for
    the broadcast check."""
    terms = tuple((complex(p), complex(e)) for p, e in terms)
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            pi, pj = terms[i][0], terms[j][0]
            if abs(pi - pj) <= 1e-12 * max(abs(pi), abs(pj)):
                raise DuplicatePole(f"poles {pi} and {pj} coincide to relative 1e-12")
    return tuple(sorted(terms, key=lambda pe: (abs(pe[0]), np.angle(pe[0]))))


# The least-squares solve, the pole-residue denominator and the SVD as
# the package computed them through scipy.linalg.qr, solve_triangular,
# numpy's polyfromroots and numpy's full SVD, kept verbatim as the
# bitwise references for ``qr_solve``, ``to_rational`` and ``svd``.


def scipy_qr_solve(A, B, rtol=DEFAULT_RANK_RTOL):
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.ndim != 2 or A.shape[0] < A.shape[1] or A.shape[1] == 0:
        raise ValueError(f"need p >= q >= 1, got shape {A.shape}")
    if B.shape[0] != A.shape[0]:
        raise ValueError(f"rhs has {B.shape[0]} rows, expected {A.shape[0]}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise NonFinite("least-squares system contains non-finite entries")
    Q, R = sla.qr(A, mode="economic")
    diag = np.abs(np.diag(R))
    if rtol > 0 and diag.min() < rtol * diag.max():
        raise RankDeficient(
            f"triangular factor has pivot ratio {diag.min() / max(diag.max(), 1e-300):.3e}"
            f" below rtol={rtol:.1e}"
        )
    try:
        return sla.solve_triangular(R, Q.conj().T @ B)
    except sla.LinAlgError as exc:  # exactly-zero pivot with rtol=0
        raise RankDeficient(f"triangular solve hit a zero pivot: {exc}") from exc


def polyfromroots_denominator(poles):
    denom = np.polynomial.polynomial.polyfromroots(poles)
    if denom[0] != 0:
        denom = denom / denom[0]
    else:
        denom = denom / denom[np.argmax(np.abs(denom))]
    return denom


def numpy_svd(A):
    """sigma and Vh of ``np.linalg.svd(A, full_matrices=True)``."""
    _, sigma, Vh = np.linalg.svd(np.asarray(A, dtype=complex), full_matrices=True)
    return sigma, Vh
