"""Shared oracle helpers for the test suite.

These deliberately avoid the package's own construction paths: series
coefficients come from polynomial long division or explicit partial
fractions, so round-trip tests compare two independent computations.
The point-by-point evaluators, the Toeplitz solvers, the loops and the
scipy and polyfromroots paths at the end are the bitwise references
for the package's array code and its direct LAPACK calls.
"""

import cmath
import json
import math

import mpmath
import numpy as np
import scipy.linalg as sla
from hypothesis import strategies as st

from padepencil import (
    DegenerateError,
    RootTaxonomy,
    DuplicatePole,
    InsufficientCoefficients,
    NonFinite,
    Conformation,
    PoleHit,
    PowerSeries,
    RankDeficient,
    ZeroPole,
    gen_geometric_noisy,
)
from padepencil.classify import DOUBLET_TOL, FAR_TOL, SYSTEM_TOL_FLOOR, SYSTEM_TOL_PER_EPS, _modulus
from padepencil.numerics import DEFAULT_RANK_RTOL, svd
from padepencil.pencil import residue_system


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


def wide_series(m, seed, amplitude=6.0, period=7):
    """2m coefficients of magnitude 10^(amplitude cos(2 pi j/period) +- 0.5)
    and random phases, drawn as ``oracles.wide_magnitude_series`` draws
    them."""
    rng = np.random.default_rng(seed)
    expo = amplitude * np.cos(2 * np.pi * np.arange(2 * m) / period) + rng.uniform(-0.5, 0.5, 2 * m)
    return PowerSeries(10.0**expo * np.exp(2j * np.pi * rng.uniform(size=2 * m)))


def coefficient_residual(s, conf, prf):
    """Relative misfit of a pole-residue form to every usable coefficient."""
    D, rhs = residue_system(s, prf.poles, conf)
    return np.linalg.norm(D @ prf.weights - rhs) / np.linalg.norm(rhs)


def mp_pencil(coeffs, m, dps=50):
    """Poles and weights of the l = m pencil at k = -1, in ``dps`` digits.

    The pencil's blocks are the m x m Hankel matrices of c_0..c_{2m-1}
    (the double coefficients, taken exactly): the poles are the
    eigenvalues of C2^-1 C1, and the weights solve c_r = sum_j w_j p_j^-r
    over all 2m rows by QR, with each column divided by its largest
    modulus.  Both are rounded once and sorted as ``sort_roots`` sorts.
    """
    with mpmath.workdps(dps):
        c = [mpmath.mpc(complex(x).real, complex(x).imag) for x in coeffs[: 2 * m]]
        C1 = mpmath.matrix([[c[i + j] for j in range(m)] for i in range(m)])
        C2 = mpmath.matrix([[c[i + j + 1] for j in range(m)] for i in range(m)])
        ev = mpmath.eig(mpmath.inverse(C2) * C1, left=False, right=False)
        d = [1 / p for p in ev]
        top = [max(mpmath.mpf(1), abs(x) ** (2 * m - 1)) for x in d]
        D = mpmath.matrix([[d[j] ** r / top[j] for j in range(m)] for r in range(2 * m)])
        v, _ = mpmath.qr_solve(D, mpmath.matrix(c))
        poles = np.array([complex(x) for x in ev])
        weights = np.array([complex(v[j] / top[j]) for j in range(m)])
    order = np.lexsort((np.angle(poles), np.abs(poles)))
    return poles[order], weights[order]


@st.composite
def banded_m(draw, top):
    """A denominator degree from one of three bands, each drawn as often:
    1..3, 4..12 or 13..top, so that large m is not left to chance."""
    low, high = draw(st.sampled_from([(1, 3), (4, 12), (13, top)]))
    return draw(st.integers(low, high))


@st.composite
def pm2_cases(draw):
    """A conformation with m in 1..30 (``banded_m``) and k in -1..3, a
    series of exactly its length and its kind: a noisy geometric series,
    wide magnitudes (up to 10^6.5), all zeros, or a polynomial of degree
    max(k, 0) or less, which pm2 reduces to its head."""
    m = draw(banded_m(30))
    conf = Conformation(m, draw(st.integers(-1, 3)))
    n = conf.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["geometric", "wide", "zero", "polynomial"]))
    if kind == "geometric":
        s = gen_geometric_noisy(n, 10.0 ** -rng.uniform(1, 12), rng)
    elif kind == "wide":
        amp, period = rng.uniform(1, 6), int(rng.integers(3, 12))
        expo = amp * np.cos(2 * np.pi * np.arange(n) / period) + rng.uniform(-0.5, 0.5, n)
        s = PowerSeries(10.0**expo * np.exp(2j * np.pi * rng.uniform(size=n)))
    elif kind == "zero":
        s = PowerSeries(np.zeros(n))
    else:
        degree = int(rng.integers(0, max(conf.k, 0) + 1))
        s = PowerSeries(np.where(np.arange(n) <= degree, rng.uniform(-1, 1, n), 0.0))
    return s, conf, kind


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
    for p, e in zip(prf.poles.tolist(), prf.weights.tolist()):
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
    return np.array([s.coeffs[j] if j >= 0 else 0j for j in range(lo, hi + 1)])


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
    vals = np.array([s.coeffs[j] if j >= 0 else 0j for j in range(k + 1, 2 * m + k + 1)])
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


def loop_load_coefficients(path):
    """``cli.load_coefficients`` as it read every file, entry by entry,
    kept verbatim as the reference for its one-call JSON pair path."""
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        entries = []
        for lineno, line in enumerate(text.splitlines(), 1):
            parts = line.split("#", 1)[0].split()
            if parts:
                entries.append((lineno, parts + [0.0] if len(parts) == 1 else parts))
    else:
        if not isinstance(data, list):
            raise ValueError(f"{path}: JSON coefficient file must be an array")
        entries = [(None, [item, 0.0] if type(item) in (int, float) else item) for item in data]
    if not entries:
        raise ValueError(f"{path}: no coefficients found")
    values = []
    for lineno, pair in entries:
        expected = "a number, 're im' or [re, im]"
        if (isinstance(pair, list) and len(pair) == 2
                and (lineno is not None or not any(isinstance(x, (str, bool)) for x in pair))):
            try:
                value = complex(float(pair[0]), float(pair[1]))
            except (TypeError, ValueError, OverflowError):
                pass
            else:
                if cmath.isfinite(value):
                    values.append(value)
                    continue
                expected = "finite values"
        where = path if lineno is None else f"{path}:{lineno}"
        raise ValueError(f"{where}: expected {expected}, got {pair!r}")
    return np.array(values, dtype=complex)


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


# The root taxonomy as the package computed it on numpy scalars, every
# distance a numpy complex abs, kept verbatim as the reference for
# ``classify_roots``; the argument checks are left out.


def numpy_scalar_classify_roots(poles, zeros, expected_system, eps=0.0):
    arrays = [np.atleast_1d(np.asarray(v, dtype=complex)) for v in (poles, zeros, expected_system)]
    poles, zeros, expected = (list(a) if a.size else [] for a in arrays)
    system_tol = max(SYSTEM_TOL_PER_EPS * eps, SYSTEM_TOL_FLOOR)

    pole_used = [False] * len(poles)
    zero_used = [False] * len(zeros)

    system = []
    # Distances between finite roots may overflow: inf matches nothing.
    with np.errstate(over="ignore"):
        for loc in expected:
            best, best_d = None, np.inf
            for i, p in enumerate(poles):
                if pole_used[i]:
                    continue
                d = abs(p - loc)
                if d < best_d:
                    best, best_d = i, d
            if best is not None and best_d <= system_tol:
                pole_used[best] = True
                system.append(poles[best])

        pairs = sorted(
            (abs(poles[i] - zeros[j]), i, j)
            for i in range(len(poles))
            for j in range(len(zeros))
            if not pole_used[i]
        )
    doublets = []
    for d, i, j in pairs:
        if d > DOUBLET_TOL:
            break
        if pole_used[i] or zero_used[j]:
            continue
        pole_used[i] = zero_used[j] = True
        doublets.append((poles[i], zeros[j]))

    far_poles, far_zeros, leftovers = [], [], []
    for i, p in enumerate(poles):
        if pole_used[i]:
            continue
        if abs(p) >= FAR_TOL:
            far_poles.append(p)
        else:
            leftovers.append(("pole", p))
    for j, z in enumerate(zeros):
        if zero_used[j]:
            continue
        if abs(z) >= FAR_TOL:
            far_zeros.append(z)
        else:
            leftovers.append(("zero", z))

    return RootTaxonomy(
        system_poles=tuple(system),
        doublets=tuple(doublets),
        far_poles=tuple(far_poles),
        far_zeros=tuple(far_zeros),
        unclassified=tuple(leftovers),
    )


# The root taxonomy as the package computed it before the pole-zero pair
# scan was pruned by real part: every unused pair's distance formed on
# Python numbers, kept verbatim as the reference for ``classify_roots``;
# the argument checks are left out.


def unpruned_classify_roots(poles, zeros, expected_system, eps=0.0):
    arrays = [np.ravel(np.asarray(v, dtype=complex)) for v in (poles, zeros, expected_system)]
    # The taxonomy holds numpy scalars of the arrays, but every distance
    # is taken on Python numbers: the same bits, with less overhead.
    poles, zeros, _ = arrays
    pole_values, zero_values, expected = (a.tolist() for a in arrays)
    system_tol = max(SYSTEM_TOL_PER_EPS * eps, SYSTEM_TOL_FLOOR)

    pole_used = [False] * poles.size
    zero_used = [False] * zeros.size

    system = []
    for loc in expected:
        best, best_d = None, math.inf
        for i, p in enumerate(pole_values):
            if pole_used[i]:
                continue
            d = _modulus(p - loc)
            if d < best_d:
                best, best_d = i, d
        if best is not None and best_d <= system_tol:
            pole_used[best] = True
            system.append(poles[best])

    # Closest pairs first; the greedy pairing never reads a pair beyond
    # DOUBLET_TOL, so only the pairs within it are sorted.
    pairs = sorted(
        (d, i, j)
        for i, p in enumerate(pole_values)
        if not pole_used[i]
        for j, z in enumerate(zero_values)
        if (d := _modulus(p - z)) <= DOUBLET_TOL
    )
    doublets = []
    for _, i, j in pairs:
        if pole_used[i] or zero_used[j]:
            continue
        pole_used[i] = zero_used[j] = True
        doublets.append((poles[i], zeros[j]))

    far_poles, far_zeros, leftovers = [], [], []
    for i, p in enumerate(pole_values):
        if pole_used[i]:
            continue
        if _modulus(p) >= FAR_TOL:
            far_poles.append(poles[i])
        else:
            leftovers.append(("pole", poles[i]))
    for j, z in enumerate(zero_values):
        if zero_used[j]:
            continue
        if _modulus(z) >= FAR_TOL:
            far_zeros.append(zeros[j])
        else:
            leftovers.append(("zero", zeros[j]))

    return RootTaxonomy(
        system_poles=tuple(system),
        doublets=tuple(doublets),
        far_poles=tuple(far_poles),
        far_zeros=tuple(far_zeros),
        unclassified=tuple(leftovers),
    )
