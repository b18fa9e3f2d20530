"""Matrix-pencil solver: poles as generalized eigenvalues of Hankel blocks.

Two shifted Hankel matrices C1, C2 built from the series coefficients
form the pencil C1 - z^{-1} C2 whose finite generalized eigenvalues are
the pole locations directly.  Residues then come from a separate
overdetermined Vandermonde least-squares system in the inverse poles,
``residues``, the one residue step of ``pm1`` and ``filtering.pm2``.
This factors the Pade problem into a pole stage and a residue stage,
which is what makes targeted pole filtering possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .baseline import Conformation, RationalApproximant, combined_window, numerator_from_denominator
from .errors import Collapse, ConvergenceFailure, DuplicatePole, NonFinite, RankDeficient, SingularVandermonde
from .numerics import DEFAULT_RANK_RTOL, all_finite, eigenvalues, poly_from_roots, qr_solve, root_order, singular_values
from .series import PowerSeries


@dataclass(frozen=True)
class PoleResidueForm:
    """Head polynomial plus shifted simple-pole expansion.

    Represents  head(z) + z^shift * sum_j e_j / (1 - z/p_j)  where
    ``poles`` holds the p_j, ``weights`` the e_j and shift = len(head).
    The head carries c_0..c_k when k >= 0 (so shift = k+1) and is empty
    otherwise.  All three are stored as read-only complex arrays, the
    terms sorted by pole magnitude, then phase.  Unequal numbers of
    poles and weights raise ValueError.  Non-finite entries, and a
    finite pole whose modulus overflows, raise NonFinite; two poles
    within a relative 1e-12 raise DuplicatePole.
    """

    head: np.ndarray
    poles: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        head = np.array(self.head, dtype=complex).reshape(-1)
        if not all_finite(head):
            raise NonFinite("head coefficients must be finite")
        self._settle(head, np.array(self.poles, dtype=complex).reshape(-1),
                     np.array(self.weights, dtype=complex).reshape(-1))

    def _settle(self, head: np.ndarray, p: np.ndarray, e: np.ndarray) -> None:
        """Check and sort the terms p, e and set the fields, from a finite
        head and 1-D complex arrays that no one else holds: they are
        frozen in place."""
        if p.size != e.size:
            raise ValueError(f"{p.size} poles but {e.size} weights")
        # The sum of the squared moduli is finite only when every entry
        # is, and then no modulus overflows (see all_finite).
        if not math.isfinite(np.vdot(p, p).real + np.vdot(e, e).real):
            if not (np.isfinite(p).all() and np.isfinite(e).all()):
                raise NonFinite("pole-residue terms must be finite")
            with np.errstate(over="ignore"):
                if not np.isfinite(np.hypot(p.real, p.imag)).all():
                    raise NonFinite("pole moduli must be finite: one overflows")
        if p.size > 1:
            order = _term_order(p)
            p, e = p[order], e[order]
        head.flags.writeable = p.flags.writeable = e.flags.writeable = False
        self.__dict__.update(head=head, poles=p, weights=e)  # frozen: no setattr

    @property
    def shift(self) -> int:
        """Power of z multiplying the pole terms: the head length."""
        return self.head.size


def _term_order(p) -> np.ndarray:
    """Indices that sort the poles p, finite and of finite modulus, by
    modulus, then phase (ties keep input order), after raising
    DuplicatePole for the first pair i < j with |p_i - p_j| <= 1e-12
    max(|p_i|, |p_j|).

    Moduli are taken by hypot, as Python's abs takes them (np.abs may
    differ in the last bit).  A close pair has moduli within a relative
    1e-12, so each pole is compared only with the poles after it in
    modulus order whose modulus lies in that band, widened for rounding
    and, where 1e-12 of a modulus underflows, by 1e-300.  The scan runs
    in Python floats, which round as numpy's do and overflow quietly."""
    a = np.hypot(p.real, p.imag)
    order = np.lexsort((np.arctan2(p.imag, p.real), a))  # np.angle without its wrapper
    index, pole, modulus = order.tolist(), p.tolist(), a.tolist()
    s = [modulus[i] for i in index]
    close = []
    for k in range(len(s) - 1):
        top, g = s[k] * (1 + 4e-12) + 1e-300, k + 1
        while g < len(s) and s[g] <= top:
            i, j = sorted((index[k], index[g]))
            try:
                distance = abs(pole[i] - pole[j])
            except OverflowError:
                distance = math.inf
            if distance <= 1e-12 * max(modulus[i], modulus[j]):
                close.append((i, j))
            g += 1
    if close:
        i, j = min(close)
        raise DuplicatePole(f"poles {pole[i]} and {pole[j]} coincide to relative 1e-12")
    return order


class Solution(NamedTuple):
    """What every solver returns: the pole-residue form (None for dm and
    svd), the equivalent rational approximant, and pm2's
    SpuriousPoleReport (None for the other three)."""

    prf: PoleResidueForm | None
    rational: RationalApproximant
    report: object | None = None

    @property
    def final_l(self) -> int:
        """The approximant's pole count: its denominator's degree (m for
        dm, svd and pm1, ``report.final_l`` for pm2)."""
        return self.rational.denom.size - 1


def _with_head(s: PowerSeries, k: int, poles, weights) -> PoleResidueForm:
    """Pole-residue form with the given terms and the series head for
    numerator offset k: c_0..c_k (shift k+1) when k >= 0, else none.

    The poles and weights are 1-D arrays that a solver has just made (or
    empty sequences); they are frozen in place, not copied, and the head
    is a view of the finite coefficients."""
    prf = object.__new__(PoleResidueForm)
    prf._settle(s.coeffs[: max(k + 1, 0)], np.asarray(poles, dtype=complex), np.asarray(weights, dtype=complex))
    return prf


def build_blocks(s: PowerSeries, conf: Conformation) -> np.ndarray:
    """The coefficient window of conformation [m+k/m] at l = m: the pencil
    that ``pm1_poles`` takes."""
    return combined_window(s, conf, conf.m)


def pm1_poles(H: np.ndarray, rank_rtol: float = DEFAULT_RANK_RTOL) -> np.ndarray:
    """Pole estimates: eigenvalues of the least-squares pencil solve.

    The window's shifted blocks C1 = H[:, :-1] and C2 = H[:, 1:] form
    the pencil: solves C2 X = C1 in the least-squares sense and returns
    eig(X), sorted by magnitude then phase.  ``rank_rtol`` is passed
    through to the QR rank check; 0 disables it, reproducing an
    unguarded solve.
    """
    lam = eigenvalues(qr_solve(H[:, 1:], H[:, :-1], rtol=rank_rtol))
    return lam[root_order(lam)] if lam.size > 1 else lam


# A tiny spurious pole overflows d**r to inf; callers reject a non-finite
# matrix, so the overflow is expected and not warned about.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def residue_system(s: PowerSeries, poles, conf: Conformation):
    """Vandermonde matrix in inverse poles and its right-hand side.

    Row r holds d_j^r with d_j = 1/p_j (inf for p_j = 0); the right-hand
    side runs from c_{k+1} for k >= 0, c_0 otherwise, to c_{n-1}: every
    row.  Callers pass at most m poles, so rows never run short.
    """
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    rhs = s.coeffs[conf.k + 1 if conf.k >= 0 else 0 : conf.n]
    d = 1.0 / poles
    if np.count_nonzero(poles) < poles.size:  # faster than .all()
        d[poles == 0] = np.inf
    return d ** _exponents(rhs.size), rhs


@lru_cache(maxsize=1024)
def _exponents(rows: int) -> np.ndarray:
    """Read-only column 0..rows-1 as complex numbers: the exponents of
    d**r, cast once, as the power of a complex by an integer casts them."""
    column = np.arange(rows, dtype=complex)[:, None]
    column.flags.writeable = False
    return column


def _tolerance(t: float) -> float:
    """10^-t, the relative threshold of accuracy t; a ValueError names a t that overflows it."""
    try:
        return 10.0 ** (-t)
    except OverflowError:
        raise ValueError(f"accuracy t = {t!r} is too negative: 10^-t overflows a double") from None


def vandermonde_accepts(D, t: float) -> bool:
    """Rule 3: whether the residue Vandermonde D certifies its QR solve.

    A non-finite D (an overflowing power of a tiny spurious pole) fails
    without reaching LAPACK.  A finite D passes when sigma_min/sigma_max
    >= 10^-t for D or, only where that fails, for D with each column
    scaled by 2^-e, e the binary exponent of its largest modulus.
    Householder QR is as accurate as D's best column scaling allows, and
    equilibration comes within a small factor of that, so the second look
    discounts the monomial scale of d^r but not a coincident pole pair.

    A finite D of one column and at least one row passes without an SVD
    for every t >= 0 (and a NaN t), as the ratio rule would pass it: its
    one singular value is both sigma_min and sigma_max, also where it
    overflows to inf, and 10^-t <= 1.  So does every finite D where 10^-t
    is 0 (t = inf, or t above about 323.6).
    """
    D = np.asarray(D)
    if not all_finite(D):
        return False
    tol = _tolerance(t)
    if not tol or D.shape[1:] == (1,) and D.shape[0] and not tol > 1:
        return True  # sigma_min >= 0 = tol sigma_max, or sigma_min = sigma_max >= tol sigma_max
    try:
        dsig = singular_values(D)
        if dsig[-1] < tol * float(dsig[0]):  # Python floats overflow to inf quietly
            dsig = singular_values(D * np.ldexp(1.0, -np.frexp(np.abs(D).max(axis=0))[1]))
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(f"residue Vandermonde SVD did not converge: {exc}") from exc
    return not dsig[-1] < tol * float(dsig[0])


def residues(s: PowerSeries, poles: np.ndarray, conf: Conformation, t: float) -> np.ndarray | None:
    """Weights of both pencil solvers: QR on the all-row ``residue_system``
    once rule 3 at accuracy t passes it, else None.  pm2 passes s.t; pm1,
    which filters nothing, passes t = inf, where rule 3 asks only for a
    finite D."""
    D, rhs = residue_system(s, poles, conf)
    return qr_solve(D, rhs, rtol=0.0) if vandermonde_accepts(D, t) else None


def pm1_residues(s: PowerSeries, poles, conf: Conformation) -> np.ndarray:
    """Weights e_j solving the square Vandermonde system D e = c in the
    inverse poles d_j = 1/p_j, on the first l = len(poles) rows of
    ``residue_system``: the naive square refit of ``pruned_square_refit``.

    A pole at the origin is tolerated only while no row actually needs
    its inverse, i.e. in the single-row case; otherwise the matrix is
    non-finite and SingularVandermonde is raised, as it is for
    (near-)coincident poles and for powers that overflow.
    """
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    if poles.size == 0:
        raise ValueError("need at least one pole to solve for residues")
    D, rhs = (a[: poles.size] for a in residue_system(s, poles, conf))
    if not all_finite(D):
        raise SingularVandermonde("inverse-pole powers are non-finite (pole at the origin)")
    try:
        return qr_solve(D, rhs)
    except RankDeficient as exc:
        raise SingularVandermonde(f"residue system is rank deficient: {exc}") from exc


def to_rational(prf: PoleResidueForm, s: PowerSeries, conf: Conformation) -> RationalApproximant:
    """Convert a pole-residue form back to numerator/denominator form.

    The denominator is the monic product of (z - p_j), rescaled so
    b_0 = 1 when possible (largest-magnitude entry = 1 otherwise, which
    happens exactly when some pole sits at the origin); the numerator of
    degree l + k then follows from the series convolution identity.
    Poles whose denominator overflows raise NonFinite.  A form without
    poles gives the zero approximant, max(k+1, 1) zeros over 1, when the
    first conf.n coefficients are all zero; else the head over 1 for
    k >= 0 and Collapse for k < 0.
    """
    if prf.poles.size == 0:
        zero = not np.count_nonzero(s.coeffs[: conf.n])
        if conf.k < 0 and not zero:
            raise Collapse(f"no poles left and k={conf.k} < 0 leaves no polynomial part")
        return RationalApproximant(numer=np.zeros(max(conf.k + 1, 1)) if zero else prf.head, denom=[1.0])
    denom = _unit_scaled(poly_from_roots(prf.poles))
    return RationalApproximant._of(numerator_from_denominator(s, denom, conf), denom)


# Huge or tiny poles may overflow the product or the scaling; the inf or
# NaN left makes numerator_from_denominator raise NonFinite.
@np.errstate(all="ignore")
def _unit_scaled(denom: np.ndarray) -> np.ndarray:
    """denom divided by b_0, or by its largest-magnitude entry where b_0 = 0."""
    return denom / (denom[0] if denom[0] != 0 else denom[np.argmax(np.abs(denom))])


def pm1(s: PowerSeries, conf: Conformation) -> Solution:
    """Full pencil solve at l = m: ``pm1_poles`` of the raw window and the
    weights of ``residues`` at t = inf, pm2's accepted pass with nothing
    filtered, so s.t plays no part.  A pole exactly at the origin gets
    weight 0 and no column of D (no other weight keeps e d^r finite).
    SingularVandermonde where D is not finite.  Returns the pole-residue
    form and the equivalent rational approximant, without a report."""
    poles = pm1_poles(build_blocks(s, conf))
    e, kept = np.zeros(poles.size, dtype=complex), poles != 0
    if kept.any():
        if (rest := residues(s, poles[kept], conf, math.inf)) is None:
            raise SingularVandermonde("residue Vandermonde is non-finite: a power of an inverse pole overflows")
        e[kept] = rest
    prf = _with_head(s, conf.k, poles, e)
    return Solution(prf, to_rational(prf, s, conf))
