"""Matrix-pencil solver: poles as generalized eigenvalues of Hankel blocks.

Two shifted Hankel matrices C1, C2 built from the series coefficients
form the pencil C1 - z^{-1} C2 whose finite generalized eigenvalues are
the pole locations directly.  Residues then come from a separate
(rectangular) Vandermonde least-squares system in the inverse poles.
This factors the classical Pade problem into a pole stage and a residue
stage, which is what makes targeted pole filtering possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baseline import Conformation, RationalApproximant, _hankel_index, combined_window, numerator_from_denominator
from .errors import Collapse, DuplicatePole, InsufficientCoefficients, NonFinite, RankDeficient, SingularVandermonde
from .numerics import DEFAULT_RANK_RTOL, all_finite, eigenvalues, poly_from_roots, qr_solve, root_order
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
        p = np.array(self.poles, dtype=complex).reshape(-1)
        e = np.array(self.weights, dtype=complex).reshape(-1)
        if p.size != e.size:
            raise ValueError(f"{p.size} poles but {e.size} weights")
        if not (all_finite(p) and all_finite(e)):
            raise NonFinite("pole-residue terms must be finite")
        # Moduli by hypot, as Python's abs takes them (np.abs may differ
        # in the last bit); ties in (modulus, angle) keep input order.
        with np.errstate(over="ignore"):
            a = np.hypot(p.real, p.imag)
        if not all_finite(a):
            raise NonFinite("pole moduli must be finite: one overflows")
        if p.size > 1:
            order = np.lexsort((np.angle(p), a))
            _reject_duplicates(p, a, order)
            p, e = p[order], e[order]
        for name, value in (("head", head), ("poles", p), ("weights", e)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def shift(self) -> int:
        """Power of z multiplying the pole terms: the head length."""
        return self.head.size


def _reject_duplicates(p, a, order) -> None:
    """Raise DuplicatePole for the first pair i < j with |p_i - p_j| <=
    1e-12 max(|p_i|, |p_j|).

    Such a pair has moduli within a relative 1e-12, so each pole is
    compared only with the poles after it in modulus ``order`` whose
    modulus lies in that band, widened for rounding and, where 1e-12 of
    a modulus underflows, by 1e-300."""
    n = p.size
    s = a[order]
    with np.errstate(over="ignore"):
        top = s * (1 + 4e-12) + 1e-300
        # s is sorted and top grows with s: a pole has a later one in its
        # band only if it has the next one.
        if not (s[1:] <= top[:-1]).any():
            return
        count = np.searchsorted(s, top, side="right") - np.arange(1, n + 1)
        first = np.repeat(np.arange(n), count)
        second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(count) - count, count)
        i, j = order[first], order[second]
        i, j = np.minimum(i, j), np.maximum(i, j)
        d = p[i] - p[j]
        close = np.hypot(d.real, d.imag) <= 1e-12 * np.maximum(a[i], a[j])
    if close.any():
        k = np.lexsort((j[close], i[close]))[0]
        pi, pj = complex(p[i[close][k]]), complex(p[j[close][k]])
        raise DuplicatePole(f"poles {pi} and {pj} coincide to relative 1e-12")


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
    numerator offset k: c_0..c_k (shift k+1) when k >= 0, else none."""
    return PoleResidueForm(s.coeffs[: max(k + 1, 0)], poles, weights)


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
    return lam[root_order(lam)]


def residue_system(s: PowerSeries, poles, conf: Conformation, use_all_rows: bool):
    """Vandermonde matrix in inverse poles and its right-hand side.

    Row r holds d_j^r with d_j = 1/p_j; the right-hand side starts at
    c_{k+1} for k >= 0 and c_0 otherwise.  Square systems take the first
    len(poles) rows, overdetermined ones every available row.
    """
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    l = poles.size
    start = conf.k + 1 if conf.k >= 0 else 0
    rhs_all = s.coeffs[start : conf.n]
    rows = rhs_all.size if use_all_rows else l
    if rows > rhs_all.size:
        raise InsufficientCoefficients(
            f"residue system needs {rows} equations, series provides {rhs_all.size}"
        )
    # A tiny spurious pole overflows d**r to inf; callers reject a
    # non-finite matrix, so the overflow is expected and not warned about.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = np.where(poles != 0, 1.0 / poles, np.inf)
        D = d ** _hankel_index(rows, 1)  # the exponent column 0..rows-1
    return D, rhs_all[:rows]


def pm1_residues(s: PowerSeries, poles, conf: Conformation) -> np.ndarray:
    """Weights e_j solving the square Vandermonde system D e = c in the
    inverse poles d_j = 1/p_j.

    Row r of D holds d_j^r for the first l = len(poles) rows; the
    right-hand side is c_{k+1}, c_{k+2}, ... for k >= 0 and c_0, c_1,
    ... otherwise.  A pole at the origin is tolerated only while no row
    actually needs its inverse, i.e. in the single-row case; otherwise
    the matrix is non-finite and SingularVandermonde is raised, as it is
    for (near-)coincident poles and for powers that overflow.
    """
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    if poles.size == 0:
        raise ValueError("need at least one pole to solve for residues")
    D, rhs = residue_system(s, poles, conf, use_all_rows=False)
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
    With no terms at all a non-negative k yields the bare head over 1
    and a negative k raises Collapse.  Poles whose denominator overflows
    raise NonFinite.
    """
    if prf.poles.size == 0:
        if conf.k < 0:
            raise Collapse("no poles and k < 0 leaves nothing to represent")
        return RationalApproximant(numer=prf.head, denom=np.array([1.0 + 0j]))
    denom = poly_from_roots(prf.poles)
    # Huge or tiny poles may overflow the product or the scaling; the
    # inf or NaN left makes numerator_from_denominator raise NonFinite.
    with np.errstate(all="ignore"):
        denom = denom / (denom[0] if denom[0] != 0 else denom[np.argmax(np.abs(denom))])
    numer = numerator_from_denominator(s, denom, conf)
    return RationalApproximant(numer=numer, denom=denom)


def _square_fit(s: PowerSeries, poles, conf: Conformation) -> PoleResidueForm:
    """Pole-residue form of the given poles, with weights from the square
    residue system (see pm1_residues)."""
    return _with_head(s, conf.k, poles, pm1_residues(s, poles, conf))


def pm1(s: PowerSeries, conf: Conformation) -> Solution:
    """Full pencil solve at l = m: poles, square residue system, both forms.

    Returns the pole-residue form and the equivalent rational
    approximant, without a report.  No filtering here; that is the job
    of the iterated variant.
    """
    prf = _square_fit(s, pm1_poles(build_blocks(s, conf)), conf)
    return Solution(prf, to_rational(prf, s, conf))
