"""Evaluation of approximants, root extraction, meshes and error sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baseline import RationalApproximant
from .errors import PoleHit, ZeroPole
from .numerics import complex_from_parts, horner, polynomial_roots, root_order
from .pencil import PoleResidueForm
from .series import is_real


def _mark_pole_hits(value, hit, z):
    """Scalar: raise PoleHit on a hit.  Array: inf at the hits."""
    if np.ndim(value) == 0:
        if hit:
            raise PoleHit(f"evaluation point z={z} is a pole")
        return value
    value[hit] = np.inf
    return value


def eval_rational(ra: RationalApproximant, z):
    """Evaluate numerator/denominator by Horner's rule.

    ``z`` is a scalar or an array of points.  Where the denominator
    vanishes exactly, an array gives inf and a scalar raises PoleHit.
    A point with an infinite or NaN part gives NaN without a warning,
    and error_sweep flags it.
    """
    den = horner(ra.denom, z)
    with np.errstate(all="ignore"):
        value = horner(ra.numer, z) / den
    return _mark_pole_hits(value, den == 0, z)


def _c_quot(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) by CPython's complex division (Smith's
    algorithm: scale by the larger part of the divisor), elementwise.
    Returns the real and imaginary parts; NaN where the divisor is NaN."""
    big_re = np.abs(br) >= np.abs(bi)
    nan = np.isnan(br) | np.isnan(bi)
    ratio = np.where(big_re, bi / br, br / bi)
    denom = np.where(big_re, br + bi * ratio, br * ratio + bi)
    re = np.where(big_re, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(big_re, ai - ar * ratio, ai * ratio - ar) / denom
    return np.where(nan, np.nan, re), np.where(nan, np.nan, im)


def _c_powu(zr, zi, n: int):
    """z**n for an integer n >= 1 by CPython's binary powering, in parts."""
    rr, ri = np.ones_like(zr), np.zeros_like(zr)
    pr, pi = zr, zi
    mask = 1
    while mask <= n:
        if n & mask:
            rr, ri = rr * pr - ri * pi, rr * pi + ri * pr
        mask <<= 1
        pr, pi = pr * pr - pi * pi, pr * pi + pi * pr
    return rr, ri


def eval_pole_residue(prf: PoleResidueForm, z):
    """Evaluate head(z) + z^shift * sum_j e_j/(1 - z/p_j).

    ``z`` is a scalar or an array of points.  Each tail term is computed
    as e_j p_j/(p_j - z), which is exact and avoids overflow for large
    |z|; the arithmetic follows Python complex numbers step by step.  A
    term whose pole sits at the origin is the limit of a vanishing
    contribution and is skipped when its weight is zero; with nonzero
    weight it is meaningless and raises ZeroPole.  Exactly on a pole an
    array gives inf and a scalar raises PoleHit.  A point with a NaN part
    gives NaN without a warning, and error_sweep flags it.  So does an
    infinite point, except where one part is infinite, the other finite,
    and the form has no head and no shift: there every term, and so the
    value, is 0, the limit at infinity.
    """
    terms = list(zip(prf.poles.tolist(), prf.weights.tolist()))
    if any(p == 0 and e != 0 for p, e in terms):
        raise ZeroPole("a term with nonzero weight has its pole at the origin")
    z = np.asarray(z, dtype=complex)
    zr, zi = z.real, z.imag
    acc_r, acc_i = np.zeros(z.shape), np.zeros(z.shape)
    hit = np.zeros(z.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for p, e in terms:
            if p == 0:
                continue
            hit |= z == p
            ep = e * p
            qr, qi = _c_quot(ep.real, ep.imag, p.real - zr, p.imag - zi)
            acc_r, acc_i = acc_r + qr, acc_i + qi
        if prf.shift:
            pr, pi = _c_powu(zr, zi, prf.shift)
            acc_r, acc_i = acc_r * pr - acc_i * pi, acc_r * pi + acc_i * pr
        value = horner(prf.head, z) + complex_from_parts(acc_r, acc_i)[()]
    return _mark_pole_hits(value, hit, z)


def sorted_roots(coeffs) -> np.ndarray:
    """Roots of a lowest-order-first polynomial, sorted by magnitude
    then phase."""
    roots = polynomial_roots(coeffs)
    return roots[root_order(roots)]


def poles_and_zeros(ra: RationalApproximant) -> tuple[np.ndarray, np.ndarray]:
    """The sorted roots of the denominator, then of the numerator.  An
    identically-zero numerator gives no zeros."""
    poles = sorted_roots(ra.denom)
    return poles, sorted_roots(ra.numer) if np.any(ra.numer) else np.array([], dtype=complex)


def unit_disk_mesh(spacing: float) -> np.ndarray:
    """Square lattice of the given spacing covering the closed unit disk.

    Points are i*spacing + 1j*j*spacing for all integers i, j with
    hypot <= 1, ordered by increasing real then imaginary part.
    Spacing 1 gives the 5 points 0, +-1, +-i; spacing 0.5 gives 13.
    A spacing that is not a real number raises ValueError.
    """
    if not is_real(spacing) or not 0 < spacing <= 1:
        raise ValueError(f"spacing must be a real number in (0, 1], got {spacing!r}")
    N = int(np.ceil(1.0 / spacing)) + 1
    i, j = np.mgrid[-N : N + 1, -N : N + 1]
    x, y = i * spacing, j * spacing
    inside = np.hypot(x, y) <= 1.0
    return complex_from_parts(x[inside], y[inside])


@dataclass(frozen=True)
class ErrorSweep:
    """Pointwise absolute errors over a set of evaluation points.

    ``flagged`` marks points where either function is non-finite, such
    as a pole hit; such points carry an infinite error and are left out
    of ``max_unflagged``.
    """

    errors: np.ndarray
    flagged: np.ndarray

    def max_unflagged(self, part: slice = slice(None)) -> float:
        """The largest error over the part's unflagged points, or inf
        when every point of the part is flagged."""
        good = self.errors[part][~self.flagged[part]]
        return float(good.max()) if good.size else float("inf")


def error_sweep(approx, reference, points) -> ErrorSweep:
    """Absolute error |approx(z) - reference(z)| over the given points.

    Both arguments are callables that take the whole array of points and
    return an array of values (or a scalar, broadcast to every point).
    A point where either value is non-finite, such as a pole hit, is
    flagged and carries an infinite error rather than aborting the
    sweep.  No numpy floating-point warning escapes.
    """
    points = np.atleast_1d(np.asarray(points, dtype=complex))
    if points.size == 0:
        raise ValueError("need at least one evaluation point")
    with np.errstate(all="ignore"):
        a = np.broadcast_to(np.asarray(approx(points), dtype=complex), points.shape)
        r = np.broadcast_to(np.asarray(reference(points), dtype=complex), points.shape)
        d = a - r
        errors = np.hypot(d.real, d.imag)
    flagged = ~(np.isfinite(a) & np.isfinite(r))
    errors[flagged] = np.inf
    return ErrorSweep(errors, flagged)
