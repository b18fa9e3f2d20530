"""Iterated pencil solve with spurious-pole detection and removal.

Noise in the series coefficients masks rank deficiency: a function with
fewer than m genuine poles still yields full-rank Hankel blocks, and the
plain pencil fills the gap with spurious poles (near the origin, or
paired with a nearby zero into a doublet).  The iterated solver detects
the surplus three ways and shrinks the working size l until the
remaining poles are trustworthy:

1. singular values of the combined Hankel window below 10^-t of the
   largest mark filterable directions, where t is the series' own
   accuracy estimate ``PowerSeries.t``;
2. eigenvalues of the reduced pencil of magnitude at most
   ``ORIGIN_RADIUS`` are deleted outright;
3. a residue Vandermonde D that is not finite, or whose singular-value
   ratio is below 10^-t both as it stands and with its columns
   equilibrated by powers of two, indicates a still-redundant pole set.

Every reduction re-enters the loop from the rebuilt window, so the
report carries the full trajectory.  Every pass either is accepted or
lowers l by at least one, so the loop ends within m passes.  The defect
estimate 2(m - final_l) counts how many series coefficients carried no
usable information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baseline import Conformation, _require_length, combined_window
from .errors import ConvergenceFailure, NonFinite, RankDeficient
from .numerics import SvdResult, all_finite, complex_pairs, qr_solve, singular_values, svd
from .pencil import Solution, _with_head, pm1_poles, residue_system, to_rational
from .series import PowerSeries


#: Eigenvalues of the reduced pencil with magnitude at most this are
#: deleted as spurious origin poles.
ORIGIN_RADIUS = 1e-3


class FilterIteration(NamedTuple):
    """One pass: working size, singular values seen, directions removed."""

    l_before: int
    singular_values: np.ndarray
    n_s_removed: int


@dataclass(frozen=True)
class SpuriousPoleReport:
    """Trajectory and outcome of the filtering loop."""

    iterations: tuple
    origin_poles_removed: tuple
    d_matrix_reductions: int
    final_l: int
    defect_estimate: int

    @property
    def head_only(self) -> bool:
        """Whether filtering removed every pole."""
        return self.final_l == 0

    def to_dict(self) -> dict:
        return {
            "iterations": [
                {
                    "l_before": it.l_before,
                    "singular_values": [float(v) for v in it.singular_values],
                    "n_s_removed": it.n_s_removed,
                }
                for it in self.iterations
            ],
            "origin_poles_removed": complex_pairs(self.origin_poles_removed),
            "d_matrix_reductions": self.d_matrix_reductions,
            "final_l": self.final_l,
            "defect_estimate": self.defect_estimate,
            "head_only": self.head_only,
        }


def count_filtered(sigma, t: float) -> int:
    """Number of singular values below 10^-t relative to the largest.

    An all-zero spectrum keeps a single direction and filters the rest.
    """
    values = np.asarray(sigma, dtype=float).reshape(-1).tolist()  # Python floats are faster at small sizes
    if not values:
        raise ValueError("empty singular-value array")
    if values[0] == 0:
        return len(values) - 1
    tol = 10.0 ** (-t) * values[0]
    return sum(v < tol for v in values)


def reduced_poles(svd_result: SvdResult) -> np.ndarray:
    """Eigenvalues of the pencil restricted to the retained directions.

    ``svd_result`` holds S and Vh of the full SVD C = U S Vh of the
    (2m-l) x (l+1) window, so l is read from the square Vh.  The
    least-squares pencil solve C2^+ C1 equals the solution of
    min || S_hat V2h X - S_hat V1h ||_F  where V1h/V2h are the
    first/last l columns of Vh and S_hat pads the singular values with
    zeros to the full column count: the unitary factor U drops out, but
    each row must keep its singular-value weight.  Raises RankDeficient
    when the weighted system loses rank, in which case the caller
    shrinks l and retries, and NonFinite when the largest singular
    value overflows (a finite window whose 2-norm does not fit).
    """
    l = svd_result.Vh.shape[0] - 1
    if l < 1:
        raise ValueError(f"window must have at least 2 columns, got {l + 1}")
    if not math.isfinite(svd_result.sigma[0]):
        raise NonFinite("largest singular value of the window overflows")
    weights = svd_result.sigma
    if weights.size < l + 1:  # a wide window: pad with zeros
        weights = np.zeros(l + 1)
        weights[: svd_result.sigma.size] = svd_result.sigma
    return pm1_poles(weights[:, None] * svd_result.Vh)


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
    overflows to inf, and 10^-t <= 1.
    """
    D = np.asarray(D)
    if not all_finite(D):
        return False
    tol = 10.0 ** (-t)
    if D.shape[1:] == (1,) and D.shape[0] and not tol > 1:
        return True  # sigma_min = sigma_max, and tol * sigma <= sigma
    try:
        dsig = singular_values(D)
        if dsig[-1] < tol * dsig[0]:
            dsig = singular_values(D * np.ldexp(1.0, -np.frexp(np.abs(D).max(axis=0))[1]))
    except ConvergenceFailure as exc:
        raise ConvergenceFailure(f"residue Vandermonde SVD did not converge: {exc}") from exc
    return not dsig[-1] < tol * dsig[0]


def pm2(s: PowerSeries, conf: Conformation) -> Solution:
    """Pencil solve with iterated spurious-pole filtering.

    Runs the detection loop described in the module docstring starting
    from l = m, with the filtering accuracy t = s.t, and returns a
    Solution: the surviving poles with overdetermined least-squares
    residues (QR on the unscaled D, once ``vandermonde_accepts`` passes
    it), the equivalent rational approximant, and the filtering report.

    If every pole is removed (report.head_only), ``to_rational`` gives
    the zero approximant when the first conf.n coefficients are all zero
    (no pass runs then), else the head polynomial over 1 for k >= 0; a
    negative k raises Collapse.
    """
    m = conf.m
    if m < 1:
        raise ValueError("filtering needs a denominator degree m >= 1")
    _require_length(s, conf)
    iterations: list[FilterIteration] = []
    origin_removed: list[complex] = []
    d_reductions = 0
    # An identically-zero window has no poles to find: no pass runs.
    l = m if np.count_nonzero(s.coeffs[: conf.n]) else 0

    while l > 0:
        sr = svd(combined_window(s, conf, l))
        # The filter targets the numerical rank: the window keeps
        # rank_hat = (#sigma - n_s) usable directions, and a pencil of
        # size rank_hat is the largest the data supports.  On the first
        # pass (l = m, row-limited spectrum) this equals the plain
        # reduction l - n_s; on later column-limited passes the spectrum
        # carries one extra entry and the plain reduction would
        # overshoot by one, losing a genuine pole.  At l = 1 new_l is 1.
        rank_hat = sr.sigma.size - count_filtered(sr.sigma, s.t)
        new_l = max(1, min(l, rank_hat))
        iterations.append(FilterIteration(l, sr.sigma, l - new_l))
        if new_l < l:
            l = new_l
            continue

        try:
            lam = reduced_poles(sr)
        except RankDeficient:
            l -= 1
            continue

        inside = np.abs(lam) <= ORIGIN_RADIUS
        if np.count_nonzero(inside):
            origin_removed.extend(complex(p) for p in lam[inside])
            l -= int(np.count_nonzero(inside))
            continue

        D, rhs = residue_system(s, lam, conf, use_all_rows=True)
        if vandermonde_accepts(D, s.t):
            break
        d_reductions += 1
        l -= 1

    report = SpuriousPoleReport(
        iterations=tuple(iterations),
        origin_poles_removed=tuple(origin_removed),
        d_matrix_reductions=d_reductions,
        final_l=l,
        defect_estimate=2 * (m - l),
    )
    prf = _with_head(s, conf.k, lam, qr_solve(D, rhs, rtol=0.0)) if l else _with_head(s, conf.k, (), ())
    return Solution(prf, to_rational(prf, s, conf), report)
