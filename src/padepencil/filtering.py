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
   equilibrated by powers of two, indicates a still-redundant pole set
   (``pencil.vandermonde_accepts``; pm1's residue step applies it at
   t = inf, where only a non-finite D fails).

Each pass returns a FilterIteration: the cause that lowered l (None when
accepted) and the l it leaves; the report reads its counts from them.
Every pass is accepted or lowers l by at least one, so the loop ends
within m passes.  The defect estimate 2(m - final_l) counts how many
series coefficients carried no usable information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baseline import Conformation, _require_length, combined_window
from .errors import NonFinite, RankDeficient
from .numerics import SvdResult, complex_pairs, svd
from .pencil import Solution, _tolerance, _with_head, pm1_poles, residues, to_rational
from .series import PowerSeries


#: Eigenvalues of the reduced pencil with magnitude at most this are
#: deleted as spurious origin poles.
ORIGIN_RADIUS = 1e-3


class FilterIteration(NamedTuple):
    """One pass: working size, singular values seen, and the cause that
    lowered l to l_after ("rank_filter", "rank_deficient_retry",
    "origin_drop" or "vandermonde"; None for an accepted pass), with
    the poles an origin drop deleted."""

    l_before: int
    singular_values: np.ndarray
    cause: str | None
    l_after: int
    origin_poles: tuple = ()

    @property
    def n_s_removed(self) -> int:
        """Directions the rank filter removed."""
        return self.l_before - self.l_after if self.cause == "rank_filter" else 0


@dataclass(frozen=True)
class SpuriousPoleReport:
    """Trajectory and outcome of the filtering loop."""

    iterations: tuple
    final_l: int
    defect_estimate: int

    @property
    def origin_poles_removed(self) -> tuple:
        """Every origin pole dropped, in pass order."""
        return tuple(p for it in self.iterations for p in it.origin_poles)

    @property
    def d_matrix_reductions(self) -> int:
        """Passes that the residue Vandermonde check rejected."""
        return sum(it.cause == "vandermonde" for it in self.iterations)

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
    tol = _tolerance(t) * values[0]
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


def _filter_pass(s: PowerSeries, conf: Conformation, l: int) -> tuple:
    """One pass of the loop at working size l: its FilterIteration and,
    only when the pass is accepted, the poles with their weights
    (lam, e); else None."""
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
    if new_l < l:
        return FilterIteration(l, sr.sigma, "rank_filter", new_l), None
    try:
        lam = reduced_poles(sr)
    except RankDeficient:
        return FilterIteration(l, sr.sigma, "rank_deficient_retry", l - 1), None
    inside = np.abs(lam) <= ORIGIN_RADIUS
    n_inside = int(np.count_nonzero(inside))
    if n_inside:
        return FilterIteration(l, sr.sigma, "origin_drop", l - n_inside, tuple(complex(p) for p in lam[inside])), None
    if (e := residues(s, lam, conf, s.t)) is not None:
        return FilterIteration(l, sr.sigma, None, l), (lam, e)
    return FilterIteration(l, sr.sigma, "vandermonde", l - 1), None


def pm2(s: PowerSeries, conf: Conformation) -> Solution:
    """Pencil solve with iterated spurious-pole filtering.

    Runs the detection loop described in the module docstring starting
    from l = m, with the filtering accuracy t = s.t, and returns a
    Solution: the surviving poles with the accepted pass's weights
    (``pencil.residues``: QR on the all-row D, once rule 3 passes it),
    the equivalent rational approximant, and the filtering report.

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
    accepted = None
    # An identically-zero window has no poles to find: no pass runs.
    l = m if np.count_nonzero(s.coeffs[: conf.n]) else 0
    while l > 0 and accepted is None:
        it, accepted = _filter_pass(s, conf, l)
        iterations.append(it)
        l = it.l_after

    report = SpuriousPoleReport(iterations=tuple(iterations), final_l=l, defect_estimate=2 * (m - l))
    prf = _with_head(s, conf.k, *(accepted or ((), ())))
    return Solution(prf, to_rational(prf, s, conf), report)
