"""Classical Pade solvers: direct linear system and SVD null vector.

Shared here are the two container types used by every solver:
:class:`Conformation` fixes the degree pair [m+k / m], and
:class:`RationalApproximant` holds a numerator / denominator coefficient
pair.

A rational function with numerator degree m+k and denominator degree m
is determined by its first n = 2m+k+1 series coefficients.  The direct
method solves the m x m Toeplitz system

    sum_{i=1}^{m} b_i c_{m+k+1+r-i} = -c_{m+k+1+r},   r = 0..m-1

for b_1..b_m with b_0 = 1; the SVD method instead takes the null
direction of the m x (m+1) system that includes b_0 as an unknown, which
stays meaningful when the direct system is singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import Collapse, DegenerateError, InsufficientCoefficients, NonFinite, RankDeficient
from .numerics import all_finite, convolve, solve, svd
from .series import PowerSeries, require_integer


@dataclass(frozen=True)
class Conformation:
    """Degree selection [m+k / m].

    Parameters
    ----------
    m : int
        Denominator degree, >= 0.
    k : int
        Numerator-degree offset; the numerator has degree m + k, so
        k >= -m.

    Both must be integers (numpy integers included); anything else
    raises ValueError.
    """

    m: int
    k: int

    def __post_init__(self):
        require_integer("m", self.m)
        require_integer("k", self.k)
        if self.m < 0:
            raise ValueError(f"denominator degree must be >= 0, got m={self.m}")
        if self.k < -self.m:
            raise ValueError(f"need k >= -m, got k={self.k} with m={self.m}")

    @property
    def n(self) -> int:
        """Number of series coefficients consumed: 2m + k + 1."""
        return 2 * self.m + self.k + 1


@dataclass(frozen=True)
class RationalApproximant:
    """Numerator and denominator coefficients, lowest order first."""

    numer: np.ndarray
    denom: np.ndarray

    def __post_init__(self):
        for name in ("numer", "denom"):
            arr = np.array(getattr(self, name), dtype=complex, ndmin=1)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-D array")
            if not all_finite(arr):
                raise NonFinite(f"{name} coefficients must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not np.count_nonzero(self.denom):  # faster than .any()
            raise ValueError("denominator must not be identically zero")

    @classmethod
    def _of(cls, numer: np.ndarray, denom: np.ndarray) -> RationalApproximant:
        """The approximant of a numerator and a denominator that a solver
        has just made: non-empty 1-D complex arrays that no one else
        holds, the denominator finite and not all zero.  Only the
        numerator is checked; both are frozen in place, not copied."""
        if not all_finite(numer):
            raise NonFinite("numer coefficients must be finite")
        ra = object.__new__(cls)
        numer.flags.writeable = denom.flags.writeable = False
        ra.__dict__.update(numer=numer, denom=denom)  # frozen: no setattr
        return ra


def _require_length(s: PowerSeries, conf: Conformation) -> None:
    if len(s) < conf.n:
        raise InsufficientCoefficients(
            f"[{conf.m + conf.k}/{conf.m}] needs {conf.n} coefficients, series has {len(s)}"
        )


def combined_window(s: PowerSeries, conf: Conformation, l: int) -> np.ndarray:
    """The (2m-l) x (l+1) Hankel window with entry c_{k+1+i+j} at (i, j).

    ``l`` is the working pole count, 1 <= l <= m.  Coefficients with
    negative index are zero.  Every solver reads this window: slicing
    off its last or first column yields the pencil blocks C1 and C2, and
    at l = m its columns reversed form the direct and SVD systems.
    """
    m, k = conf.m, conf.k
    require_integer("l", l)
    if not 1 <= l <= m:
        raise ValueError(f"the pencil needs 1 <= l <= m, got l={l} with m={m}")
    _require_length(s, conf)
    if k >= -1:
        vals = s.coeffs[k + 1 : conf.n]
    else:
        vals = np.concatenate((np.zeros(-(k + 1), dtype=complex), s.coeffs[: conf.n]))
    return vals[_hankel_index(2 * m - l, l + 1)]


@lru_cache(maxsize=1024)
def _hankel_index(rows: int, cols: int) -> np.ndarray:
    """Read-only rows x cols index array with entry i + j at (i, j)."""
    index = np.arange(rows)[:, None] + np.arange(cols)
    index.flags.writeable = False
    return index


def dm_denominator(s: PowerSeries, conf: Conformation) -> np.ndarray:
    """Denominator b_0..b_m by the direct Toeplitz solve, b_0 = 1.

    The system is the window H at l = m with its columns reversed:
    H[:, -2::-1] b_tail = -H[:, -1].  Raises DegenerateError when it is
    numerically singular (the LU factorization hits a zero pivot),
    which for exact coefficients of a function with fewer than m poles
    is the expected outcome.
    """
    if conf.m == 0:
        _require_length(s, conf)
        return np.array([1.0 + 0j])
    H = combined_window(s, conf, conf.m)
    try:
        b_tail = solve(H[:, -2::-1], -H[:, -1])
    except RankDeficient as exc:
        raise DegenerateError(f"direct {conf.m}x{conf.m} denominator system is singular: {exc}") from exc
    if not all_finite(b_tail):
        raise DegenerateError("direct denominator solve produced non-finite coefficients")
    return np.concatenate(([1.0 + 0j], b_tail))


def svd_denominator(s: PowerSeries, conf: Conformation) -> np.ndarray:
    """Denominator b_0..b_m as the null direction of the m x (m+1) system
    H[:, ::-1] b = 0 (the window at l = m, columns reversed).

    The returned vector is scaled so its largest-magnitude entry is
    exactly 1.  Unlike the direct method this never fails on singular
    systems; degeneracy shows up as b_0 = 0 instead.
    """
    if conf.m == 0:
        _require_length(s, conf)
        return np.array([1.0 + 0j])
    H = combined_window(s, conf, conf.m)
    b = svd(H[:, ::-1]).Vh[-1].conj()
    pivot = int(np.argmax(np.abs(b)))
    return b / b[pivot]


def numerator_from_denominator(s: PowerSeries, denom, conf: Conformation) -> np.ndarray:
    """Numerator a_0..a_{d+k} for a given degree-d denominator.

    Implements the convolution identity a_j = sum_i c_{j-i} b_i
    truncated at the numerator degree d + k, where d = len(denom) - 1.
    A negative numerator degree (possible when filtering shrank the
    denominator below -k) raises Collapse, and a NaN or infinite
    denominator coefficient NonFinite.
    """
    b = np.atleast_1d(np.asarray(denom, dtype=complex))
    if not all_finite(b):
        raise NonFinite("denominator coefficients must be finite")
    deg = (b.size - 1) + conf.k
    if deg < 0:
        raise Collapse(
            f"degree-{b.size - 1} denominator with k={conf.k} leaves no numerator terms"
        )
    if len(s) < deg + 1:
        raise InsufficientCoefficients(
            f"numerator of degree {deg} needs {deg + 1} coefficients, series has {len(s)}"
        )
    return convolve(s.coeffs[: deg + 1], b)[: deg + 1]
