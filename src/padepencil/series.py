"""Truncated power series: container type and test-function generators.

A :class:`PowerSeries` is the common input to every solver in this
package: the first ``n`` Maclaurin coefficients of some underlying
function, plus a decimal accuracy estimate ``t`` (the coefficients are
trusted to roughly ``t`` significant digits).  Coefficients with
negative index are identically zero by convention, and ``coeff``
honours that.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite
from .numerics import all_finite


def require_integer(name: str, value) -> None:
    """Raise ValueError unless value is an integer (numpy integers pass)."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class PowerSeries:
    """First ``n`` coefficients c_0..c_{n-1} of a truncated power series.

    Parameters
    ----------
    coeffs : array_like
        Complex coefficients, lowest order first.  Stored read-only.
    t : float, optional
        Estimated number of accurate decimal digits.  Defaults to 15,
        i.e. coefficients accurate to double-precision roundoff.  This
        is the filtering accuracy of ``pm2``, which drops singular
        values below 10^-t of the largest.
    """

    coeffs: np.ndarray
    t: float = 15.0

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex, ndmin=1)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficient array must be 1-D and non-empty")
        if not all_finite(arr):
            raise NonFinite("series coefficients must be finite")
        try:
            positive = self.t > 0
        except TypeError:  # a string, a complex number, None
            positive = False
        if not positive:
            raise ValueError(f"accuracy estimate t must be positive, got {self.t!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def __len__(self) -> int:
        return self.coeffs.size

    def coeff(self, j: int) -> complex:
        """c_j, with c_j = 0 for j < 0.  Indices beyond the truncation raise."""
        if j < 0:
            return 0j
        if j >= self.coeffs.size:
            raise IndexError(f"coefficient {j} beyond truncation length {self.coeffs.size}")
        return complex(self.coeffs[j])

    def truncate(self, n: int) -> "PowerSeries":
        """Return the series truncated to its first ``n`` coefficients."""
        require_integer("n", n)
        if not 1 <= n <= self.coeffs.size:
            raise ValueError(f"cannot truncate length-{self.coeffs.size} series to {n}")
        return PowerSeries(self.coeffs[:n], t=self.t)


def gen_geometric_noisy(n: int, eps: float, rng: np.random.Generator | None = None) -> PowerSeries:
    """Coefficients of 1/(1-z) with multiplicative uniform noise.

    Each coefficient is 1 * (1 + eps*u_j) with u_j drawn uniformly from
    [-1, 1).  ``eps = 0`` returns the exact all-ones series and does not
    consume random numbers.  The accuracy estimate is -log10(eps) for
    noisy series and 15 for exact ones.

    Parameters
    ----------
    n : int
        Number of coefficients.
    eps : float
        Relative noise amplitude, finite and in [0, 1); anything else
        raises ValueError before any arithmetic.
    rng : numpy.random.Generator, optional
        Source of randomness; required when ``eps > 0``.
    """
    require_integer("n", n)
    if n < 1:
        raise ValueError(f"need at least one coefficient, got n={n}")
    if not 0 <= eps < 1:  # also rejects NaN
        raise ValueError(f"noise amplitude eps must be finite and in [0, 1), got {eps}")
    ones = np.ones(n, dtype=complex)
    if eps == 0:
        return PowerSeries(ones, t=15.0)
    if rng is None:
        raise ValueError("rng is required for eps > 0")
    noise = rng.uniform(-1.0, 1.0, size=n)
    return PowerSeries(ones * (1.0 + eps * noise), t=float(-np.log10(eps)))


def gen_log_series(n: int) -> PowerSeries:
    """Maclaurin coefficients of ln(1.2 - z).

    c_0 = ln(1.2) and c_j = -(1/j)(1/1.2)^j for j >= 1; the function has
    a branch point at z = 1.2 and a cut along the real axis to its right.
    """
    require_integer("n", n)
    if n < 1:
        raise ValueError(f"need at least one coefficient, got n={n}")
    c = np.empty(n, dtype=complex)
    c[0] = np.log(1.2)
    j = np.arange(1, n)
    if n > 1:
        c[1:] = -(1.0 / j) * (1.0 / 1.2) ** j
    return PowerSeries(c, t=15.0)


def gen_from_poles(poles, weights, n: int) -> PowerSeries:
    """Series of sum_j e_j/(1 - z/p_j) from simple poles and weights.

    The coefficient of z^i is sum_j e_j p_j^{-i}.  Poles must be nonzero;
    pole/weight lists must have equal length.  Raises NonFinite when a
    coefficient overflows.
    """
    p = np.atleast_1d(np.asarray(poles, dtype=complex))
    e = np.atleast_1d(np.asarray(weights, dtype=complex))
    if p.size != e.size:
        raise ValueError(f"got {p.size} poles but {e.size} weights")
    if p.size == 0:
        raise ValueError("need at least one pole")
    if np.any(p == 0):
        raise ValueError("poles must be nonzero")
    require_integer("n", n)
    if n < 1:
        raise ValueError(f"need at least one coefficient, got n={n}")
    # c_i = sum_j e_j d_j^i, assembled as a Vandermonde-vector product.
    # A power that overflows leaves inf or NaN, which PowerSeries rejects
    # with NonFinite.
    with np.errstate(all="ignore"):
        d = 1.0 / p
        c = (d[None, :] ** np.arange(n)[:, None]) @ e
    return PowerSeries(c, t=15.0)
